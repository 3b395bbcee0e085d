// sdp.hpp — minimal Service Discovery Protocol over L2CAP PSM 0x0001.
//
// Two BLAP-relevant properties of SDP:
//   * it requires no authentication (GAP lets unauthenticated peers query
//     it), which is why the paper's mitigation discussion notes a connection
//     initiator may legitimately never pair; and
//   * an SDP query makes convenient PLOC keep-alive "dummy data" (§VI-B2).
//
// Message format on the channel:
//   request : 0x02 | uuid16 (LE)
//   response: 0x03 | found u8 | count u8 | count x uuid16 (LE)
#pragma once

#include <functional>
#include <vector>

#include "common/uuid.hpp"
#include "host/l2cap.hpp"

namespace blap::host {

class SdpServer {
 public:
  /// Register the server's service records and hook it onto L2CAP.
  void attach(L2cap& l2cap);

  /// Handle an inbound SDP message if it is a request. Returns false when
  /// the message is not a request (e.g. a response destined for the client
  /// role sharing the PSM).
  bool handle(L2cap& l2cap, const L2capChannel& channel, BytesView data);

  void add_service(std::uint16_t uuid16) { services_.push_back(uuid16); }
  void clear_services() { services_.clear(); }
  [[nodiscard]] const std::vector<std::uint16_t>& services() const { return services_; }

  /// Snapshot support: the registered service records.
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self) {
    io.seq(self.services_);
  }

 private:
  std::vector<std::uint16_t> services_;
  L2cap* l2cap_ = nullptr;
};

class SdpClient {
 public:
  struct Result {
    bool found = false;
    std::vector<std::uint16_t> all_services;
  };
  using Callback = std::function<void(std::optional<Result>)>;

  explicit SdpClient(L2cap& l2cap) : l2cap_(l2cap) {}

  /// Search the peer on `handle` for a service UUID.
  void search(hci::ConnectionHandle handle, std::uint16_t uuid16, Callback callback);

  /// Feed a response arriving on an SDP channel we initiated.
  void on_response(BytesView payload);

  /// No outstanding search (strict-snapshot precondition); kRewind restores
  /// drop a search started after the capture.
  [[nodiscard]] bool quiescent() const { return !pending_; }
  void reset_pending() { pending_ = nullptr; }

 private:
  L2cap& l2cap_;
  Callback pending_;
};

}  // namespace blap::host
