// transport.hpp — the physical HCI transport between host and controller.
//
// The Bluetooth architecture deliberately separates host and controller; the
// bytes between them travel over a real physical interface (UART inside
// phones, USB for PC dongles). That physical reality is the paper's §IV-B
// attack surface: whoever can observe the interface sees link keys in
// plaintext. BLAP models the transport as a scheduler-driven channel with
// per-direction delivery callbacks and passive taps:
//   * the host's HCI-dump tap hangs off the transport (Android snoop log),
//   * the USB sniffer hangs off UsbTransport's frame stream (FTS4USB-style).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/scheduler.hpp"
#include "common/state_io.hpp"
#include "crypto/aes128.hpp"
#include "hci/packets.hpp"

namespace blap::transport {

/// Abstract HCI transport. One instance connects exactly one host to one
/// controller. Packets are delivered asynchronously via the scheduler so
/// that HCI traffic interleaves realistically with radio traffic.
class HciTransport {
 public:
  using Receiver = std::function<void(const hci::HciPacket&)>;
  /// A tap observes every packet with its direction, at the moment it is
  /// submitted (before transit delay) — matching how snoop logs and hardware
  /// analyzers capture at the sending connector.
  using Tap = std::function<void(hci::Direction, const hci::HciPacket&)>;

  explicit HciTransport(Scheduler& scheduler) : scheduler_(scheduler) {}
  virtual ~HciTransport() = default;
  HciTransport(const HciTransport&) = delete;
  HciTransport& operator=(const HciTransport&) = delete;

  /// Install the receive callback for packets flowing toward the host
  /// (events, incoming ACL) or toward the controller (commands, outgoing ACL).
  void set_host_receiver(Receiver receiver) { to_host_ = std::move(receiver); }
  void set_controller_receiver(Receiver receiver) { to_controller_ = std::move(receiver); }

  /// Submit a packet. Direction is from the sender's perspective.
  void send(hci::Direction direction, const hci::HciPacket& packet);

  /// Attach a passive observer (HCI dump, USB analyzer...).
  void add_tap(Tap tap) { taps_.push_back(std::move(tap)); }

  /// §VII-A2 mitigation: host and controller share a session key and encrypt
  /// the 16-byte link key field of key-bearing HCI packets
  /// (Link_Key_Request_Reply, Link_Key_Notification) with AES-CTR. Passive
  /// observers — the snoop tap AND hardware sniffers — then see ciphertext,
  /// while the endpoints continue to exchange usable keys.
  void set_link_key_payload_protection(std::optional<crypto::Aes128::Key> key);
  [[nodiscard]] bool link_key_payload_protected() const { return protection_key_.has_value(); }

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }

  /// Snapshot support: wire-protection state plus the attached-tap count.
  /// Taps themselves are callbacks and cannot be serialized; a kRewind
  /// restore truncates the tap list back to the captured count, dropping
  /// exactly the observers a trial attached after the capture point.
  /// Subclasses with extra observable state (UsbTransport's frame-observer
  /// list) extend both methods.
  virtual void persist(state::StateWriter& w) const;
  virtual void persist(state::StateReader& r);

 protected:
  /// Transit delay for a packet of the given wire size.
  [[nodiscard]] virtual SimTime transit_delay(std::size_t wire_bytes) const = 0;

  /// Hook for subclasses to observe the wire form (USB framing, etc.).
  virtual void on_wire(hci::Direction direction, const hci::HciPacket& packet) {
    (void)direction;
    (void)packet;
  }

 private:
  /// The wire view of a packet: identical to `packet` unless protection is
  /// active and the packet carries a link key, in which case the key bytes
  /// hci::locate_link_key finds are AES-CTR encrypted.
  [[nodiscard]] hci::HciPacket wire_view(hci::Direction direction,
                                         const hci::HciPacket& packet);

  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void fields(Io& io, Self& self);

  Scheduler& scheduler_;
  Receiver to_host_;
  Receiver to_controller_;
  std::vector<Tap> taps_;
  std::optional<crypto::Aes128::Key> protection_key_;
  std::uint64_t protection_counter_[2] = {0, 0};
  /// Per-direction FIFO watermark: no delivery may be scheduled before the
  /// previous delivery in the same direction (a serial line cannot reorder).
  /// Deliberately not serialized — it is derivable pessimism, not protocol
  /// state — so snapshot byte layout and the pinned replay corpus are
  /// unaffected; a kRewind load clears it instead.
  SimTime line_clear_at_[2] = {0, 0};
};

}  // namespace blap::transport
