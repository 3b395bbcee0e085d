// radio_medium.hpp — the shared 2.4 GHz medium connecting all controllers.
//
// The medium implements the two baseband procedures BLAP's second attack
// lives on:
//
//   * Inquiry — a requester broadcasts; every inquiry-scanning endpoint
//     responds with (BD_ADDR, COD, name) after its own scan-window latency.
//
//   * Page — a requester pages one BD_ADDR. Every page-scanning endpoint
//     that *owns that address* is a candidate; when an attacker spoofs the
//     legitimate device's BD_ADDR there are two candidates, and the medium
//     resolves the race by sampling each candidate's page-response latency.
//     Whichever scan window catches the page train first wins the baseband
//     connection. This race is exactly why the paper measures only 42–60 %
//     MITM success without page blocking (§VI footnote 1, Table II): the
//     same BD_ADDR is only meaningful during this short window, and the
//     attacker cannot control who answers first. The page blocking attack
//     sidesteps the race entirely by making the attacker the *initiator*.
//
// Established links carry opaque air frames (the controllers speak LMP and
// ACL over them); the medium adds per-frame propagation/TDD latency.
//
// Scale: endpoint state lives in an EndpointRegistry (see
// endpoint_registry.hpp) — page() resolves candidates from a BD_ADDR index
// in O(log n + candidates), start_inquiry() touches only the endpoints
// whose inquiry-scan bit is set, and delayed callbacks re-validate
// endpoints through O(1) generation-checked handles instead of scanning an
// attachment vector. Endpoints whose address or scan state changes while
// attached must route the change through notify_endpoint_changed();
// Controller does this from its HCI write paths.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/bdaddr.hpp"
#include "common/rng.hpp"
#include "common/scheduler.hpp"
#include "faults/fault_plan.hpp"
#include "obs/obs.hpp"
#include "radio/endpoint_registry.hpp"

namespace blap::radio {

using LinkId = std::uint64_t;

/// On-air link-detach reason codes. The baseband carries the same numeric
/// space as the HCI error codes (the LMP_detach PDU literally transports an
/// HCI error code), so these are aliases for the values every layer agrees
/// on — never pass a bare 0 (kSuccess), which carries no teardown cause.
namespace close_reason {
/// Supervision timeout / endpoint vanished mid-link (powered off, jammed).
inline constexpr std::uint8_t kConnectionTimeout = 0x08;
/// The remote user (or host policy) terminated the connection.
inline constexpr std::uint8_t kRemoteUserTerminated = 0x13;
}  // namespace close_reason

struct InquiryResponse {
  BdAddr address;
  ClassOfDevice class_of_device;
  std::string name;
};

/// Interface a controller implements to exist on the air.
class RadioEndpoint {
 public:
  virtual ~RadioEndpoint() = default;

  [[nodiscard]] virtual BdAddr radio_address() const = 0;
  [[nodiscard]] virtual ClassOfDevice radio_class_of_device() const = 0;
  [[nodiscard]] virtual std::string radio_name() const = 0;
  [[nodiscard]] virtual bool inquiry_scan_enabled() const = 0;
  [[nodiscard]] virtual bool page_scan_enabled() const = 0;

  /// Sample the time from page start until this endpoint's next page-scan
  /// window catches the page train. Device profiles tune this distribution;
  /// it decides the BD_ADDR-collision race.
  [[nodiscard]] virtual SimTime sample_page_response_latency(Rng& rng) = 0;

  /// A baseband link came up (page succeeded). The responder side should
  /// normally surface HCI_Connection_Request to its host.
  virtual void on_link_established(LinkId link, const BdAddr& peer, bool initiator) = 0;

  /// The peer (or the medium, on supervision teardown) closed the link.
  virtual void on_link_closed(LinkId link, std::uint8_t reason) = 0;

  /// An air frame arrived from the peer.
  virtual void on_air_frame(LinkId link, const Bytes& frame) = 0;
};

/// A frame observed on the air by a passive sniffer.
struct SniffedFrame {
  SimTime timestamp_us = 0;
  LinkId link = 0;
  BdAddr sender;
  BdAddr receiver;
  Bytes frame;  // LMP or (possibly encrypted) ACL air frame
};

class RadioMedium {
 public:
  RadioMedium(Scheduler& scheduler, Rng rng) : scheduler_(scheduler), rng_(rng) {}
  RadioMedium(const RadioMedium&) = delete;
  RadioMedium& operator=(const RadioMedium&) = delete;

  void attach(RadioEndpoint* endpoint);
  void detach(RadioEndpoint* endpoint);

  /// An attached endpoint's identity or scan state changed (address spoof,
  /// HCI Write_Scan_Enable, reset, snapshot restore). Re-indexes the
  /// endpoint and re-keys the address-pair index of its live links. No-op
  /// for detached endpoints. Required for correctness: page/inquiry/
  /// link_between resolve against the *indexed* address and scan bits.
  void notify_endpoint_changed(RadioEndpoint* endpoint);

  [[nodiscard]] std::size_t endpoint_count() const { return registry_.size(); }

  /// Broadcast inquiry. Responses arrive individually; on_complete fires at
  /// the end of the inquiry window.
  void start_inquiry(RadioEndpoint* requester, SimTime duration,
                     std::function<void(const InquiryResponse&)> on_response,
                     std::function<void()> on_complete);

  /// Page `target`. Resolves the scan race among all candidates; calls
  /// on_result with the new link id, or nullopt on page timeout.
  void page(RadioEndpoint* initiator, const BdAddr& target, SimTime timeout,
            std::function<void(std::optional<LinkId>)> on_result);

  /// Baseband delivery report: fired once per send_frame() that requested
  /// it, after one TDD round trip, with whether the frame survived the
  /// channel. Models the baseband ACK/NAK the controller's ARQ rides on.
  /// The report itself is reliable (ACK loss is not modelled).
  using TxReport = std::function<void(bool delivered)>;

  /// Send an opaque frame to the peer of `link`. No-op if the link is gone.
  /// When a FaultPlan is active, the link's ChannelModel may drop or corrupt
  /// the frame; pass `on_report` to learn the outcome (only delivered/lost —
  /// residual corruption passes CRC and reports as delivered). With no
  /// fault plan every frame is delivered and no report event is scheduled
  /// unless one was requested.
  void send_frame(LinkId link, RadioEndpoint* sender, Bytes frame,
                  TxReport on_report = nullptr);

  /// Tear a link down; the peer gets on_link_closed(reason). `reason` is an
  /// HCI error code (see close_reason:: for the common values) — never 0.
  void close_link(LinkId link, RadioEndpoint* closer, std::uint8_t reason);

  [[nodiscard]] bool link_alive(LinkId link) const { return links_.contains(link); }

  /// Peer endpoint of `link` from `self`'s perspective (nullptr if gone).
  [[nodiscard]] RadioEndpoint* peer_of(LinkId link, const RadioEndpoint* self) const;

  /// The live link between the endpoints owning these two addresses, if any
  /// (lowest link id wins when duplicates exist). Lets tests and tools find
  /// a connection without assuming "the first link in a fresh simulation
  /// has id 1".
  [[nodiscard]] std::optional<LinkId> link_between(const BdAddr& x, const BdAddr& y) const;

  /// Air latency applied to each frame (one-way).
  void set_frame_latency(SimTime latency) { frame_latency_ = latency; }

  /// Minimum inquiry-scanner count before an inquiry switches from one
  /// scheduler event per response to one cursor event fanning out each
  /// same-instant response group. Delivery order and timestamps are
  /// identical either way (the batch pre-reserves the tie-break sequence
  /// numbers the individual events would have drawn); only the scheduler
  /// dispatch count — visible to an installed Observer's event metrics —
  /// differs, which is why small-N scenarios keep the literal old path.
  void set_inquiry_batch_threshold(std::size_t threshold) {
    inquiry_batch_threshold_ = threshold;
  }

  /// Install (or clear, with a default-constructed plan) the fault plan.
  /// Takes effect immediately: channel models are (re)built for every live
  /// link. With a disabled plan the medium never consults a ChannelModel or
  /// its Rng, so outputs are byte-identical to a plan-free run.
  void set_fault_plan(faults::FaultPlan plan);
  [[nodiscard]] bool faults_enabled() const { return fault_plan_.enabled(); }
  [[nodiscard]] const faults::FaultPlan& fault_plan() const { return fault_plan_; }

  /// Attach (or clear) the simulation's observer. The medium records
  /// inquiry windows, the per-candidate paging-race spans that decide the
  /// Table II baseline, page timeouts and frame counts.
  void set_observer(obs::Observer* observer) { obs_ = observer; }

  /// Snapshot support. Endpoints are identified by their index into
  /// `roster` — the simulation's canonical endpoint list in device order —
  /// because BD_ADDRs are spoofable mid-scenario and pointers are not
  /// serializable. The save fails the writer-side contract loudly (via
  /// the returned false) if a link references an endpoint outside the
  /// roster. The load rebuilds links_ (with channel models re-derived
  /// from the restored fault plan) and, in kRewind mode, truncates the
  /// sniffer list back to the captured count — dropping exactly the
  /// sniffers a trial added after the capture point.
  bool persist(state::StateWriter& w, std::span<RadioEndpoint* const> roster) const;
  void persist(state::StateReader& r, std::span<RadioEndpoint* const> roster);

  /// Replace the medium's own jitter stream (the per-trial reseed path).
  void set_rng(Rng rng) { rng_ = rng; }

  /// Attach a passive air sniffer (an Ubertooth-style capture device). It
  /// observes every frame on every link — including encrypted ACL payloads
  /// as ciphertext — which is what makes an extracted link key retroactively
  /// devastating (paper §IV-C: "decrypt not only the future, but also the
  /// past communications ... captured by air-sniffers").
  void add_sniffer(std::function<void(const SniffedFrame&)> sniffer) {
    sniffers_.push_back(std::move(sniffer));
  }

  /// One live link as seen by the medium, for the cross-layer invariant
  /// monitor (src/invariants/): the raw endpoint pointers let the monitor
  /// match links back to device controllers.
  struct LinkAuditView {
    LinkId id = 0;
    const RadioEndpoint* a = nullptr;
    const RadioEndpoint* b = nullptr;
  };
  [[nodiscard]] std::vector<LinkAuditView> audit_links() const;
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Structural self-check for the invariant monitor: every live link's
  /// generation-checked endpoint handles must resolve to its endpoint
  /// pointers, the address-pair index and the per-slot link lists must
  /// agree with links_, and channel models must exist iff faults are
  /// enabled. Returns false with `why` on the first inconsistency.
  [[nodiscard]] bool audit_consistency(std::string* why) const;

  /// Endpoint-registry generation audit, separate from audit_consistency()
  /// so the invariant monitor can name the two failures differently: every
  /// attached endpoint must resolve through its own handle, and iteration
  /// must agree with size().
  [[nodiscard]] bool audit_registry(std::string* why) const;

 private:
  /// The head of the medium's section; the roster-indexed attachment and
  /// link lists after it are written by hand.
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void head_fields(Io& io, Self& self);

  struct Link {
    RadioEndpoint* a = nullptr;  // initiator
    RadioEndpoint* b = nullptr;  // responder
    /// Generation-checked handles for the two ends; what delayed callbacks
    /// capture and re-validate instead of the raw pointers above.
    EndpointHandle a_handle;
    EndpointHandle b_handle;
    /// Addresses as currently keyed into link_index_ (re-keyed by
    /// notify_endpoint_changed when an end is spoofed mid-link).
    BdAddr addr_a;
    BdAddr addr_b;
    /// Per-link fault state; null whenever the fault plan is disabled.
    std::unique_ptr<faults::ChannelModel> channel;
  };

  /// One in-flight inquiry's batched response schedule: entries sorted by
  /// (when, seq), delivered one same-instant group per cursor event.
  struct InquiryBatch {
    struct Entry {
      SimTime when;
      std::uint64_t seq;
      InquiryResponse response;
    };
    std::vector<Entry> entries;
    std::size_t next = 0;
    std::function<void(const InquiryResponse&)> on_response;
  };

  static std::tuple<BdAddr, BdAddr, LinkId> link_key(const BdAddr& x, const BdAddr& y,
                                                     LinkId id) {
    return x < y ? std::tuple{x, y, id} : std::tuple{y, x, id};
  }
  void index_link(LinkId id, Link& link);
  void unindex_link(LinkId id, const Link& link);
  void schedule_batch_delivery(std::shared_ptr<InquiryBatch> batch);

  Scheduler& scheduler_;
  Rng rng_;
  obs::Observer* obs_ = nullptr;
  EndpointRegistry registry_;
  std::vector<std::function<void(const SniffedFrame&)>> sniffers_;
  // Ordered map: teardown order is observable (close_link events) and must
  // be hash-independent.
  std::map<LinkId, Link> links_;
  // Live link ids per registry slot, ascending (link ids are monotonic and
  // appended in creation order) — detach() finds its doomed links here
  // without walking links_.
  std::vector<std::vector<LinkId>> links_of_slot_;
  // (lo addr, hi addr, id): link_between() answers in O(log L), and the id
  // in the key makes "lowest link id wins" fall out of map order when a
  // spoofing scenario creates several links over one address pair.
  std::set<std::tuple<BdAddr, BdAddr, LinkId>> link_index_;
  LinkId next_link_id_ = 1;
  SimTime frame_latency_ = 2 * kSlot;  // ~1.25 ms: one TDD round trip
  faults::FaultPlan fault_plan_;       // default: disabled
  std::size_t inquiry_batch_threshold_ = 16;
};

}  // namespace blap::radio
