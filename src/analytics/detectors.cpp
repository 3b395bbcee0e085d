// detectors.cpp — the four built-in BLAP attack detectors.
//
// Every detector is a streaming state machine over RecordCtx. State lives in
// std::map/std::set keyed by BdAddr or connection handle (ordered containers
// by policy: finish() iterates them, and iteration order reaches the
// FleetReport JSON). Findings fire either at the record that crosses a
// threshold (frame attribution is exact) or at finish() for rules that need
// end-of-file context (the PLOC fingerprint waits for the IO capability
// exchange that follows the suspicious Authentication_Requested).
#include "analytics/detector.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/log.hpp"
#include "hci/constants.hpp"
#include "hci/packets.hpp"

namespace blap::analytics {

namespace {

using hci::ev::kAuthenticationComplete;
using hci::ev::kConnectionComplete;
using hci::ev::kConnectionRequest;
using hci::ev::kIoCapabilityResponse;
using hci::ev::kPinCodeRequest;
using hci::ev::kReturnLinkKeys;
using hci::ev::kSimplePairingComplete;

/// Decode a wire-order BD_ADDR at `offset` of the parameter bytes.
std::optional<BdAddr> addr_at(BytesView params, std::size_t offset) {
  if (params.size() < offset + BdAddr::kSize) return std::nullopt;
  ByteReader r(params.subspan(offset));
  return BdAddr::from_wire(r);
}

Finding make_finding(std::string_view detector, const RecordCtx& ctx, const BdAddr& peer,
                     std::string detail) {
  Finding f;
  f.detector = std::string(detector);
  f.frame = ctx.view.index + 1;  // 1-based, matching snoop_inspector's table
  f.ts_us = ctx.view.timestamp_us;
  f.peer = peer;
  f.detail = std::move(detail);
  return f;
}

// ---------------------------------------------------------------------------
// plaintext_link_key — §IV-A exposure. Fires only when the 16 key bytes are
// actually present in the capture, so a §VII-A header-only dump stays clean
// even though the key-bearing opcodes appear in it.
// ---------------------------------------------------------------------------
class PlaintextLinkKeyDetector final : public Detector {
 public:
  [[nodiscard]] std::string_view name() const override { return kPlaintextLinkKey; }

  void on_record(const RecordCtx& ctx) override {
    if (!ctx.type) return;
    // Link_Key_Notification / Link_Key_Request_Reply (the paper's "0b 04 16"
    // search target).
    const BytesView payload = ctx.view.wire.subspan(1);
    if (const auto field = hci::locate_link_key(*ctx.type, payload)) {
      if (!field->key_present) return;
      const BdAddr peer = field->peer(payload);
      pending_.push_back(make_finding(
          kPlaintextLinkKey, ctx, peer,
          strfmt(*ctx.type == hci::PacketType::kEvent
                     ? "link key for %s in plaintext HCI_Link_Key_Notification (key %s)"
                     : "stored link key for %s replayed in HCI_Link_Key_Request_Reply (key %s)",
                 peer.to_string().c_str(), hex(field->key(payload)).c_str())));
      return;
    }
    // Return_Link_Keys: Num_Keys(1) + Num_Keys x (BD_ADDR(6) + Key(16)) —
    // the bulk dump a Read_Stored_Link_Key sweep triggers.
    if (ctx.event == kReturnLinkKeys && ctx.params.size() >= 1 + 6 + 16 &&
        ctx.params[0] > 0) {
      if (auto addr = addr_at(ctx.params, 1)) {
        const std::size_t present =
            std::min<std::size_t>(ctx.params[0], (ctx.params.size() - 1) / (6 + 16));
        pending_.push_back(make_finding(
            kPlaintextLinkKey, ctx, *addr,
            strfmt("Read_Stored_Link_Key sweep dumped %zu bond key(s) in "
                   "HCI_Return_Link_Keys (first: %s)",
                   present, addr->to_string().c_str())));
      }
      return;
    }
  }

  void finish(std::vector<Finding>& out) override {
    for (auto& f : pending_) out.push_back(std::move(f));
    pending_.clear();
  }

 private:
  std::vector<Finding> pending_;
};

// ---------------------------------------------------------------------------
// page_blocking — §V. Two rules:
//  (a) the Fig. 12b victim fingerprint: the local host pairs as initiator
//      (Authentication_Requested) over an ACL it did not initiate
//      (Connection_Request + inbound Connection_Complete), and the peer
//      advertises NoInputNoOutput — or the host sat in a PLOC-shaped stall
//      between the inbound connect and its own authentication.
//  (b) repeated blocked pages: >= threshold Connection_Complete failures
//      with Page_Timeout / Connection_Accept_Timeout against one address,
//      AND a later inbound connection from that same address. The inbound
//      half is what separates PLOC (the attacker holds the accessory's page
//      scan, then pages the victim as the accessory) from an RF loss storm,
//      which produces the same run of failed pages but never the inbound
//      connect — so retry storms cannot trip this rule.
// ---------------------------------------------------------------------------
class PageBlockingDetector final : public Detector {
 public:
  explicit PageBlockingDetector(const DetectorConfig& config) : config_(config) {}

  [[nodiscard]] std::string_view name() const override { return kPageBlocking; }

  void on_record(const RecordCtx& ctx) override {
    if (ctx.event == kConnectionRequest) {
      if (auto addr = addr_at(ctx.params, 0)) inbound_requested_.insert(*addr);
      return;
    }
    if (ctx.event == kConnectionComplete && ctx.params.size() >= 1 + 2 + 6) {
      const auto status = static_cast<hci::Status>(ctx.params[0]);
      const auto addr = addr_at(ctx.params, 3);
      if (!addr) return;
      if (status == hci::Status::kSuccess) {
        const auto handle =
            static_cast<hci::ConnectionHandle>(ctx.params[1] | (ctx.params[2] << 8));
        if (inbound_requested_.count(*addr) > 0) {
          inbound_complete_[handle] = {*addr, ctx.view.timestamp_us};
          inbound_connected_.insert(*addr);
        }
        return;
      }
      if (status == hci::Status::kPageTimeout ||
          status == hci::Status::kConnectionAcceptTimeout) {
        auto& blocked = blocked_pages_[*addr];
        ++blocked.count;
        // Remember the crossing record: that is the frame the finding
        // attributes to if the inbound half of the fingerprint arrives.
        if (blocked.count == config_.page_failure_threshold) {
          blocked.frame = ctx.view.index + 1;
          blocked.ts_us = ctx.view.timestamp_us;
          blocked.last_status = status;
        }
      }
      return;
    }
    if (ctx.opcode == hci::op::kAuthenticationRequested && ctx.params.size() >= 2) {
      const auto handle =
          static_cast<hci::ConnectionHandle>(ctx.params[0] | (ctx.params[1] << 8));
      auto it = inbound_complete_.find(handle);
      if (it == inbound_complete_.end()) return;  // we initiated; not PLOC-shaped
      Candidate c;
      c.frame = ctx.view.index + 1;
      c.ts_us = ctx.view.timestamp_us;
      c.peer = it->second.first;
      c.idle_gap = ctx.view.timestamp_us - it->second.second;
      candidates_.push_back(c);
      return;
    }
    if (ctx.event == kIoCapabilityResponse && ctx.params.size() >= 7) {
      if (auto addr = addr_at(ctx.params, 0))
        peer_io_[*addr] = static_cast<hci::IoCapability>(ctx.params[6]);
      return;
    }
  }

  void finish(std::vector<Finding>& out) override {
    std::set<BdAddr> fired;
    for (const auto& c : candidates_) {
      if (fired.count(c.peer) > 0) continue;
      auto io = peer_io_.find(c.peer);
      // blap-lint: spec-ok classifying a captured IO capability byte, not deciding a pairing
      const bool nii_peer =
          io != peer_io_.end() && io->second == hci::IoCapability::kNoInputNoOutput;
      const bool ploc_stall = c.idle_gap >= config_.ploc_idle_threshold;
      if (!nii_peer && !ploc_stall) continue;
      fired.insert(c.peer);
      Finding f;
      f.detector = std::string(kPageBlocking);
      f.frame = c.frame;
      f.ts_us = c.ts_us;
      f.peer = c.peer;
      f.detail = strfmt(
          "victim-initiated pairing on inbound ACL from %s (%s)",
          c.peer.to_string().c_str(),
          nii_peer ? "NoInputNoOutput peer" : "PLOC-shaped pre-auth stall");
      out.push_back(std::move(f));
    }
    for (const auto& [addr, blocked] : blocked_pages_) {
      if (blocked.count < config_.page_failure_threshold) continue;
      if (inbound_connected_.count(addr) == 0) continue;  // loss storm, not PLOC
      if (fired.count(addr) > 0) continue;  // fingerprint rule already flagged it
      Finding f;
      f.detector = std::string(kPageBlocking);
      f.frame = blocked.frame;
      f.ts_us = blocked.ts_us;
      f.peer = addr;
      f.detail = strfmt(
          "%zu blocked pages toward %s followed by an inbound connect from it (last: %s)",
          blocked.count, addr.to_string().c_str(), to_string(blocked.last_status));
      out.push_back(std::move(f));
    }
    candidates_.clear();
    inbound_requested_.clear();
    inbound_connected_.clear();
    inbound_complete_.clear();
    peer_io_.clear();
    blocked_pages_.clear();
  }

 private:
  struct Candidate {
    std::size_t frame = 0;
    SimTime ts_us = 0;
    BdAddr peer;
    SimTime idle_gap = 0;
  };

  struct BlockedPages {
    std::size_t count = 0;
    std::size_t frame = 0;  // record that crossed the threshold
    SimTime ts_us = 0;
    hci::Status last_status = hci::Status::kSuccess;
  };

  DetectorConfig config_;
  std::set<BdAddr> inbound_requested_;
  std::set<BdAddr> inbound_connected_;
  std::map<hci::ConnectionHandle, std::pair<BdAddr, SimTime>> inbound_complete_;
  std::map<BdAddr, hci::IoCapability> peer_io_;
  std::map<BdAddr, BlockedPages> blocked_pages_;
  std::vector<Candidate> candidates_;
};

// ---------------------------------------------------------------------------
// ssp_downgrade — a peer whose IO capability collapses to NoInputNoOutput
// after it previously advertised a MITM-capable one (the impersonation move
// behind the paper's car-kit attack), or an SSP-capable peer that falls back
// to legacy PIN pairing. One finding per address per rule.
// ---------------------------------------------------------------------------
class SspDowngradeDetector final : public Detector {
 public:
  [[nodiscard]] std::string_view name() const override { return kSspDowngrade; }

  void on_record(const RecordCtx& ctx) override {
    if (ctx.event == kIoCapabilityResponse && ctx.params.size() >= 7) {
      auto addr = addr_at(ctx.params, 0);
      if (!addr) return;
      const auto io = static_cast<hci::IoCapability>(ctx.params[6]);
      auto [it, fresh] = first_io_.emplace(*addr, io);
      // blap-lint: spec-ok comparing captured IO capability bytes across pairings, not deciding one
      if (!fresh && io == hci::IoCapability::kNoInputNoOutput &&
          // blap-lint: spec-ok same classification, second operand
          it->second != hci::IoCapability::kNoInputNoOutput &&
          downgrade_fired_.insert(*addr).second) {
        pending_.push_back(make_finding(
            kSspDowngrade, ctx, *addr,
            strfmt("%s re-paired as NoInputNoOutput after earlier %s exchange",
                   addr->to_string().c_str(), to_string(it->second))));
      }
      return;
    }
    if (ctx.event == kPinCodeRequest) {
      auto addr = addr_at(ctx.params, 0);
      if (!addr) return;
      if (first_io_.count(*addr) > 0 && legacy_fired_.insert(*addr).second) {
        pending_.push_back(make_finding(
            kSspDowngrade, ctx, *addr,
            strfmt("SSP-capable peer %s fell back to legacy PIN pairing",
                   addr->to_string().c_str())));
      }
      return;
    }
  }

  void finish(std::vector<Finding>& out) override {
    for (auto& f : pending_) out.push_back(std::move(f));
    pending_.clear();
    first_io_.clear();
    downgrade_fired_.clear();
    legacy_fired_.clear();
  }

 private:
  std::map<BdAddr, hci::IoCapability> first_io_;
  std::set<BdAddr> downgrade_fired_;
  std::set<BdAddr> legacy_fired_;
  std::vector<Finding> pending_;
};

// ---------------------------------------------------------------------------
// pairing_retry_storm — the fault-recovery signature: the host keeps
// re-running a pair operation against one peer (repeated pages and
// authentications) while failures pile up. Attempts count pairing rounds
// (Authentication_Requested) plus pages that died before reaching one;
// failures count failed connects, failed authentications and failed SSP
// completions. Fires once per address when both thresholds are met.
// ---------------------------------------------------------------------------
class PairingRetryStormDetector final : public Detector {
 public:
  explicit PairingRetryStormDetector(const DetectorConfig& config) : config_(config) {}

  [[nodiscard]] std::string_view name() const override { return kPairingRetryStorm; }

  void on_record(const RecordCtx& ctx) override {
    if (ctx.event == kConnectionComplete && ctx.params.size() >= 1 + 2 + 6) {
      const auto status = static_cast<hci::Status>(ctx.params[0]);
      const auto addr = addr_at(ctx.params, 3);
      if (!addr) return;
      if (status == hci::Status::kSuccess) {
        const auto handle =
            static_cast<hci::ConnectionHandle>(ctx.params[1] | (ctx.params[2] << 8));
        handle_to_addr_[handle] = *addr;
      } else {
        auto& s = stats_[*addr];
        ++s.attempts;  // a page that never reached authentication
        ++s.failures;
        maybe_fire(ctx, *addr, s);
      }
      return;
    }
    if (ctx.opcode == hci::op::kAuthenticationRequested && ctx.params.size() >= 2) {
      const auto handle =
          static_cast<hci::ConnectionHandle>(ctx.params[0] | (ctx.params[1] << 8));
      auto it = handle_to_addr_.find(handle);
      if (it == handle_to_addr_.end()) return;
      auto& s = stats_[it->second];
      ++s.attempts;
      maybe_fire(ctx, it->second, s);
      return;
    }
    if (ctx.event == kAuthenticationComplete && ctx.params.size() >= 3 &&
        ctx.params[0] != 0) {
      const auto handle =
          static_cast<hci::ConnectionHandle>(ctx.params[1] | (ctx.params[2] << 8));
      auto it = handle_to_addr_.find(handle);
      if (it == handle_to_addr_.end()) return;
      auto& s = stats_[it->second];
      ++s.failures;
      s.last_status = static_cast<hci::Status>(ctx.params[0]);
      maybe_fire(ctx, it->second, s);
      return;
    }
    if (ctx.event == kSimplePairingComplete && ctx.params.size() >= 1 + 6 &&
        ctx.params[0] != 0) {
      if (auto addr = addr_at(ctx.params, 1)) {
        auto& s = stats_[*addr];
        ++s.failures;
        s.last_status = static_cast<hci::Status>(ctx.params[0]);
        maybe_fire(ctx, *addr, s);
      }
      return;
    }
  }

  void finish(std::vector<Finding>& out) override {
    for (auto& f : pending_) out.push_back(std::move(f));
    pending_.clear();
    handle_to_addr_.clear();
    stats_.clear();
    fired_.clear();
  }

 private:
  struct PeerStats {
    std::size_t attempts = 0;
    std::size_t failures = 0;
    hci::Status last_status = hci::Status::kSuccess;
  };

  void maybe_fire(const RecordCtx& ctx, const BdAddr& addr, const PeerStats& s) {
    if (s.attempts < config_.storm_attempt_threshold ||
        s.failures < config_.storm_failure_threshold)
      return;
    if (!fired_.insert(addr).second) return;
    pending_.push_back(make_finding(
        kPairingRetryStorm, ctx, addr,
        strfmt("%zu pairing attempts with %zu failures toward %s (last: %s)",
               s.attempts, s.failures, addr.to_string().c_str(),
               to_string(s.last_status))));
  }

  DetectorConfig config_;
  std::map<hci::ConnectionHandle, BdAddr> handle_to_addr_;
  std::map<BdAddr, PeerStats> stats_;
  std::set<BdAddr> fired_;
  std::vector<Finding> pending_;
};

}  // namespace

RecordCtx RecordCtx::from_view(const hci::SnoopRecordView& view) {
  RecordCtx ctx{view, std::nullopt, std::nullopt, std::nullopt, {}};
  const BytesView wire = view.wire;
  if (wire.empty()) return ctx;
  switch (wire[0]) {
    case 0x01:
      ctx.type = hci::PacketType::kCommand;
      if (wire.size() >= 3)
        ctx.opcode = static_cast<std::uint16_t>(wire[1] | (wire[2] << 8));
      // Params follow the 1-byte length at wire[3]; a §VII-A-filtered record
      // ends there, leaving ctx.params empty.
      if (wire.size() > 4) ctx.params = wire.subspan(4);
      break;
    case 0x04:
      ctx.type = hci::PacketType::kEvent;
      if (wire.size() >= 2) ctx.event = wire[1];
      if (wire.size() > 3) ctx.params = wire.subspan(3);
      break;
    case 0x02:
      ctx.type = hci::PacketType::kAclData;
      if (wire.size() > 5) ctx.params = wire.subspan(5);
      break;
    case 0x03:
      ctx.type = hci::PacketType::kScoData;
      if (wire.size() > 4) ctx.params = wire.subspan(4);
      break;
    default:
      break;  // vendor packet type: leave everything unset
  }
  return ctx;
}

std::vector<std::unique_ptr<Detector>> make_default_detectors(const DetectorConfig& config) {
  std::vector<std::unique_ptr<Detector>> out;
  out.push_back(std::make_unique<PlaintextLinkKeyDetector>());
  out.push_back(std::make_unique<PageBlockingDetector>(config));
  out.push_back(std::make_unique<SspDowngradeDetector>());
  out.push_back(std::make_unique<PairingRetryStormDetector>(config));
  return out;
}

const std::vector<std::string>& default_detector_names() {
  static const std::vector<std::string> names = {
      std::string(kPlaintextLinkKey), std::string(kPageBlocking),
      std::string(kSspDowngrade), std::string(kPairingRetryStorm)};
  return names;
}

}  // namespace blap::analytics
