#include "snapshot/fuzz_trial.hpp"

#include <algorithm>

#include "hci/packets.hpp"

namespace blap::snapshot {
namespace {

/// Feature domains this layer emits (the fuzz engine's portable fallback
/// coverage). Kept clear of the codec harness's 0x10.. range.
constexpr std::uint8_t kDomOp = 0x30;        // (op kind << 8) | accepted
constexpr std::uint8_t kDomState = 0x31;     // per-op state-transition hash
constexpr std::uint8_t kDomOutcome = 0x32;   // end-of-trial classification
constexpr std::uint8_t kDomMetric = 0x33;    // Observer counter fingerprints

/// Injection op kinds, selected by the stream's leading byte of each op.
enum class OpKind : std::uint8_t {
  kEventToTarget = 0,     // HCI packet -> target host (controller→host dir)
  kCommandToTarget = 1,   // HCI packet -> target controller (host→controller)
  kAclToTarget = 2,       // HCI ACL data -> target controller
  kAirToTarget = 3,       // raw air frame accessory→target radio link
  kEventToAccessory = 4,  // HCI packet -> accessory host
  kCommandToAccessory = 5,
  kAirToAccessory = 6,    // raw air frame target→accessory radio link
  kAdvanceTime = 7,
  kKinds = 8,
};

/// Hash of the cross-layer state the stack is in, emitted after every op:
/// this is what makes the fallback map *guided* — an input that drives the
/// cell into a state no other input reached becomes a kept corpus entry.
std::uint64_t state_hash(core::Simulation& sim) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto fold = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ull;
  };
  fold(sim.medium().link_count());
  for (const auto& device : sim.devices()) {
    fold(device->host().acls().size());
    fold(device->controller().audit_links().size());
    fold(device->controller().quiescent() ? 1u : 0u);
    for (const auto& acl : device->host().acls()) {
      fold(acl.handle);
      fold((acl.authenticated ? 1u : 0u) | (acl.encrypted ? 2u : 0u) |
           (acl.degraded ? 4u : 0u));
    }
  }
  return h;
}

struct TrialContext {
  Scenario& s;
  const FuzzFeatureFn& feature;
  FuzzStackReport& report;

  void emit(std::uint8_t domain, std::uint64_t value) const {
    if (feature) feature(domain, value);
  }

  /// Advance virtual time under the event budget. Returns false once the
  /// budget is blown (report.runaway set; callers stop injecting).
  bool run(SimTime window) const {
    // Chunked so a storm is caught within ~kFuzzEventBudget dispatches, not
    // after an arbitrarily long window of them.
    constexpr SimTime kChunk = kSecond;
    while (window > 0 && !report.runaway) {
      const SimTime slice = window < kChunk ? window : kChunk;
      report.events += s.sim->scheduler().run_for(slice);
      window -= slice;
      if (report.events > kFuzzEventBudget) report.runaway = true;
    }
    return !report.runaway;
  }
};

void inject_ops(TrialContext& ctx, BytesView input) {
  ByteReader reader(input);
  core::Device* const target = ctx.s.target;
  core::Device* const accessory = ctx.s.accessory;

  while (ctx.report.ops_applied < kFuzzMaxOps && !ctx.report.runaway) {
    const auto selector = reader.u8();
    if (!selector) break;
    const auto kind = static_cast<OpKind>(*selector %
                                          static_cast<std::uint8_t>(OpKind::kKinds));
    ++ctx.report.ops_applied;
    bool accepted = false;

    switch (kind) {
      case OpKind::kEventToTarget:
      case OpKind::kCommandToTarget:
      case OpKind::kAclToTarget:
      case OpKind::kEventToAccessory:
      case OpKind::kCommandToAccessory: {
        // [len u8][payload...] — the HCI packet body, typed by the op.
        const auto len = reader.u8();
        if (!len) break;
        const auto body = reader.bytes(std::min<std::size_t>(*len, reader.remaining()));
        if (!body) break;
        hci::HciPacket packet;
        packet.payload = *body;
        core::Device* device = target;
        hci::Direction direction = hci::Direction::kControllerToHost;
        switch (kind) {
          case OpKind::kEventToTarget: packet.type = hci::PacketType::kEvent; break;
          case OpKind::kEventToAccessory:
            packet.type = hci::PacketType::kEvent;
            device = accessory;
            break;
          case OpKind::kCommandToTarget:
            packet.type = hci::PacketType::kCommand;
            direction = hci::Direction::kHostToController;
            break;
          case OpKind::kCommandToAccessory:
            packet.type = hci::PacketType::kCommand;
            direction = hci::Direction::kHostToController;
            device = accessory;
            break;
          case OpKind::kAclToTarget:
            packet.type = hci::PacketType::kAclData;
            direction = hci::Direction::kHostToController;
            break;
          default: break;
        }
        device->transport().send(direction, packet);
        accepted = true;
        break;
      }
      case OpKind::kAirToTarget:
      case OpKind::kAirToAccessory: {
        // [len u8][frame...] pushed onto the accessory–target baseband link,
        // as if the sender's controller emitted it. No-op (bytes still
        // consumed) once the link is torn down.
        const auto len = reader.u8();
        if (!len) break;
        const auto frame = reader.bytes(std::min<std::size_t>(*len, reader.remaining()));
        if (!frame) break;
        const auto link =
            ctx.s.sim->medium().link_between(accessory->address(), target->address());
        if (link.has_value()) {
          core::Device* sender =
              kind == OpKind::kAirToTarget ? accessory : target;
          ctx.s.sim->medium().send_frame(*link, &sender->controller(), *frame);
          accepted = true;
        }
        break;
      }
      case OpKind::kAdvanceTime: {
        // [ticks u8] x 50 ms: up to ~12.75 s of extra virtual time, enough
        // to cross LMP/accept/supervision timer edges mid-stream.
        const auto ticks = reader.u8();
        if (!ticks) break;
        if (!ctx.run(*ticks * (kSecond / 20))) return;
        accepted = true;
        break;
      }
      case OpKind::kKinds: break;
    }

    ctx.emit(kDomOp, (static_cast<std::uint64_t>(kind) << 8) | (accepted ? 1u : 0u));
    if (!ctx.run(kFuzzSettleWindow)) return;
    ctx.emit(kDomState, state_hash(*ctx.s.sim));
  }
}

FuzzStackReport run_trial_body(Scenario& s, std::uint64_t seed, BytesView input,
                               const FuzzFeatureFn& feature) {
  FuzzStackReport report;
  TrialContext ctx{s, feature, report};

  s.sim->reseed(seed);
  s.sim->set_fault_plan(recovery_fault_plan());

  invariants::InvariantMonitor::Config monitor_config;
  if (s.attacker != nullptr) monitor_config.exempt.push_back(s.attacker->address());
  invariants::InvariantMonitor monitor(*s.sim, monitor_config);
  monitor.install();
  // Sniffer attaches after any restore (kRewind truncates the sniffer
  // list); reset() forgives the virtual-clock rewind itself.
  monitor.attach_sniffer();
  monitor.reset();

  inject_ops(ctx, input);

  // Drain phase — mirror of the chaos trial: explicit disconnects, then a
  // full timeout window. A healthy stack always reaches zero links; a layer
  // wedged on injected garbage is exactly what the oracle is here to catch.
  if (!report.runaway) {
    for (const auto& device : s.sim->devices())
      for (const auto& acl : device->host().acls()) device->host().disconnect(acl.peer);
    ctx.run(kFuzzDrainWindow);
  }
  monitor.check_now();

  report.virtual_end = s.sim->now();
  report.violations = monitor.violations();

  bool drained = s.sim->medium().link_count() == 0;
  for (const auto& device : s.sim->devices()) {
    if (!device->host().acls().empty()) drained = false;
    if (!device->controller().audit_links().empty()) drained = false;
  }
  report.drained = drained;

  ctx.emit(kDomOutcome, (report.runaway ? 1u : 0u) | (drained ? 2u : 0u) |
                            (report.violations.empty() ? 4u : 0u));
  ctx.emit(kDomState, state_hash(*s.sim));
  if (obs::Observer* obs = s.sim->observer(); obs != nullptr && feature) {
    // Metric fingerprints: every (name, log2 count) pair is a feature, so
    // "this input made the retry counter jump an order of magnitude" is
    // novel behaviour even when the end state hash is familiar.
    const obs::MetricsSnapshot snap = obs->snapshot();
    for (const auto& [name, value] : snap.counters) {
      std::uint64_t h = 0xCBF29CE484222325ull;
      for (const char c : name) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001B3ull;
      }
      std::uint64_t bucket = 0;
      for (std::uint64_t v = value; v > 0; v >>= 1) ++bucket;
      ctx.emit(kDomMetric, h ^ bucket);
    }
  }
  return report;
}

}  // namespace

std::string FuzzStackReport::finding_kind() const {
  if (!restored) return "restore-failed";
  if (!violations.empty()) return "invariant-violation";
  if (runaway) return "runaway";
  if (!drained) return "stuck";
  return "";
}

std::string FuzzStackReport::finding_detail() const {
  if (!restored) return restore_error;
  if (!violations.empty())
    return violations.front().invariant + ": " + violations.front().detail;
  if (runaway)
    return "event budget exceeded (" + std::to_string(events) + " events)";
  if (!drained) return "links or ACLs survived the drain window";
  return "";
}

FuzzStackReport run_fuzz_stack_trial(Scenario& s, const Snapshot& warm,
                                     std::uint64_t seed, BytesView input,
                                     const FuzzFeatureFn& feature) {
  std::string why;
  if (!warm.restore(*s.sim, &why)) {
    FuzzStackReport report;
    report.restored = false;
    report.restore_error = why;
    // Not s.sim->now(): a refused restore leaves the clock of whatever trial
    // last used this worker, which would leak scheduling into the report.
    report.virtual_end = warm.captured_at();
    return report;
  }
  return run_trial_body(s, seed, input, feature);
}

FuzzStackReport run_fuzz_stack_trial_no_restore(Scenario& s, std::uint64_t seed,
                                                BytesView input,
                                                const FuzzFeatureFn& feature) {
  return run_trial_body(s, seed, input, feature);
}

campaign::TrialResult fuzz_stack_verdict(const FuzzStackReport& report) {
  campaign::TrialResult verdict;
  verdict.success = !report.finding();
  verdict.value = static_cast<double>(report.violations.size());
  verdict.virtual_end = report.virtual_end;
  return verdict;
}

ReplayBundle fuzz_stack_bundle(std::uint64_t seed, BytesView input,
                               const FuzzStackReport& report, const Snapshot& warm) {
  ReplayBundle bundle;
  bundle.scenario = bonded_cell_params();
  bundle.build_seed = seed;
  bundle.trial_seed = seed;
  bundle.trial_kind = kFuzzStackTrialKind;
  bundle.warm_setup = "bonded";
  bundle.fuzz_input = to_bytes(input);
  bundle.expect(fuzz_stack_verdict(report));
  bundle.snapshot = warm.bytes();
  return bundle;
}

}  // namespace blap::snapshot
