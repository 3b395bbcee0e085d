#include "snapshot/chaos_trial.hpp"

namespace blap::snapshot {

const char* to_string(ChaosOutcome outcome) {
  switch (outcome) {
    case ChaosOutcome::kCompleted: return "completed";
    case ChaosOutcome::kRecovered: return "recovered";
    case ChaosOutcome::kCleanError: return "clean-error";
    case ChaosOutcome::kStuck: return "stuck";
    case ChaosOutcome::kViolation: return "violation";
  }
  return "?";
}

ScenarioParams bonded_cell_params() {
  ScenarioParams params;
  params.kind = ScenarioParams::Kind::kExtraction;
  params.profile_index = 5;
  return params;
}

void bonded_warm_setup(Scenario& s) {
  // Same warm-up the snapshot-fork bench uses for its bonded cell: full SSP
  // Numeric Comparison (P-256 ECDH) then drain to strict-quiescent idle.
  s.accessory->host().pair(s.target->address(), [](hci::Status) {});
  s.sim->run_for(30 * kSecond);
  s.sim->run_until_idle();
}

WarmSetupFnPtr resolve_warm_setup(const std::string& name) {
  if (name == "bonded") return &bonded_warm_setup;
  return nullptr;
}

/// A fault plan that is enabled() — supervision timers, ARQ reports and
/// host fault recovery all arm — but never touches a frame: one zero-length
/// jam window, which can never match (judge tests now < end) and, being a
/// jam, draws no randomness. Injected chaos faults then have every genuine
/// timeout/retry path available to recover through, at zero behavioural
/// cost on the fault-free path.
faults::FaultPlan recovery_fault_plan() {
  faults::FaultPlan plan;
  plan.jam_windows.push_back(faults::JamWindow{0, 0});
  return plan;
}

ChaosTrialReport run_chaos_trial(Scenario& s, const Snapshot& warm, std::uint64_t seed,
                                 chaos::ChaosPlan& plan) {
  ChaosTrialReport report;
  plan.reset_counts();
  // Arm before restoring: the snapshot.load.* failpoints sit inside the
  // restore path and are part of the explored surface.
  chaos::ScopedChaosPlan armed(plan);

  const auto finish_counts = [&] {
    report.fired = plan.fired();
    report.total_hits = plan.total_hits();
    report.hits = plan.hits();
  };

  std::string why;
  if (!warm.restore(*s.sim, &why)) {
    // The typed-error path: a load failpoint (or genuine corruption) was
    // refused. snapshot.load.truncated fires mid-commit, so the simulation
    // may be half-restored — the caller must rebuild before reusing it.
    report.outcome = ChaosOutcome::kCleanError;
    // Not s.sim->now(): that is the clock of whatever trial last used this
    // worker scenario, so it would depend on worker count and scheduling.
    report.virtual_end = warm.captured_at();
    finish_counts();
    return report;
  }
  s.sim->reseed(seed);
  s.sim->set_fault_plan(recovery_fault_plan());

  invariants::InvariantMonitor::Config monitor_config;
  if (s.attacker != nullptr) monitor_config.exempt.push_back(s.attacker->address());
  invariants::InvariantMonitor monitor(*s.sim, monitor_config);
  monitor.install();
  // kRewind restore truncates the medium's sniffer list, so the sniffer
  // must attach after the restore above (and a fresh monitor per trial
  // keeps violation attribution unambiguous).
  monitor.attach_sniffer();
  monitor.reset();

  // Probe phase: the paper's link-key validation probe — open PAN over the
  // stored bond (authentication reuses the link key, no ECDH) — followed by
  // the §III sensitive-data stages (PBAP pull, L2CAP echo keep-alive). The
  // extra profile traffic is deliberate: it widens the explorable surface
  // (every ACL round trip is another ordinal at the frame/ARQ/supervision
  // sites) and exercises recovery on an already-degraded cell.
  bool validated = false;
  s.accessory->host().connect_pan(s.target->address(),
                                  [&validated](bool ok) { validated = ok; });
  s.sim->run_for(kChaosBodyWindow / 3);
  s.accessory->host().pull_phonebook(s.target->address(), [](auto) {});
  s.sim->run_for(kChaosBodyWindow / 3);
  s.accessory->host().send_echo(s.target->address(), [] {});
  s.sim->run_for(kChaosBodyWindow - 2 * (kChaosBodyWindow / 3));

  // Drain phase: PAN keep-alive timers re-arm forever, so the cell never
  // goes scheduler-idle on its own. Tear every remaining ACL down
  // explicitly, then give all timeout paths (supervision, watchdogs,
  // retries) a full window to run dry.
  for (const auto& device : s.sim->devices())
    for (const auto& acl : device->host().acls()) device->host().disconnect(acl.peer);
  s.sim->run_for(kChaosDrainWindow);
  monitor.check_now();

  report.body_success = validated;
  report.virtual_end = s.sim->now();
  report.violations = monitor.violations();
  finish_counts();

  bool drained = s.sim->medium().link_count() == 0;
  for (const auto& device : s.sim->devices()) {
    if (!device->host().acls().empty()) drained = false;
    if (!device->controller().audit_links().empty()) drained = false;
  }

  if (!report.violations.empty())
    report.outcome = ChaosOutcome::kViolation;
  else if (!drained)
    report.outcome = ChaosOutcome::kStuck;
  else
    report.outcome = validated ? ChaosOutcome::kCompleted : ChaosOutcome::kRecovered;
  return report;
}

campaign::TrialResult chaos_verdict(ChaosOutcome outcome, SimTime virtual_end) {
  campaign::TrialResult verdict;
  verdict.success = outcome == ChaosOutcome::kCompleted ||
                    outcome == ChaosOutcome::kRecovered ||
                    outcome == ChaosOutcome::kCleanError;
  verdict.value = static_cast<double>(static_cast<int>(outcome));
  verdict.virtual_end = virtual_end;
  return verdict;
}

ReplayBundle chaos_bundle(const ScenarioParams& scenario, std::uint64_t seed,
                          std::size_t index, const std::vector<chaos::FaultSite>& faults,
                          ChaosOutcome outcome, SimTime virtual_end, const Snapshot& warm) {
  ReplayBundle bundle;
  bundle.scenario = scenario;
  bundle.build_seed = seed;
  bundle.trial_index = index;
  bundle.trial_seed = seed;
  bundle.trial_kind = kChaosTrialKind;
  bundle.chaos_faults = chaos::encode_fault_sites(faults);
  bundle.warm_setup = "bonded";
  bundle.expect(chaos_verdict(outcome, virtual_end));
  bundle.snapshot = warm.bytes();
  return bundle;
}

}  // namespace blap::snapshot
