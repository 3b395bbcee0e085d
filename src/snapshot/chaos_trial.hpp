// chaos_trial.hpp — the bonded-cell chaos trial body.
//
// One chaos trial answers a single question: with exactly these faults
// armed, does the stack either finish its work or tear itself down through
// a genuine timeout path — without ever violating a cross-layer invariant?
// The body is shared between the exploration driver
// (src/chaos/chaos_campaign.hpp) and bundle replay (replay.cpp's
// "chaos_bonded_cell" trial kind) so a violation found by the sweep replays
// through the exact code that found it.
//
// The trial forks from a bonded warm snapshot (accessory already paired to
// target — see bonded_warm_setup), arms the chaos plan BEFORE restoring so
// the snapshot-load failpoints are themselves explorable, installs a
// recovery-enabling fault plan plus the invariant monitor, runs the
// paper's link-key validation probe (PAN connect) and then drains the cell
// through explicit disconnects. Outcome classification:
//
//   kCompleted  — probe validated, cell drained clean, no violations.
//   kRecovered  — probe failed (the fault genuinely cost the connection)
//                 but every layer tore down clean; this is the *expected*
//                 result for most injected faults.
//   kCleanError — the fault fired before the trial body could start
//                 (snapshot restore refused with a typed error). The
//                 simulation may be half-restored; rebuild before reuse.
//   kStuck      — a link or ACL survived the drain window: some layer is
//                 waiting on a notification that never comes and has no
//                 timeout covering it. Always a finding.
//   kViolation  — the invariant monitor recorded at least one violation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/failpoint.hpp"
#include "invariants/monitor.hpp"
#include "snapshot/replay.hpp"
#include "snapshot/scenarios.hpp"
#include "snapshot/snapshot.hpp"

namespace blap::snapshot {

enum class ChaosOutcome : std::uint8_t {
  kCompleted = 0,
  kRecovered = 1,
  kCleanError = 2,
  kStuck = 3,
  kViolation = 4,
};

[[nodiscard]] const char* to_string(ChaosOutcome outcome);

struct ChaosTrialReport {
  ChaosOutcome outcome = ChaosOutcome::kCompleted;
  /// The PAN validation probe delivered its callback with success.
  bool body_success = false;
  /// Faults the plan actually fired (0 when an armed ordinal was never
  /// reached — possible for the second fault of a pair).
  std::uint64_t fired = 0;
  /// Every failpoint passage, fired or not.
  std::uint64_t total_hits = 0;
  /// Per-site passage counts; the recorder baseline reads its instance
  /// list out of this map.
  std::map<std::string, std::uint64_t> hits;
  SimTime virtual_end = 0;
  std::vector<invariants::Violation> violations;
};

/// Virtual window for the probe phase. Longer than the monitor's 120 s
/// link-table-agreement grace so any skew the fault opened during the
/// probe is adjudicated within the trial.
inline constexpr SimTime kChaosBodyWindow = 150 * kSecond;
/// Virtual window for the drain phase: covers supervision timeouts, host
/// watchdogs and pairing retries with room to spare, plus the same grace
/// argument as the body window.
inline constexpr SimTime kChaosDrainWindow = 150 * kSecond;

/// The bonded-cell scenario the chaos sweep explores (extraction topology,
/// Table II victim row 5 — same cell bench_snapshot_fork gates on).
[[nodiscard]] ScenarioParams bonded_cell_params();

/// Named warm setup "bonded": accessory pairs with target (full SSP
/// Numeric Comparison), then the stack drains to strict-quiescent bonded
/// idle. Deterministic under the build seed.
void bonded_warm_setup(Scenario& s);

/// Warm-setup registry for replay bundles (the `warm:` manifest key).
/// Returns nullptr for unknown names. Known: "bonded".
using WarmSetupFnPtr = void (*)(Scenario&);
[[nodiscard]] WarmSetupFnPtr resolve_warm_setup(const std::string& name);

/// The recovery-enabling fault plan both the chaos and fuzz trial bodies
/// install: enabled() (supervision timers, ARQ reports and host fault
/// recovery all arm) but behaviourally inert — one zero-length jam window,
/// which can never match and draws no randomness.
[[nodiscard]] faults::FaultPlan recovery_fault_plan();

/// Run one chaos trial: arm `plan`, restore `warm` onto `s` (same topology
/// it was captured from), reseed with `seed`, run probe + drain, classify.
/// The plan's counters are reset on entry; its hits land in the report.
[[nodiscard]] ChaosTrialReport run_chaos_trial(Scenario& s, const Snapshot& warm,
                                               std::uint64_t seed, chaos::ChaosPlan& plan);

/// The replay kind of a chaos trial on the bonded cell.
inline constexpr std::string_view kChaosTrialKind = "chaos_bonded_cell";

/// A chaos trial's verdict, as its bundle records it and replay compares it:
/// success when the stack held (completed, recovered or a clean error),
/// value = the outcome code, and the final virtual clock.
[[nodiscard]] campaign::TrialResult chaos_verdict(ChaosOutcome outcome, SimTime virtual_end);

/// The bundle of the chaos trial `index` that armed `faults` on `scenario`
/// under `seed`, forked from the "bonded" warm snapshot `warm`.
[[nodiscard]] ReplayBundle chaos_bundle(const ScenarioParams& scenario, std::uint64_t seed,
                                        std::size_t index,
                                        const std::vector<chaos::FaultSite>& faults,
                                        ChaosOutcome outcome, SimTime virtual_end,
                                        const Snapshot& warm);

}  // namespace blap::snapshot
