// fuzz_trial.hpp — the snapshot-forked stack fuzzing trial body.
//
// One fuzz_stack execution = one fork of the warm bonded cell (the same
// snapshot the chaos sweep and the fork bench use), one mutated op stream
// injected into the live controller+host state machines, one oracle pass.
// The input byte-string is decoded as a bounded sequence of injection ops —
// raw HCI packets pushed through a device's HciTransport in either
// direction, raw LMP/ACL air frames pushed onto the accessory–target radio
// link, and virtual-time advances — so a mutated corpus entry is a
// deterministic little attack script against the bonded stack.
//
// The oracle is layered exactly like the chaos trial's (DESIGN §14):
//
//   * the PR-9 InvariantMonitor audits every scheduler dispatch and runs a
//     final check_now() — any violation is a finding;
//   * after the op stream, the cell must DRAIN: explicit disconnects plus a
//     full timeout window must leave zero radio links, zero host ACLs and
//     zero controller links. A survivor means some layer wedged on injected
//     garbage — a "stuck" finding;
//   * the whole trial runs under an event budget — a scheduler storm
//     (self-rearming event loop) blows the budget and is a "runaway"
//     finding rather than a hang.
//
// The body is shared by the fuzz engine's stack target and by replay.cpp's
// "fuzz_stack" bundle kind, so a pinned finding replays through the exact
// code that found it. The feature callback keeps this layer free of any
// dependency on the fuzz engine: the target adapts it onto its FeatureSink.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "invariants/monitor.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/replay.hpp"
#include "snapshot/scenarios.hpp"
#include "snapshot/snapshot.hpp"

namespace blap::snapshot {

/// Most ops one input may decode to; surplus bytes are ignored. Bounds the
/// per-execution cost so throughput stays fuzzing-grade.
inline constexpr std::size_t kFuzzMaxOps = 24;

/// Scheduler events one execution may dispatch before it is declared a
/// runaway. Normal executions run a few thousand events; a storm hits this
/// within one settle window.
inline constexpr std::uint64_t kFuzzEventBudget = 200'000;

/// Virtual settle window after each injection op.
inline constexpr SimTime kFuzzSettleWindow = kSecond / 20;

/// Drain window after the op stream: longer than the monitor's 120 s
/// link-table-agreement grace (same argument as kChaosDrainWindow), so any
/// cross-layer skew the injection opened is adjudicated inside the trial.
inline constexpr SimTime kFuzzDrainWindow = 150 * kSecond;

struct FuzzStackReport {
  /// False only when the warm snapshot failed to restore (harness error,
  /// counted as a finding so it can never pass silently).
  bool restored = true;
  std::string restore_error;
  std::size_t ops_applied = 0;
  std::uint64_t events = 0;
  bool runaway = false;
  bool drained = true;
  SimTime virtual_end = 0;
  std::vector<invariants::Violation> violations;

  [[nodiscard]] bool finding() const {
    return !restored || runaway || !drained || !violations.empty();
  }
  /// Stable finding class for minimisation and reporting: "restore-failed",
  /// "invariant-violation", "runaway", "stuck", or "" when clean.
  [[nodiscard]] std::string finding_kind() const;
  [[nodiscard]] std::string finding_detail() const;
};

/// Optional per-op/state feature callback (domain, value); see
/// fuzz/coverage.hpp for how the engine folds these into its map.
using FuzzFeatureFn = std::function<void(std::uint8_t, std::uint64_t)>;

/// Run one stack-fuzz trial on `s` (the bonded_cell_params() topology):
/// restore `warm`, reseed with `seed`, decode and inject `input`, drain,
/// classify. Deterministic in (warm, seed, input).
[[nodiscard]] FuzzStackReport run_fuzz_stack_trial(Scenario& s, const Snapshot& warm,
                                                   std::uint64_t seed, BytesView input,
                                                   const FuzzFeatureFn& feature = nullptr);

/// Trial variant for the rebuild-per-iteration throughput baseline: `s` is
/// assumed freshly built + warmed (bonded_warm_setup) already; no snapshot
/// restore happens. Same injection, oracle and classification.
[[nodiscard]] FuzzStackReport run_fuzz_stack_trial_no_restore(
    Scenario& s, std::uint64_t seed, BytesView input,
    const FuzzFeatureFn& feature = nullptr);

/// The replay kind of a stack fuzz trial.
inline constexpr std::string_view kFuzzStackTrialKind = "fuzz_stack";

/// A stack fuzz trial's verdict, as its bundle records it and replay
/// compares it: success when there is no finding, value = the violation
/// count, and the final virtual clock.
[[nodiscard]] campaign::TrialResult fuzz_stack_verdict(const FuzzStackReport& report);

/// The bundle of the stack fuzz trial that ran `input` under `seed` on the
/// bonded cell forked from the "bonded" warm snapshot `warm`.
[[nodiscard]] ReplayBundle fuzz_stack_bundle(std::uint64_t seed, BytesView input,
                                             const FuzzStackReport& report,
                                             const Snapshot& warm);

}  // namespace blap::snapshot
