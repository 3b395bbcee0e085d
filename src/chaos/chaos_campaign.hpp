// chaos_campaign.hpp — systematic failpoint exploration.
//
// The sweep answers, for every failpoint instance the bonded-cell scenario
// can reach: "if exactly this fault fires, does the stack recover through a
// genuine timeout path without violating a cross-layer invariant?" Three
// phases, all deterministic:
//
//   1. BASELINE. One recorder-mode trial (count every failpoint passage,
//      fire nothing) forked from the bonded warm snapshot. Its per-site hit
//      counts define the explorable surface.
//   2. ENUMERATE. Every (site, ordinal) with ordinal < min(hits,
//      ordinal_cap) becomes one single-fault trial; optional pair mode adds
//      a bounded, seed-derived sample of two-fault combinations across
//      different sites.
//   3. EXPLORE. Each trial re-runs the identical scenario — same warm
//      snapshot, same reseed — with only the armed fault different, across
//      parallel_indexed() workers. A single-fault trial is byte-identical to
//      the baseline up to its armed ordinal, so the fault is guaranteed to
//      fire (pairs guarantee only their first fault). Outcomes and the
//      report are pure functions of the config: byte-identical for any
//      BLAP_JOBS, because trials land in a pre-sized vector at their own
//      index and every aggregate walks that vector in order.
//
// Violation/stuck trials are auto-recorded as .blapreplay bundles
// (trial_kind "chaos_bonded_cell", `chaos:` fault list, `warm: bonded`)
// through the same failure-record path the fork campaigns use, so a finding
// replays under blap-replay exactly like any other pinned failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/failpoint.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/scenarios.hpp"

namespace blap::campaign {

struct ChaosCampaignConfig {
  snapshot::ScenarioParams scenario = snapshot::bonded_cell_params();
  /// Build seed AND the (single, shared) reseed of every trial: the armed
  /// fault must be the only difference between a trial and the baseline.
  std::uint64_t seed = 10'000;
  /// Per-site cap on explored ordinals; sites hit more often than this
  /// (e.g. per-frame delivery reports) are sampled from the front.
  std::uint64_t ordinal_cap = 24;
  /// Also explore two-fault combinations (bounded by pair_cap).
  bool pairs = false;
  std::size_t pair_cap = 48;
  /// 0 = resolve_jobs() (BLAP_JOBS env, else hardware_concurrency).
  unsigned jobs = 0;
  /// Directory for auto-recorded violation/stuck bundles; empty = off.
  std::string record_dir;
  std::size_t record_limit = 8;
};

/// One explored instance, index-ordered (singles first, then pairs).
struct ChaosTrialRecord {
  std::vector<chaos::FaultSite> faults;
  snapshot::ChaosOutcome outcome = snapshot::ChaosOutcome::kCompleted;
  bool body_success = false;
  std::uint64_t fired = 0;
  SimTime virtual_end = 0;
  std::vector<invariants::Violation> violations;
};

struct ChaosCampaignReport {
  /// False only when the bonded warm point failed strict capture; then
  /// nothing was explored and fallback_reason says why.
  bool explored = false;
  std::string fallback_reason;

  snapshot::ChaosTrialReport baseline;
  std::size_t sites = 0;        ///< distinct failpoint sites the baseline reached
  std::size_t singles = 0;      ///< single-fault instances explored
  std::size_t pair_trials = 0;  ///< two-fault combinations explored

  std::vector<ChaosTrialRecord> trials;

  // Outcome tally over `trials`.
  std::size_t completed = 0;
  std::size_t recovered = 0;
  std::size_t clean_errors = 0;
  std::size_t stuck = 0;
  std::size_t violations = 0;

  std::vector<std::string> bundle_paths;

  /// Deterministic report JSON: a pure function of the config (identical
  /// for any BLAP_JOBS — the CI chaos job diffs exactly this).
  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] ChaosCampaignReport run_chaos_campaign(const ChaosCampaignConfig& config);

}  // namespace blap::campaign
