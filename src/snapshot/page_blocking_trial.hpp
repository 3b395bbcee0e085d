// page_blocking_trial.hpp — the one Table II trial body.
//
// Every page-blocking campaign (bench_table2_page_blocking, bench_fault_sweep,
// campaign_sweep, make_corpus, bench_snapshot_fork's Table II cells) and the
// replay of every page_blocking_* bundle run this trial, so a recorded
// bundle names exactly what its campaign ran: kind() and fault_plan() are
// what run_fork_campaign's recorder stores, and from_kind() plus the stored
// plan are what replay_bundle runs again.
//
// The value holds what the trials differ in — the attack or the baseline
// page race, metrics on or off, and the channel loss each trial runs under.
// run() is the body: observability first (so its counters cover the same
// window on every path), then the fault plan, then the attack or the race.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "campaign/campaign.hpp"
#include "faults/fault_plan.hpp"
#include "snapshot/scenarios.hpp"

namespace blap::snapshot {

struct PageBlockingTrial {
  /// The page-blocking attack (PLOC first); false runs the baseline race.
  bool attack = false;
  /// Fill TrialResult::metrics with the trial's metrics snapshot.
  bool metrics = false;
  /// iid channel loss each trial runs under, its plan seeded with the trial
  /// seed. Unset installs no plan; 0 installs the disabled one.
  std::optional<double> loss = std::nullopt;

  /// The replay kind a bundle records: "page_blocking_baseline",
  /// "page_blocking_attack", each with a "_metrics" suffix when metrics is on.
  [[nodiscard]] std::string_view kind() const;
  /// The trial a kind() names (loss unset); nullopt for any other name.
  [[nodiscard]] static std::optional<PageBlockingTrial> from_kind(std::string_view kind);

  /// The fault plan the trial with seed `seed` installs.
  [[nodiscard]] std::optional<faults::FaultPlan> fault_plan(std::uint64_t seed) const;

  /// The body, on `s` already built or restored and reseeded: install
  /// `plan`, run, and report success and the final virtual clock (plus the
  /// metrics when on). A non-null `trace_json` also turns tracing on and
  /// receives the Chrome trace; tracing only observes, so the verdict and
  /// the metrics are the same either way.
  [[nodiscard]] campaign::TrialResult run(Scenario& s,
                                          const std::optional<faults::FaultPlan>& plan,
                                          std::string* trace_json = nullptr) const;

  /// A ForkTrialFn (or rebuild-path body): run(s, fault_plan(spec.seed)).
  campaign::TrialResult operator()(const campaign::TrialSpec& spec, Scenario& s) const {
    return run(s, fault_plan(spec.seed));
  }
};

}  // namespace blap::snapshot
