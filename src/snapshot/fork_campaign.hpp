// fork_campaign.hpp — Monte-Carlo campaigns that fork trials from a warm
// snapshot instead of rebuilding the topology per trial.
//
// Every trial of a campaign repeats identical setup work: three devices
// powered on, HCI bring-up drained, page-scan schedules installed — and,
// when a WarmSetupFn is given, an arbitrarily expensive deterministic
// prefix on top (e.g. a full SSP P-256 bonding). run_fork_campaign() does
// that work ONCE per campaign: build the scenario, run the warm-up, take a
// strict Snapshot of the warm point, then per trial restore +
// Simulation::reseed(trial_seed) and hand the trial function a simulation
// that is byte-for-byte the one the rebuild path would have produced.
// Aggregate outputs are therefore identical to the rebuild path — the CI
// diffs them — while the per-trial cost drops to a restore. (Plain topology
// build is already cheap — ~30 µs after the scheduler-pooling work — so
// the big wins come from warm-ups that share an expensive prefix;
// bench_snapshot_fork quantifies both.) Each worker restores onto its own
// scenario, built on its first trial and held by the per-worker TrialFn
// (campaign::TrialFactory), so it lives exactly as long as the worker.
//
// If the warm point turns out not to be quiescent (a scenario whose setup
// leaves events in flight), the runner falls back to per-trial rebuilds:
// same results, no speedup, reason reported via ForkStats.
//
// Record–replay: pass RecordOptions to dump a self-contained replay bundle
// (see replay.hpp) for every trial matching a predicate — by default the
// failures. Recording is a deterministic post-pass over the index-ordered
// results, so the set of bundles written is identical for any BLAP_JOBS.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "snapshot/page_blocking_trial.hpp"
#include "snapshot/scenarios.hpp"

namespace blap::snapshot {

/// The per-trial body. Called with a simulation already restored to the
/// warm point and reseeded with spec.seed; must not keep references to the
/// scenario across calls (the next trial reuses it).
using ForkTrialFn =
    std::function<campaign::TrialResult(const campaign::TrialSpec&, Scenario&)>;

/// Optional deterministic warm-up executed on the freshly built scenario
/// before the warm snapshot is captured — e.g. bonding two devices so every
/// trial forks from an established-bond state instead of re-running SSP.
/// The warm-up may consume randomness: it always runs under the build seed
/// (config.root_seed), and the per-trial reseed erases its draws, so the
/// rebuild equivalence the CI diffs becomes
///   build(root_seed) + warm_setup + reseed(trial_seed) + body.
using WarmSetupFn = std::function<void(Scenario&)>;

struct RecordOptions {
  /// Destination directory (created if missing). Empty disables recording.
  std::string dir;
  /// Which trials to record. Null records the failures.
  std::function<bool(const campaign::TrialResult&)> predicate;
  /// Cap on bundles written per campaign (first matches in index order).
  std::size_t limit = 8;
};

struct ForkStats {
  /// False when the runner fell back to per-trial rebuilds.
  bool fork_used = false;
  std::string fallback_reason;
  /// Bundles written by the recording post-pass, in trial-index order.
  std::vector<std::string> bundle_paths;
};

/// Run `config.trials` trials of `trial` over the scenario described by
/// `scenario`, forking each from a warm snapshot. Drop-in aggregate-
/// compatible with campaign::run_campaign over per-trial
/// build_scenario(spec.seed, scenario). `record` names its bundles by the
/// trial, so it takes a PageBlockingTrial body (any other throws
/// std::invalid_argument): each bundle stores trial.kind() and
/// trial.fault_plan(seed).
campaign::CampaignSummary run_fork_campaign(const campaign::CampaignConfig& config,
                                            const ScenarioParams& scenario,
                                            const ForkTrialFn& trial,
                                            const RecordOptions* record = nullptr,
                                            ForkStats* stats = nullptr,
                                            const WarmSetupFn& warm_setup = {});

}  // namespace blap::snapshot
