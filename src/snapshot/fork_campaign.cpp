#include "snapshot/fork_campaign.hpp"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "snapshot/replay.hpp"
#include "snapshot/snapshot.hpp"

namespace blap::snapshot {
namespace {

/// Deterministic post-pass: walk the index-ordered results and write a
/// bundle for the first `limit` matches. Identical output for any worker
/// count, because nothing here depends on execution order.
void record_bundles(const campaign::CampaignConfig& config,
                    const ScenarioParams& scenario_params, const Snapshot& warm,
                    const campaign::CampaignSummary& summary, const PageBlockingTrial& trial,
                    const RecordOptions& record, ForkStats* stats) {
  std::error_code ec;
  std::filesystem::create_directories(record.dir, ec);
  if (ec) return;

  std::size_t recorded = 0;
  for (const campaign::TrialResult& r : summary.results) {
    if (recorded >= record.limit) break;
    const bool matches = record.predicate ? record.predicate(r) : !r.success;
    if (!matches) continue;

    ReplayBundle bundle;
    bundle.scenario = scenario_params;
    bundle.build_seed = config.root_seed;
    bundle.trial_index = r.index;
    bundle.trial_seed = r.seed;
    bundle.trial_kind = trial.kind();
    bundle.fault_plan = trial.fault_plan(r.seed);
    bundle.expect(r);
    bundle.snapshot = warm.bytes();

    char name[64];
    std::snprintf(name, sizeof name, "trial-%06zu.blapreplay", r.index);
    const std::string path = record.dir + "/" + name;
    if (bundle.save_file(path)) {
      if (stats != nullptr) stats->bundle_paths.push_back(path);
      ++recorded;
    }
  }
}

}  // namespace

campaign::CampaignSummary run_fork_campaign(const campaign::CampaignConfig& config,
                                            const ScenarioParams& scenario,
                                            const ForkTrialFn& trial,
                                            const RecordOptions* record,
                                            ForkStats* stats,
                                            const WarmSetupFn& warm_setup) {
  const PageBlockingTrial* named = trial.target<PageBlockingTrial>();
  const bool recording = record != nullptr && !record->dir.empty();
  if (recording && named == nullptr)
    throw std::invalid_argument("run_fork_campaign: only a PageBlockingTrial can be recorded");

  // The rebuild path a forked trial must be byte-equivalent to. Without a
  // warm-up, build_scenario(spec.seed) directly (setup draws no randomness,
  // so build(seed) == build(root) + reseed(seed)); with one, the warm-up's
  // draws must be erased the same way the fork path erases them.
  const auto rebuild_trial = [&](const campaign::TrialSpec& spec) {
    if (!warm_setup) {
      Scenario s = build_scenario(spec.seed, scenario);
      return trial(spec, s);
    }
    Scenario s = build_scenario(config.root_seed, scenario);
    warm_setup(s);
    s.sim->reseed(spec.seed);
    return trial(spec, s);
  };

  // Canonical warm snapshot, captured once on the calling thread. It is
  // what every worker forks from AND what recorded bundles embed — so the
  // bundles are identical for any worker count.
  Scenario probe = build_scenario(config.root_seed, scenario);
  if (warm_setup) warm_setup(probe);
  std::string why;
  const auto warm = Snapshot::capture(*probe.sim, &why);

  if (!warm.has_value()) {
    // The warm point is not quiescent for this scenario: fall back to the
    // rebuild path. Same trials, same seeds, same aggregates — no speedup.
    if (stats != nullptr) {
      stats->fork_used = false;
      stats->fallback_reason = why;
    }
    return campaign::run_campaign(config, rebuild_trial);
  }

  if (stats != nullptr) stats->fork_used = true;
  campaign::CampaignSummary summary = campaign::run_campaign(config, [&] {
    // This worker's scenario, built on its first trial and reused after
    // (shared_ptr only because a TrialFn must be copyable). A virgin
    // topology build is enough even under a warm-up: restore() applies the
    // complete post-warm-up serialized state onto it.
    auto s = std::make_shared<Scenario>();
    return [&, s](const campaign::TrialSpec& spec) {
      if (s->sim == nullptr) *s = build_scenario(config.root_seed, scenario);
      if (!warm->restore(*s->sim)) {
        // Cannot happen for a scenario the probe just captured; stay correct
        // anyway by giving this trial a fresh rebuild-path run.
        return rebuild_trial(spec);
      }
      s->sim->reseed(spec.seed);
      return trial(spec, *s);
    };
  });

  if (recording) record_bundles(config, scenario, *warm, summary, *named, *record, stats);
  return summary;
}

}  // namespace blap::snapshot
