#include "chaos/chaos_campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>

#include "campaign/campaign.hpp"
#include "obs/obs.hpp"
#include "snapshot/replay.hpp"
#include "snapshot/snapshot.hpp"

namespace blap::campaign {

ChaosCampaignReport run_chaos_campaign(const ChaosCampaignConfig& config) {
  ChaosCampaignReport report;

  // Canonical bonded warm snapshot, captured once on the calling thread:
  // what the baseline and every trial fork from, and what recorded bundles
  // embed — identical for any worker count.
  snapshot::Scenario probe = snapshot::build_scenario(config.seed, config.scenario);
  snapshot::bonded_warm_setup(probe);
  std::string why;
  const auto warm = snapshot::Snapshot::capture(*probe.sim, &why);
  if (!warm.has_value()) {
    report.fallback_reason = why;
    return report;
  }
  report.explored = true;

  // Phase 1: recorder baseline. Runs the full trial body with every
  // failpoint counting and none firing — the hit map IS the explorable
  // surface, and the baseline also proves the fault-free trial drains clean.
  auto recorder = chaos::ChaosPlan::recorder();
  report.baseline = snapshot::run_chaos_trial(probe, *warm, config.seed, recorder);

  // Phase 2: enumerate instances. Site-name order (the hit map is ordered),
  // ordinals from the front.
  report.sites = report.baseline.hits.size();
  std::vector<std::vector<chaos::FaultSite>> armed;
  for (const auto& [site, count] : report.baseline.hits) {
    const std::uint64_t cap = std::min<std::uint64_t>(count, config.ordinal_cap);
    for (std::uint64_t ordinal = 0; ordinal < cap; ++ordinal)
      armed.push_back({chaos::FaultSite{site, ordinal}});
  }
  report.singles = armed.size();

  if (config.pairs && report.singles >= 2) {
    // Bounded two-fault sample: seed-derived index pairs across *different*
    // sites, deduplicated, in draw order. Pure function of (seed, surface).
    std::uint64_t state = config.seed ^ 0x9E3779B97F4A7C15ULL;
    std::set<std::pair<std::size_t, std::size_t>> seen;
    std::size_t drawn = 0;
    for (std::size_t attempt = 0; drawn < config.pair_cap && attempt < config.pair_cap * 16;
         ++attempt) {
      const std::size_t i = static_cast<std::size_t>(splitmix64(state) % report.singles);
      const std::size_t j = static_cast<std::size_t>(splitmix64(state) % report.singles);
      if (i == j || armed[i][0].site == armed[j][0].site) continue;
      const auto key = std::minmax(i, j);
      if (!seen.insert(key).second) continue;
      armed.push_back({armed[key.first][0], armed[key.second][0]});
      ++drawn;
    }
    report.pair_trials = drawn;
  }

  // Phase 3: explore. All trials share the campaign seed — the armed fault
  // is the only degree of freedom — and write their record at their own
  // index, so the report is BLAP_JOBS-independent.
  std::vector<ChaosTrialRecord> records(armed.size());
  parallel_indexed(armed.size(), config.jobs, [&] {
    // This worker's scenario, built on its first trial and reused after.
    return [&, s = snapshot::Scenario{}](std::size_t i) mutable {
      if (s.sim == nullptr) s = snapshot::build_scenario(config.seed, config.scenario);
      auto plan = chaos::ChaosPlan::inject(armed[i]);
      auto trial = snapshot::run_chaos_trial(s, *warm, config.seed, plan);
      // A refused restore (the snapshot.load.* failpoints) can leave the
      // simulation half-restored: rebuild before this worker's next trial.
      if (trial.outcome == snapshot::ChaosOutcome::kCleanError) s = {};

      ChaosTrialRecord& rec = records[i];
      rec.faults = armed[i];
      rec.outcome = trial.outcome;
      rec.body_success = trial.body_success;
      rec.fired = trial.fired;
      rec.virtual_end = trial.virtual_end;
      rec.violations = std::move(trial.violations);
    };
  });

  for (const ChaosTrialRecord& rec : records) {
    switch (rec.outcome) {
      case snapshot::ChaosOutcome::kCompleted: ++report.completed; break;
      case snapshot::ChaosOutcome::kRecovered: ++report.recovered; break;
      case snapshot::ChaosOutcome::kCleanError: ++report.clean_errors; break;
      case snapshot::ChaosOutcome::kStuck: ++report.stuck; break;
      case snapshot::ChaosOutcome::kViolation: ++report.violations; break;
    }
  }

  // Deterministic post-pass: pin the first record_limit findings as replay
  // bundles, walking the index-ordered records.
  if (!config.record_dir.empty() && (report.violations > 0 || report.stuck > 0)) {
    std::error_code ec;
    std::filesystem::create_directories(config.record_dir, ec);
    if (!ec) {
      std::size_t recorded = 0;
      for (std::size_t i = 0; i < records.size() && recorded < config.record_limit; ++i) {
        const ChaosTrialRecord& rec = records[i];
        if (rec.outcome != snapshot::ChaosOutcome::kViolation &&
            rec.outcome != snapshot::ChaosOutcome::kStuck)
          continue;
        const snapshot::ReplayBundle bundle = snapshot::chaos_bundle(
            config.scenario, config.seed, i, rec.faults, rec.outcome, rec.virtual_end, *warm);
        char name[64];
        std::snprintf(name, sizeof name, "chaos-%06zu.blapreplay", i);
        const std::string path = config.record_dir + "/" + name;
        if (bundle.save_file(path)) {
          report.bundle_paths.push_back(path);
          ++recorded;
        }
      }
    }
  }

  report.trials = std::move(records);
  return report;
}

std::string ChaosCampaignReport::to_json() const {
  std::string out = "{\n";
  out += "  \"explored\": " + std::string(explored ? "true" : "false") + ",\n";
  out += "  \"sites\": " + std::to_string(sites) + ",\n";
  out += "  \"singles\": " + std::to_string(singles) + ",\n";
  out += "  \"pairs\": " + std::to_string(pair_trials) + ",\n";
  out += "  \"baseline\": {\"outcome\": \"" + std::string(to_string(baseline.outcome)) +
         "\", \"total_hits\": " + std::to_string(baseline.total_hits) + ", \"hits\": {";
  bool first = true;
  for (const auto& [site, count] : baseline.hits) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + site + "\": " + std::to_string(count);
  }
  out += "}},\n";
  out += "  \"outcomes\": {\"completed\": " + std::to_string(completed) +
         ", \"recovered\": " + std::to_string(recovered) +
         ", \"clean_error\": " + std::to_string(clean_errors) +
         ", \"stuck\": " + std::to_string(stuck) +
         ", \"violation\": " + std::to_string(violations) + "},\n";
  out += "  \"trials\": [\n";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const ChaosTrialRecord& rec = trials[i];
    out += "    {\"faults\": \"" + chaos::encode_fault_sites(rec.faults) +
           "\", \"outcome\": \"" + std::string(to_string(rec.outcome)) +
           "\", \"fired\": " + std::to_string(rec.fired) +
           ", \"virtual_end_us\": " + std::to_string(rec.virtual_end);
    if (!rec.violations.empty()) {
      out += ", \"violations\": [";
      for (std::size_t v = 0; v < rec.violations.size(); ++v) {
        if (v != 0) out += ", ";
        out += '"';
        out += obs::json_escape(std::string(rec.violations[v].invariant) + ": " +
                                rec.violations[v].detail);
        out += '"';
      }
      out += "]";
    }
    out += "}";
    if (i + 1 != trials.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace blap::campaign
