// campaign_sweep — production-scale Table II sweep on the campaign engine.
//
// Runs the full "without / with page blocking" Monte-Carlo sweep for all
// seven Table II victims across a worker pool, then prints per-cell success
// rates with Wilson 95% confidence intervals and a throughput report.
//
//   BLAP_TRIALS  trials per cell            (default 100, the paper's count)
//   BLAP_JOBS    worker threads             (default: all hardware threads)
//   BLAP_SEED    campaign root seed         (default 1)
//
//   campaign_sweep [--json FILE] [--csv FILE] [--metrics] [--trace-out FILE]
//                  [--record-failures DIR]
//   campaign_sweep --snoop-dir DIR [--snoop-files N]
//
// --snoop-dir switches the binary into corpus mode: instead of the Table II
// sweep it runs one campaign per snoop-corpus scenario class (see
// src/analytics/corpus.hpp) and writes N labelled .btsnoop captures per
// class plus labels.jsonl into DIR — the ground-truth input for blap-snoopd
// precision/recall scoring. BLAP_SEED/BLAP_JOBS apply as in sweep mode.
//
// --metrics runs every trial's Simulation with the metrics half of the
// observability layer on and folds the per-trial snapshots into each cell's
// JSON ("metrics" block). --trace-out additionally runs ONE fully-traced
// page blocking trial (first Table II victim, trial seed 0) and writes its
// Chrome trace-event JSON — load it in Perfetto to see the attacker and
// victim lanes race.
//
// Every cell forks its trials from a warm snapshot (src/snapshot/
// fork_campaign.hpp), which --record-failures DIR also records from: a
// self-contained replay bundle (see src/snapshot/replay.hpp) for every
// failing trial — up to 8 per cell, into DIR/<cell>/trial-NNNNNN.blapreplay —
// reproducible standalone with blap-replay, with or without --metrics.
//
// Results are bit-identical for any BLAP_JOBS value and any re-run with the
// same BLAP_TRIALS/BLAP_SEED: per-trial seeds are SplitMix64-derived from
// (root seed, cell, trial index), wall-clock never leaks into the
// deterministic emits, and metrics snapshots merge order-independently.
#include <cstring>
#include <fstream>
#include <string>

#include "analytics/corpus.hpp"
#include "bench/bench_util.hpp"
#include "snapshot/fork_campaign.hpp"

int main(int argc, char** argv) {
  using namespace blap;
  using namespace blap::bench;
  using namespace blap::core;

  const char* json_path = nullptr;
  const char* csv_path = nullptr;
  const char* trace_path = nullptr;
  const char* record_dir = nullptr;
  const char* snoop_dir = nullptr;
  std::size_t snoop_files = 8;
  bool with_metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
    else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) csv_path = argv[++i];
    else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) trace_path = argv[++i];
    else if (std::strcmp(argv[i], "--record-failures") == 0 && i + 1 < argc)
      record_dir = argv[++i];
    else if (std::strcmp(argv[i], "--snoop-dir") == 0 && i + 1 < argc) snoop_dir = argv[++i];
    else if (std::strcmp(argv[i], "--snoop-files") == 0 && i + 1 < argc)
      snoop_files = std::strtoull(argv[++i], nullptr, 10);
    else if (std::strcmp(argv[i], "--metrics") == 0) with_metrics = true;
    else {
      std::fprintf(stderr,
                   "usage: %s [--json FILE] [--csv FILE] [--metrics] [--trace-out FILE] "
                   "[--record-failures DIR]\n"
                   "       %s --snoop-dir DIR [--snoop-files N]\n",
                   argv[0], argv[0]);
      return 2;
    }
  }

  if (snoop_dir != nullptr) {
    analytics::CorpusOptions opts;
    opts.dir = snoop_dir;
    opts.files_per_class = snoop_files;
    if (const char* env = std::getenv("BLAP_SEED"))
      opts.root_seed = std::strtoull(env, nullptr, 0);
    banner("CAMPAIGN — labelled snoop corpus (" + std::to_string(snoop_files) +
           " files/class)");
    const auto summary = analytics::generate_corpus(opts);
    if (!summary) {
      std::fprintf(stderr, "error: corpus generation failed under %s\n", snoop_dir);
      return 1;
    }
    std::printf("%-18s | %s\n", "class", "files");
    std::printf("%s\n", std::string(28, '-').c_str());
    for (const auto& [name, count] : summary->files_per_class)
      std::printf("%-18s | %zu\n", name.c_str(), count);
    std::printf("\n%-18s | %s\n", "label", "files");
    std::printf("%s\n", std::string(28, '-').c_str());
    for (const auto& [name, count] : summary->files_per_label)
      std::printf("%-18s | %zu\n", name.c_str(), count);
    std::printf("\n%zu capture(s) + labels.jsonl -> %s (%zu voided trial(s))\n",
                summary->files_written, snoop_dir, summary->trials_failed);
    return 0;
  }
  const std::size_t trials = static_cast<std::size_t>(trial_count(100));
  std::uint64_t root = 1;
  if (const char* env = std::getenv("BLAP_SEED")) root = std::strtoull(env, nullptr, 0);
  const unsigned jobs = campaign::resolve_jobs();

  banner("CAMPAIGN — Table II sweep (" + std::to_string(trials) + " trials/cell, " +
         std::to_string(jobs) + " workers)");
  std::printf("%-26s | %-28s | %-28s\n", "", "without page blocking", "with page blocking");
  std::printf("%-26s | %-9s %-18s | %-9s %-18s\n", "Device", "rate", "wilson95", "rate",
              "wilson95");
  std::printf("%s\n", std::string(90, '-').c_str());

  std::string json_all;
  std::string csv_all;
  double wall_s = 0.0;
  std::size_t cell = 0;
  unsigned jobs_used = 1;
  std::size_t bundles_written = 0;
  const auto& profiles = table2_profiles();
  for (std::size_t profile_index = 0; profile_index < profiles.size(); ++profile_index) {
    const auto& profile = profiles[profile_index];
    auto run_cell = [&](const std::string& kind, bool with_blocking) {
      campaign::CampaignConfig cfg;
      cfg.label = profile.model + " " + kind;
      cfg.trials = trials;
      // Distinct root per cell, derived from the sweep root: cells never
      // share trial seeds, and any cell can be re-run in isolation.
      cfg.root_seed = campaign::trial_seed(root, cell++);

      snapshot::ScenarioParams params;
      params.kind = snapshot::ScenarioParams::Kind::kAbc;
      params.table = snapshot::ProfileTable::kTable2;
      params.profile_index = profile_index;
      params.accessory_transport = TransportKind::kUart;
      params.accessory_has_dump = true;
      params.baseline_bias = profile.baseline_mitm_success;

      snapshot::RecordOptions rec;
      snapshot::ForkStats stats;
      if (record_dir != nullptr) {
        // Per-cell subdirectory: bundle names are per-campaign indices.
        std::string cell_dir = cfg.label;
        for (char& c : cell_dir)
          if (c == ' ' || c == '/') c = '-';
        rec.dir = std::string(record_dir) + "/" + cell_dir;
      }
      const auto summary = snapshot::run_fork_campaign(
          cfg, params,
          snapshot::PageBlockingTrial{.attack = with_blocking, .metrics = with_metrics},
          &rec, &stats);
      bundles_written += stats.bundle_paths.size();
      wall_s += static_cast<double>(summary.wall_total_ns) * 1e-9;
      jobs_used = summary.jobs_used;  // engine clamps jobs to the trial count
      json_all += summary.to_json();
      if (csv_path) {
        csv_all += "# " + summary.label + "\n";
        csv_all += summary.to_csv();
      }
      return summary;
    };

    const auto baseline = run_cell("baseline", false);
    const auto attack = run_cell("page blocking", true);
    std::printf("%-26s | %7.1f%%  [%5.1f%%, %5.1f%%]  | %7.1f%%  [%5.1f%%, %5.1f%%]\n",
                (profile.model + " (" + profile.os + ")").c_str(),
                100.0 * baseline.success_rate, 100.0 * baseline.ci.low,
                100.0 * baseline.ci.high, 100.0 * attack.success_rate,
                100.0 * attack.ci.low, 100.0 * attack.ci.high);
  }

  const std::size_t total = trials * cell;
  std::printf("\n%zu trials total on %u worker(s): %.3f s wall (%.1f trials/s)\n", total,
              jobs_used, wall_s, wall_s > 0 ? static_cast<double>(total) / wall_s : 0.0);
  if (record_dir != nullptr)
    std::printf("%zu replay bundle(s) recorded under %s (re-run with blap-replay)\n",
                bundles_written, record_dir);

  bool emit_ok = true;
  auto emit = [&emit_ok](const char* path, const std::string& data, const char* what) {
    std::ofstream out(path);
    out << data;
    out.flush();
    if (out) {
      std::printf("%s -> %s\n", what, path);
    } else {
      std::fprintf(stderr, "error: could not write %s to %s\n", what, path);
      emit_ok = false;
    }
  };
  if (json_path) emit(json_path, json_all, "aggregate JSON");
  if (csv_path) emit(csv_path, csv_all, "per-trial CSV ");

  if (trace_path) {
    // One fully-traced trial for Perfetto: the first Table II victim under
    // page blocking, same seed derivation as the sweep's cell 1 / trial 0.
    const auto& profile = table2_profiles().front();
    Scenario s = make_scenario(campaign::trial_seed(campaign::trial_seed(root, 1), 0),
                               profile, TransportKind::kUart, true,
                               profile.baseline_mitm_success);
    std::string trace;
    (void)snapshot::PageBlockingTrial{.attack = true, .metrics = true}.run(s, std::nullopt,
                                                                           &trace);
    emit(trace_path, trace, "Chrome trace JSON");
  }
  return emit_ok ? 0 : 1;
}
