// Robustness sweep: page-blocking MITM success vs channel loss.
//
// The paper's Table II rates assume a clean 10 m lab channel. This bench
// sweeps the fault layer's iid loss axis over {0, 5, 15, 35} % and re-runs
// the full page-blocking attack per cell, measuring how the MITM success
// rate degrades once LMP traffic must survive a lossy channel through the
// baseband ARQ. Per-trial fault counters (drops, retransmissions,
// supervision timeouts) are folded into each cell's deterministic metrics
// JSON.
//
// Every cell forks its trials from a warm snapshot; the output is
// byte-identical to the per-trial rebuild it was captured on
// (tests/golden/bench_fault_sweep.*).
//
// Env: BLAP_TRIALS (default 100/cell), BLAP_JOBS (worker count; aggregates
// are bit-identical for any value), BLAP_JSON=<path> (dump per-cell JSON,
// per-trial rows included).
#include "bench_util.hpp"

#include <fstream>

#include "snapshot/fork_campaign.hpp"

int main() {
  using namespace blap;
  using namespace blap::bench;

  const int trials = trial_count(100);
  const double loss_grid[] = {0.0, 0.05, 0.15, 0.35};
  // Same victim the extraction scenarios use; the sweep is about the
  // channel, not the victim profile.
  constexpr std::size_t kProfileIndex = 5;
  const auto& profile = core::table2_profiles()[kProfileIndex];

  snapshot::ScenarioParams params;
  params.kind = snapshot::ScenarioParams::Kind::kAbc;
  params.table = snapshot::ProfileTable::kTable2;
  params.profile_index = kProfileIndex;
  params.accessory_transport = core::TransportKind::kUart;
  params.accessory_has_dump = true;
  params.baseline_bias = profile.baseline_mitm_success;

  banner("FAULT SWEEP — page-blocking MITM success vs channel loss");
  std::printf("%-8s | %-9s | %-10s | %-12s | %-12s | %-12s\n", "loss", "success",
              "95% CI", "drops", "arq retx", "supervision");
  std::printf("%s\n", std::string(78, '-').c_str());

  auto counter = [](const campaign::CampaignSummary& s, const char* key) -> std::uint64_t {
    const auto it = s.metrics.counters.find(key);
    return it == s.metrics.counters.end() ? 0 : it->second;
  };

  bool shape_holds = true;
  double clean_rate = 0.0;
  std::string json_dump;
  std::uint64_t wall_ns_total = 0;
  unsigned jobs_used = 1;
  std::uint64_t root = 77'000;
  for (const double loss : loss_grid) {
    campaign::CampaignConfig cfg;
    cfg.label = "page blocking loss=" + std::to_string(loss);
    cfg.trials = static_cast<std::size_t>(trials);
    cfg.root_seed = root;
    root += 1'000'000;

    const auto summary = snapshot::run_fork_campaign(
        cfg, params, snapshot::PageBlockingTrial{.attack = true, .metrics = true, .loss = loss});

    std::printf("%6.0f%%  | %7.1f%%  | %4.1f-%4.1f%% | %12llu | %12llu | %12llu\n",
                100.0 * loss, 100.0 * summary.success_rate, 100.0 * summary.ci.low,
                100.0 * summary.ci.high,
                static_cast<unsigned long long>(counter(summary, "radio.faults.loss")),
                static_cast<unsigned long long>(counter(summary, "arq.retransmissions")),
                static_cast<unsigned long long>(
                    counter(summary, "controller.supervision_timeouts")));

    if (loss == 0.0) clean_rate = summary.success_rate;
    // Shape: the clean channel reproduces the paper's deterministic 100 %,
    // losses really happen on lossy cells, and the ARQ is engaged.
    if (loss == 0.0 && summary.success_rate < 1.0) shape_holds = false;
    if (loss > 0.0 && counter(summary, "radio.faults.loss") == 0) shape_holds = false;
    if (loss > 0.0 && counter(summary, "arq.retransmissions") == 0) shape_holds = false;
    // Degradation: the heaviest cell must not beat the clean channel.
    if (loss == loss_grid[3] && summary.success_rate > clean_rate) shape_holds = false;

    wall_ns_total += summary.wall_total_ns;
    jobs_used = summary.jobs_used;
    json_dump += summary.to_json(true);
  }

  std::printf("\n(%d trials/cell; seeds are pure per-index functions, so the table is\n"
              "bit-identical for every BLAP_JOBS value. Shape %s.)\n",
              trials, shape_holds ? "HOLDS" : "DOES NOT HOLD");
  std::fprintf(stderr, "[campaign] fault sweep: %.3f s wall on %u worker(s)\n",
               static_cast<double>(wall_ns_total) * 1e-9, jobs_used);

  if (const char* path = std::getenv("BLAP_JSON")) {
    std::ofstream out(path);
    out << json_dump;
    std::fprintf(stderr, "[campaign] aggregate JSON written to %s\n", path);
  }
  return shape_holds ? 0 : 1;
}
