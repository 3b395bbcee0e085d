// Reproduces TABLE II: "Success rates of MITM connection establishment".
//
// For each of the paper's seven victim devices:
//   * baseline ("without page blocking"): the attacker spoofs C's BD_ADDR
//     and waits; M pages; the page-scan race decides who answers first.
//     100 trials, fresh simulation per trial. Paper: 42-60 %.
//   * attack ("with page blocking"): the attacker pages M first and holds a
//     PLOC; M's pairing request lands on the attacker deterministically.
//     Paper: 100 %.
//
// Trials run through the campaign engine: BLAP_TRIALS overrides the paper's
// 100 per cell, BLAP_JOBS sets the worker count (default: all cores). Seeds
// are per-trial-index (root + index, the historical sequential stream), so
// the aggregate numbers are bit-identical for every BLAP_JOBS value — and
// identical to the pre-campaign sequential bench. Set BLAP_JSON=<path> to
// also dump the per-cell aggregate JSON. BLAP_LOSS=<p> (0 < p <= 1) runs
// every trial over a lossy channel (iid loss p through the fault layer);
// unset or 0 leaves the fault layer untouched and the output byte-identical
// to the historical bench. Every cell forks its trials from a warm snapshot
// (build the topology once per worker, restore+reseed per trial); the
// output is byte-identical to the per-trial rebuild it was captured on
// (tests/golden/bench_table2.*).
#include "bench_util.hpp"

#include <fstream>

#include "snapshot/fork_campaign.hpp"

int main() {
  using namespace blap;
  using namespace blap::bench;

  const int baseline_trials = trial_count(100);
  const int attack_trials = trial_count(100);
  const char* loss_env = std::getenv("BLAP_LOSS");
  const double loss = loss_env != nullptr ? std::atof(loss_env) : 0.0;
  // BLAP_LOSS=0 still installs the (disabled) plan — deliberately, so the
  // fault layer's byte-identity contract is exercised at bench scale: the
  // output must match a run that never set BLAP_LOSS at all.
  std::optional<double> trial_loss;
  if (loss_env != nullptr) trial_loss = loss;

  banner("TABLE II — Success rates of MITM connection establishment");
  if (loss > 0.0) std::printf("(fault layer on: iid channel loss %.0f%%)\n", 100.0 * loss);
  std::printf("%-26s | %-10s %-12s | %-10s %-12s\n", "", "paper", "measured", "paper",
              "measured");
  std::printf("%-26s | %-23s | %-23s\n", "Device", "without page blocking",
              "with page blocking");
  std::printf("%s\n", std::string(78, '-').c_str());

  bool shape_holds = true;
  std::uint64_t seed = 10'000;
  std::string json_dump;
  std::uint64_t wall_ns_total = 0;
  unsigned jobs_used = 1;
  const auto& profiles = core::table2_profiles();
  for (std::size_t profile_index = 0; profile_index < profiles.size(); ++profile_index) {
    const auto& profile = profiles[profile_index];
    snapshot::ScenarioParams params;
    params.kind = snapshot::ScenarioParams::Kind::kAbc;
    params.table = snapshot::ProfileTable::kTable2;
    params.profile_index = profile_index;
    params.accessory_transport = core::TransportKind::kUart;
    params.accessory_has_dump = true;
    params.baseline_bias = profile.baseline_mitm_success;

    campaign::CampaignConfig cfg;
    cfg.seed_fn = sequential_seed;

    // Baseline: the race.
    cfg.label = profile.model + " baseline";
    cfg.trials = static_cast<std::size_t>(baseline_trials);
    cfg.root_seed = seed;
    seed += static_cast<std::uint64_t>(baseline_trials);
    const auto baseline = snapshot::run_fork_campaign(
        cfg, params, snapshot::PageBlockingTrial{.attack = false, .loss = trial_loss});

    // Attack: PLOC.
    cfg.label = profile.model + " page blocking";
    cfg.trials = static_cast<std::size_t>(attack_trials);
    cfg.root_seed = seed;
    seed += static_cast<std::uint64_t>(attack_trials);
    const auto attack = snapshot::run_fork_campaign(
        cfg, params, snapshot::PageBlockingTrial{.attack = true, .loss = trial_loss});

    const double baseline_rate = 100.0 * baseline.success_rate;
    const double attack_rate = 100.0 * attack.success_rate;
    std::printf("%-26s | %7.0f%%   %9.1f%%   | %7s    %9.1f%%\n",
                (profile.model + " (" + profile.os + ")").c_str(),
                100.0 * profile.baseline_mitm_success, baseline_rate, "100%", attack_rate);

    wall_ns_total += baseline.wall_total_ns + attack.wall_total_ns;
    jobs_used = baseline.jobs_used;
    json_dump += baseline.to_json();
    json_dump += attack.to_json();

    // Shape check: baseline within a binomial-noise band of the paper's
    // value (3.5 sigma, floored at the historical 15-point band so the
    // 100-trial verdict is unchanged; a fixed band misfires at the quick
    // BLAP_TRIALS CI settings); attack exactly 100 %. The paper's numbers
    // assume a clean channel, so a lossy BLAP_LOSS run measures degradation
    // instead of asserting shape (bench_fault_sweep owns that story).
    if (loss == 0.0) {
      const double expected = 100.0 * profile.baseline_mitm_success;
      const double sigma = 100.0 * std::sqrt(profile.baseline_mitm_success *
                                             (1.0 - profile.baseline_mitm_success) /
                                             baseline_trials);
      if (std::abs(baseline_rate - expected) > std::max(15.0, 3.5 * sigma))
        shape_holds = false;
      if (attack_rate < 100.0) shape_holds = false;
    }
  }

  std::printf("\n(baseline: %d trials/device, attack: %d trials/device; "
              "paper used 100. Shape %s.)\n",
              baseline_trials, attack_trials, shape_holds ? "HOLDS" : "DOES NOT HOLD");
  std::fprintf(stderr, "[campaign] full sweep: %.3f s wall on %u worker(s)\n",
               static_cast<double>(wall_ns_total) * 1e-9, jobs_used);

  if (const char* path = std::getenv("BLAP_JSON")) {
    std::ofstream out(path);
    out << json_dump;
    std::fprintf(stderr, "[campaign] aggregate JSON written to %s\n", path);
  }
  return shape_holds ? 0 : 1;
}
