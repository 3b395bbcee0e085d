// Snapshot-fork trial engine: correctness diff + throughput gate.
//
// Three cells, each run twice — rebuild (one full setup per trial) vs fork
// (setup once, then restore + reseed per trial through
// src/snapshot/fork_campaign.hpp). The per-trial JSON of the two paths must
// be BYTE-IDENTICAL; that is the whole correctness contract of the fork
// engine (restore + reseed ≡ fresh setup), and the bench exits 1 on any
// diff.
//
//   * baseline / attack — the Table II cells (victim row 5). The warm point
//     is the post-build topology. Forking is correct here but barely faster:
//     scheduler pooling already made a topology build cost ~30 µs while the
//     trial body simulates 30 virtual seconds, so these cells exist for the
//     byte-identity diff, not the speedup.
//   * bonded — the warm-start path the snapshot engine is FOR. The warm-up
//     bonds C to M (full SSP Numeric Comparison with P-256 ECDH, ~30 virtual
//     seconds — the dominant wall cost of an extraction-style trial); the
//     per-trial body then revalidates the stored link key over PAN, the
//     paper's link-key validation probe. Rebuild pays the bonding every
//     trial, fork restores past it. This cell carries the >= 2x throughput
//     gate.
//
// Env: BLAP_TRIALS (default 100/cell), BLAP_JOBS, BLAP_SNAPSHOT_MIN_SPEEDUP
// (override the 2.0x gate, e.g. for heavily loaded CI machines).
#include "bench_util.hpp"

#include "snapshot/chaos_trial.hpp"
#include "snapshot/fork_campaign.hpp"

int main() {
  using namespace blap;
  using namespace blap::bench;

  const int trials = trial_count(100);
  constexpr std::size_t kProfileIndex = 5;
  const auto& profile = core::table2_profiles()[kProfileIndex];
  double min_speedup = 2.0;
  if (const char* env = std::getenv("BLAP_SNAPSHOT_MIN_SPEEDUP")) {
    const double v = std::atof(env);
    if (v > 0.0) min_speedup = v;
  }

  snapshot::ScenarioParams abc_params;
  abc_params.kind = snapshot::ScenarioParams::Kind::kAbc;
  abc_params.table = snapshot::ProfileTable::kTable2;
  abc_params.profile_index = kProfileIndex;
  abc_params.baseline_bias = profile.baseline_mitm_success;

  const snapshot::ScenarioParams bonded_params = snapshot::bonded_cell_params();

  // Bonded-cell body: revalidate the stored link key by opening PAN (paper's
  // validation probe) — authentication reuses the bond, no ECDH. Fixed
  // 5-virtual-second window; PAN keep-alive timers re-arm, so no idle drain.
  const auto bonded_body = [](const campaign::TrialSpec&, Scenario& s) {
    bool validated = false;
    s.accessory->host().connect_pan(s.target->address(),
                                    [&validated](bool ok) { validated = ok; });
    s.sim->run_for(5 * kSecond);
    campaign::TrialResult r;
    r.success = validated;
    r.virtual_end = s.sim->now();
    return r;
  };

  banner("SNAPSHOT FORK — rebuild vs fork: byte-identity + throughput");
  std::printf("%-10s | %-12s | %-12s | %-8s | %-9s\n", "cell", "rebuild t/s", "fork t/s",
              "speedup", "identical");
  std::printf("%s\n", std::string(64, '-').c_str());

  bool ok = true;
  double gated_speedup = 0.0;
  const struct {
    const char* name;
    const snapshot::ScenarioParams* params;
    snapshot::ForkTrialFn body;
    snapshot::WarmSetupFn warm;
    bool gated;  // carries the >= min_speedup throughput gate
  } cells[] = {{"baseline", &abc_params, snapshot::PageBlockingTrial{}, {}, false},
               {"attack", &abc_params, snapshot::PageBlockingTrial{.attack = true}, {}, false},
               {"bonded", &bonded_params, bonded_body, snapshot::bonded_warm_setup, true}};
  std::uint64_t root = 10'000;
  for (const auto& cell : cells) {
    campaign::CampaignConfig cfg;
    cfg.label = std::string(profile.model) + " " + cell.name;
    cfg.trials = static_cast<std::size_t>(trials);
    cfg.root_seed = root;
    cfg.seed_fn = sequential_seed;
    root += static_cast<std::uint64_t>(trials);

    const auto rebuild = campaign::run_campaign(cfg, [&](const campaign::TrialSpec& spec) {
      if (!cell.warm) {
        Scenario s = snapshot::build_scenario(spec.seed, *cell.params);
        return cell.body(spec, s);
      }
      Scenario s = snapshot::build_scenario(cfg.root_seed, *cell.params);
      cell.warm(s);
      s.sim->reseed(spec.seed);
      return cell.body(spec, s);
    });
    snapshot::ForkStats stats;
    const auto fork =
        snapshot::run_fork_campaign(cfg, *cell.params, cell.body, nullptr, &stats, cell.warm);

    const bool identical = rebuild.to_json(true) == fork.to_json(true);
    const double rebuild_rate = rebuild.wall_total_ns > 0
                                    ? static_cast<double>(rebuild.trials) * 1e9 /
                                          static_cast<double>(rebuild.wall_total_ns)
                                    : 0.0;
    const double fork_rate = fork.wall_total_ns > 0
                                 ? static_cast<double>(fork.trials) * 1e9 /
                                       static_cast<double>(fork.wall_total_ns)
                                 : 0.0;
    const double speedup = rebuild_rate > 0.0 ? fork_rate / rebuild_rate : 0.0;
    std::printf("%-10s | %12.1f | %12.1f | %7.2fx | %-9s\n", cell.name, rebuild_rate,
                fork_rate, speedup, identical ? "yes" : "NO");
    if (!identical || !stats.fork_used) ok = false;
    if (cell.gated) gated_speedup = speedup;
  }

  std::printf("\n(%d trials/cell; the fork path must reproduce the rebuild path's\n"
              "per-trial JSON byte-for-byte on every cell and reach >= %.1fx\n"
              "throughput on the bonded warm-start cell.)\n",
              trials, min_speedup);
  if (gated_speedup < min_speedup) {
    std::printf("FAIL: bonded warm-start speedup %.2fx < %.2fx\n", gated_speedup,
                min_speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}
