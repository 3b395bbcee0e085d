// make_corpus — regenerate the checked-in replay corpus (tests/replay_corpus/).
//
//   make_corpus <output-dir>
//
// Records three bundles that pin the record–replay contract in CI
// (tests/test_replay_corpus.cpp replays each and requires an exact
// reproduction):
//
//   * baseline-miss    — a clean-channel Table II baseline trial the
//                        attacker LOST (the page race went to C). Profile
//                        row 5, the extraction victim.
//   * attack-clean     — a clean-channel page blocking attack trial
//                        (deterministic success), with metrics recorded.
//   * lossy-supervision — a 35 %-loss attack trial whose metrics show the
//                        ARQ giving up (supervision timeout), from the
//                        bench_fault_sweep heavy cell (root seed
//                        77'000 + 3 * 1'000'000).
//   * chaos-supervision-early — the chaos sweep finding that exposed HCI
//                        transport reordering: a misprogrammed supervision
//                        timer fires during pairing and the resulting small
//                        Disconnection_Complete used to overtake the larger
//                        Connection_Complete on the wire, leaving the host
//                        holding a phantom ACL (link-table-agreement
//                        violation). Replays clean since the per-direction
//                        transport FIFO landed.
//   * chaos-teardown-race — a supervision timeout delivered at teardown
//                        entry; used to double-notify the host. Replays
//                        clean since teardown_link became idempotent.
//   * fuzz-*           — the stack fuzz target's canonical op streams, one
//                        bundle each (trial kind "fuzz_stack"). The first
//                        coverage-guided campaign flagged the phantom-
//                        connection stream immediately: the host fabricated
//                        an ACL from an unsolicited Connection_Complete
//                        (link-table-agreement violation). Replays clean
//                        since on_connection_complete() started requiring a
//                        pending connect/accept; each bundle pins its
//                        post-fix verdict exactly.
//
// The output is deterministic: same binaries -> same bundle bytes. The
// corpus only needs regenerating when the snapshot format, the scenario
// builders, or the trial bodies deliberately change.
#include <cstdio>
#include <filesystem>
#include <functional>
#include <utility>

#include "fuzz/targets.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/fork_campaign.hpp"
#include "snapshot/replay.hpp"

int main(int argc, char** argv) {
  using namespace blap;

  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const std::string out_dir = argv[1];
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  snapshot::ScenarioParams params;
  params.kind = snapshot::ScenarioParams::Kind::kAbc;
  params.table = snapshot::ProfileTable::kTable2;
  params.profile_index = 5;
  params.accessory_transport = core::TransportKind::kUart;
  params.accessory_has_dump = true;
  params.baseline_bias = core::table2_profiles()[5].baseline_mitm_success;

  int written = 0;
  // Fork `trial` over `cfg` from the row-5 topology and record the first
  // trial `predicate` matches (null: the first failure) under out_dir/name.
  const auto record = [&](const char* name, const campaign::CampaignConfig& cfg,
                          const snapshot::PageBlockingTrial& trial,
                          std::function<bool(const campaign::TrialResult&)> predicate) {
    snapshot::RecordOptions rec;
    rec.dir = out_dir + "/" + name;
    rec.predicate = std::move(predicate);
    rec.limit = 1;
    snapshot::ForkStats stats;
    (void)snapshot::run_fork_campaign(cfg, params, trial, &rec, &stats);
    for (const auto& path : stats.bundle_paths) {
      std::printf("%-17s -> %s\n", name, path.c_str());
      ++written;
    }
  };
  const campaign::SeedFn sequential = [](std::uint64_t root, std::size_t index) {
    return root + index;
  };

  // baseline-miss: first clean-channel baseline failure (attacker lost the
  // page race). Sequential seeds from the bench_table2 root.
  record("baseline-miss",
         {.label = "corpus baseline", .trials = 50, .root_seed = 10'000, .seed_fn = sequential},
         {.attack = false}, nullptr);

  // attack-clean: one deterministic page blocking success, metrics on.
  record("attack-clean",
         {.label = "corpus attack", .trials = 1, .root_seed = 20'000, .seed_fn = sequential},
         {.attack = true, .metrics = true},
         [](const campaign::TrialResult& r) { return r.success; });

  // lossy-supervision: bench_fault_sweep's 35 % cell; record the first trial
  // whose ARQ hit a supervision timeout.
  record("lossy-supervision",
         {.label = "corpus lossy",
          .trials = 50,
          .root_seed = 77'000 + 3 * 1'000'000,
          .seed_fn = nullptr},  // the default SplitMix64 trial seeds
         {.attack = true, .metrics = true, .loss = 0.35}, [](const campaign::TrialResult& r) {
           if (r.metrics == nullptr) return false;
           const auto it = r.metrics->counters.find("controller.supervision_timeouts");
           return it != r.metrics->counters.end() && it->second > 0;
         });

  // Chaos regressions: one bundle per fixed sweep finding. Each replays the
  // bonded-cell chaos trial with exactly the fault that exposed the bug and
  // pins the post-fix verdict (recovery, not violation).
  {
    struct ChaosPin {
      const char* dir;
      chaos::FaultSite fault;
    };
    const ChaosPin pins[] = {
        {"chaos-supervision-early", {"controller.supervision.timer_early", 3}},
        {"chaos-teardown-race", {"controller.teardown.supervision_race", 0}},
    };
    const std::uint64_t seed = 10'000;
    for (const ChaosPin& pin : pins) {
      snapshot::Scenario s = snapshot::build_scenario(seed, snapshot::bonded_cell_params());
      snapshot::bonded_warm_setup(s);
      std::string why;
      const auto warm = snapshot::Snapshot::capture(*s.sim, &why);
      if (!warm.has_value()) {
        std::fprintf(stderr, "%s: warm capture failed: %s\n", pin.dir, why.c_str());
        continue;
      }
      auto plan = chaos::ChaosPlan::inject({pin.fault});
      const auto trial = snapshot::run_chaos_trial(s, *warm, seed, plan);
      if (trial.outcome == snapshot::ChaosOutcome::kViolation ||
          trial.outcome == snapshot::ChaosOutcome::kStuck) {
        std::fprintf(stderr, "%s: trial regressed to %s — fix the bug, not the corpus\n",
                     pin.dir, snapshot::to_string(trial.outcome));
        continue;
      }

      const snapshot::ReplayBundle bundle =
          snapshot::chaos_bundle(snapshot::bonded_cell_params(), seed, 0, {pin.fault},
                                 trial.outcome, trial.virtual_end, *warm);
      const std::string dir = out_dir + "/" + pin.dir;
      std::filesystem::create_directories(dir, ec);
      const std::string path = dir + "/chaos-000000.blapreplay";
      if (bundle.save_file(path)) {
        std::printf("%-17s -> %s\n", pin.dir, path.c_str());
        ++written;
      }
    }
  }

  // Fuzz regression pins: the stack target's seed op streams, recorded at
  // their post-fix verdict. Names track seed_inputs() order — if the seeds
  // change, update both.
  {
    static const char* const kFuzzPinNames[] = {
        "fuzz-advance-time",        // pure virtual-time advance
        "fuzz-disconnect-inject",   // valid Disconnect cmd at the live handle
        "fuzz-phantom-connection",  // unsolicited Connection_Complete (the
                                    // first campaign's finding, fixed in-PR)
        "fuzz-lmp-detach",          // LMP detach frame on the air
    };
    fuzz::StackTarget target;
    const auto seeds = target.seed_inputs();
    if (seeds.size() != std::size(kFuzzPinNames)) {
      std::fprintf(stderr, "fuzz pins: seed_inputs() count changed (%zu vs %zu) — "
                           "update kFuzzPinNames\n",
                   seeds.size(), std::size(kFuzzPinNames));
    } else {
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        fuzz::FeatureSink sink;
        const fuzz::ExecResult result = target.execute(seeds[i], sink);
        if (result.finding) {
          std::fprintf(stderr, "%s: trial regressed to a finding [%s]: %s — "
                               "fix the bug, not the corpus\n",
                       kFuzzPinNames[i], result.kind.c_str(), result.detail.c_str());
          continue;
        }
        const auto bundle = target.make_bundle(seeds[i], result);
        if (!bundle.has_value()) continue;
        const std::string dir = out_dir + "/" + kFuzzPinNames[i];
        std::filesystem::create_directories(dir, ec);
        const std::string path = dir + "/fuzz-000000.blapreplay";
        if (bundle->save_file(path)) {
          std::printf("%-17s -> %s\n", kFuzzPinNames[i], path.c_str());
          ++written;
        }
      }
    }
  }

  std::printf("%d bundle(s) written under %s\n", written, out_dir.c_str());
  return written == 9 ? 0 : 1;
}
