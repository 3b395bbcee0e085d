// Tests for the parallel Monte-Carlo campaign engine: bit-identical results
// for any worker count, seed derivation, aggregation math, and the
// deterministic JSON/CSV emits the experiment pipeline depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/device.hpp"
#include "core/page_blocking.hpp"
#include "core/profiles.hpp"

namespace blap::campaign {
namespace {

// A cheap but non-trivial trial: drives a seeded Rng through a few draws so
// success depends on the seed alone, and exercises the scheduler.
TrialResult rng_trial(const TrialSpec& spec) {
  Rng rng(spec.seed);
  Scheduler sched;
  std::uint64_t acc = 0;
  for (int i = 0; i < 8; ++i) {
    sched.schedule_in(rng.uniform(1000) + 1, [&acc, &rng] { acc += rng.next_u64() & 0xff; });
  }
  sched.run_all();
  TrialResult r;
  r.success = (acc % 3) == 0;
  r.value = static_cast<double>(acc % 100);
  r.virtual_end = sched.now();
  return r;
}

// A trial running a real (small) simulation: the Table II baseline race.
TrialResult race_trial(const TrialSpec& spec) {
  core::Simulation sim(spec.seed);
  const auto& profile = core::table2_profiles()[5];
  core::DeviceSpec a =
      core::attacker_profile().to_spec("attacker", *BdAddr::parse("aa:aa:aa:00:00:01"));
  a.controller.page_scan_interval = static_cast<SimTime>(1.28 * kSecond);
  core::DeviceSpec c = core::accessory_profile().to_spec(
      "headset", *BdAddr::parse("00:1b:7d:da:71:0a"), ClassOfDevice(ClassOfDevice::kHandsFree));
  c.host.io_capability = hci::IoCapability::kNoInputNoOutput;
  c.controller.page_scan_interval =
      core::accessory_interval_for_bias(profile.baseline_mitm_success,
                                        a.controller.page_scan_interval);
  core::DeviceSpec m = profile.to_spec("victim", *BdAddr::parse("48:90:12:34:56:78"));
  core::Device& attacker = sim.add_device(a);
  core::Device& accessory = sim.add_device(c);
  core::Device& target = sim.add_device(m);
  TrialResult r;
  r.success = core::PageBlockingAttack::baseline_trial(sim, attacker, accessory, target);
  r.virtual_end = sim.now();
  return r;
}

TEST(SplitMix, TrialSeedMatchesStreamOutputs) {
  // trial_seed(root, i) must equal the (i+1)-th output of the stream.
  std::uint64_t state = 42;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const std::uint64_t streamed = splitmix64(state);
    EXPECT_EQ(trial_seed(42, i), streamed) << "index " << i;
  }
}

TEST(SplitMix, NearbyRootsYieldDistinctSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t root = 0; root < 8; ++root)
    for (std::uint64_t i = 0; i < 64; ++i) seen.insert(trial_seed(root, i));
  EXPECT_EQ(seen.size(), 8u * 64u);
}

// One parallel_indexed() run over n indices on `jobs` workers, recording
// what the pool did rather than what the indices compute.
struct PoolRun {
  unsigned workers = 0;         // parallel_indexed's return value
  unsigned made = 0;            // make_worker() calls
  std::vector<int> runs;        // per-index run count
  bool foreign_thread = false;  // a callable ran off the thread that made it
};

PoolRun run_pool(std::size_t n, unsigned jobs) {
  std::vector<std::atomic<int>> runs(n);
  std::atomic<unsigned> made{0};
  std::atomic<bool> foreign{false};
  PoolRun out;
  out.workers = parallel_indexed(n, jobs, [&] {
    ++made;
    return [&, owner = std::this_thread::get_id()](std::size_t i) {
      if (std::this_thread::get_id() != owner) foreign = true;
      ++runs[i];
    };
  });
  out.made = made;
  out.foreign_thread = foreign;
  for (const auto& r : runs) out.runs.push_back(r);
  return out;
}

template <typename Check>
void for_each_pool_shape(Check check) {
  for (const unsigned jobs : {1u, 2u, 8u})
    for (const std::size_t n : {0u, 1u, 5u, 300u}) {
      SCOPED_TRACE(::testing::Message() << "jobs=" << jobs << " n=" << n);
      check(n, jobs, run_pool(n, jobs));
    }
}

TEST(ParallelIndexed, RunsEveryIndexExactlyOnce) {
  for_each_pool_shape([](std::size_t n, unsigned, const PoolRun& run) {
    EXPECT_EQ(run.runs, std::vector<int>(n, 1));
  });
}

TEST(ParallelIndexed, ReturnsWorkerCount) {
  for_each_pool_shape([](std::size_t n, unsigned jobs, const PoolRun& run) {
    EXPECT_EQ(run.workers, std::max<std::size_t>(1, std::min<std::size_t>(jobs, n)));
  });
}

TEST(ParallelIndexed, MakesOneCallablePerWorker) {
  for_each_pool_shape([](std::size_t, unsigned, const PoolRun& run) {
    EXPECT_EQ(run.made, run.workers);
  });
}

TEST(ParallelIndexed, CallableRunsOnlyOnTheThreadThatMadeIt) {
  for_each_pool_shape([](std::size_t, unsigned, const PoolRun& run) {
    EXPECT_FALSE(run.foreign_thread);
  });
}

TEST(ParallelIndexed, RethrowsAWorkerExceptionAfterEveryWorkerJoins) {
  for (const unsigned jobs : {1u, 8u}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_indexed(300, jobs,
                                  [&] {
                                    return [&](std::size_t i) {
                                      ++ran;
                                      if (i == 17) throw std::runtime_error("trial 17");
                                    };
                                  }),
                 std::runtime_error)
        << "jobs=" << jobs;
    // Only the throwing worker stops; with one worker that is all of them.
    EXPECT_EQ(ran.load(), jobs == 1 ? 18 : 300) << "jobs=" << jobs;
  }
}

TEST(Wilson, MatchesKnownValues) {
  // 52/100: Wilson 95% ≈ [0.423, 0.616].
  const auto ci = wilson95(52, 100);
  EXPECT_NEAR(ci.low, 0.4231, 5e-4);
  EXPECT_NEAR(ci.high, 0.6157, 5e-4);
  // Degenerate cases stay in [0, 1].
  const auto all = wilson95(10, 10);
  EXPECT_GT(all.low, 0.65);
  EXPECT_NEAR(all.high, 1.0, 1e-9);
  const auto none = wilson95(0, 10);
  EXPECT_NEAR(none.low, 0.0, 1e-9);
  EXPECT_LT(none.high, 0.35);
  EXPECT_DOUBLE_EQ(wilson95(0, 0).low, 0.0);
}

TEST(HistogramTest, CountsEveryValueOnce) {
  const auto h = make_histogram({0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}, 4);
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 7.0);
  EXPECT_DOUBLE_EQ(h.mean, 3.5);
  ASSERT_EQ(h.buckets.size(), 4u);
  std::size_t total = 0;
  for (const auto& b : h.buckets) total += b.count;
  EXPECT_EQ(total, 8u);
  EXPECT_EQ(h.buckets.back().count, 2u);  // 6 and the max (7)
}

TEST(HistogramTest, DegenerateSingleValue) {
  const auto h = make_histogram({5.0, 5.0, 5.0}, 8);
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_EQ(h.buckets[0].count, 3u);
}

TEST(HistogramTest, NonFiniteSamplesAreDropped) {
  // NaN/inf virtual durations (a trial that never ran) must not poison the
  // stats or the bucket edges.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto h = make_histogram({nan, 1.0, inf, 3.0, -inf}, 2);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 3.0);
  EXPECT_DOUBLE_EQ(h.mean, 2.0);
  std::size_t total = 0;
  for (const auto& b : h.buckets) total += b.count;
  EXPECT_EQ(total, 2u);
}

TEST(HistogramTest, AllNonFiniteYieldsEmpty) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto h = make_histogram({nan, nan}, 4);
  EXPECT_TRUE(h.buckets.empty());
}

TEST(Campaign, AggregateJsonIsIdenticalForAnyWorkerCount) {
  CampaignConfig cfg;
  cfg.label = "determinism";
  cfg.trials = 64;
  cfg.root_seed = 7;

  cfg.jobs = 1;
  const std::string json1 = run_campaign(cfg, rng_trial).to_json(true);
  cfg.jobs = 2;
  const std::string json2 = run_campaign(cfg, rng_trial).to_json(true);
  cfg.jobs = 8;
  const std::string json8 = run_campaign(cfg, rng_trial).to_json(true);

  EXPECT_EQ(json1, json2);
  EXPECT_EQ(json1, json8);

  // Re-run: byte-identical (no wall clock / date leakage into the emit).
  cfg.jobs = 8;
  EXPECT_EQ(run_campaign(cfg, rng_trial).to_json(true), json8);
  cfg.jobs = 1;
  EXPECT_EQ(run_campaign(cfg, rng_trial).to_csv(), run_campaign(cfg, rng_trial).to_csv());
}

TEST(Campaign, BlapJobsEnvironmentKnobKeepsResultsIdentical) {
  CampaignConfig cfg;
  cfg.label = "env knob";
  cfg.trials = 48;
  cfg.root_seed = 11;
  cfg.jobs = 1;
  const std::string reference = run_campaign(cfg, rng_trial).to_json(true);

  cfg.jobs = 0;  // defer to BLAP_JOBS
  for (const char* jobs : {"1", "2", "8"}) {
    ASSERT_EQ(setenv("BLAP_JOBS", jobs, 1), 0);
    const auto summary = run_campaign(cfg, rng_trial);
    EXPECT_EQ(summary.jobs_used, static_cast<unsigned>(std::atoi(jobs)));
    EXPECT_EQ(summary.to_json(true), reference) << "BLAP_JOBS=" << jobs;
  }
  unsetenv("BLAP_JOBS");
}

TEST(Campaign, FullSimulationTrialsAreDeterministicAcrossWorkerCounts) {
  CampaignConfig cfg;
  cfg.label = "race";
  cfg.trials = 12;
  cfg.root_seed = 1234;
  cfg.jobs = 1;
  const auto seq = run_campaign(cfg, race_trial);
  cfg.jobs = 4;
  const auto par = run_campaign(cfg, race_trial);
  EXPECT_EQ(seq.successes, par.successes);
  EXPECT_EQ(seq.to_json(true), par.to_json(true));
  ASSERT_EQ(seq.results.size(), par.results.size());
  for (std::size_t i = 0; i < seq.results.size(); ++i) {
    EXPECT_EQ(seq.results[i].seed, par.results[i].seed);
    EXPECT_EQ(seq.results[i].success, par.results[i].success);
    EXPECT_EQ(seq.results[i].virtual_end, par.results[i].virtual_end);
  }
}

TEST(Campaign, CustomSeedFnIsHonoured) {
  CampaignConfig cfg;
  cfg.trials = 5;
  cfg.root_seed = 100;
  cfg.jobs = 1;
  cfg.seed_fn = [](std::uint64_t root, std::size_t i) { return root + i; };
  const auto summary = run_campaign(cfg, rng_trial);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(summary.results[i].seed, 100 + i);
}

TEST(Campaign, EngineFillsIndexSeedAndWall) {
  CampaignConfig cfg;
  cfg.trials = 9;
  cfg.root_seed = 3;
  cfg.jobs = 3;
  const auto summary = run_campaign(cfg, rng_trial);
  ASSERT_EQ(summary.results.size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(summary.results[i].index, i);
    EXPECT_EQ(summary.results[i].seed, trial_seed(3, i));
  }
  EXPECT_GT(summary.wall_total_ns, 0u);
}

TEST(Campaign, ZeroTrialsIsEmptyNotCrash) {
  CampaignConfig cfg;
  cfg.trials = 0;
  const auto summary = run_campaign(cfg, rng_trial);
  EXPECT_EQ(summary.trials, 0u);
  EXPECT_EQ(summary.successes, 0u);
  EXPECT_TRUE(summary.results.empty());
  EXPECT_FALSE(summary.has_metrics);
  // The emits must still be well-formed (no 0/0 rates, no NaN in JSON).
  const std::string json = summary.to_json(true);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Campaign, SingleTrialWilsonIntervalIsSane) {
  CampaignConfig cfg;
  cfg.trials = 1;
  cfg.root_seed = 5;
  cfg.jobs = 1;
  const auto summary = run_campaign(cfg, rng_trial);
  ASSERT_EQ(summary.results.size(), 1u);
  // n=1: the interval is wide but stays inside [0, 1] and brackets the rate.
  EXPECT_GE(summary.ci.low, 0.0);
  EXPECT_LE(summary.ci.high, 1.0);
  EXPECT_LE(summary.ci.low, summary.success_rate);
  EXPECT_GE(summary.ci.high, summary.success_rate);
  EXPECT_GT(summary.ci.high - summary.ci.low, 0.5);
}

TEST(Campaign, LongLabelSurvivesFormattingIntact) {
  // Regression: append_fmt used to truncate anything past its 256-byte
  // stack buffer, silently corrupting JSON emitted for long cell labels.
  CampaignConfig cfg;
  cfg.label = std::string(300, 'L') + " END-OF-LABEL";
  cfg.trials = 2;
  cfg.jobs = 1;
  const auto summary = run_campaign(cfg, rng_trial);
  const std::string json = summary.to_json();
  EXPECT_NE(json.find(cfg.label), std::string::npos);
  EXPECT_NE(json.find("END-OF-LABEL"), std::string::npos);
  EXPECT_NE(summary.timing_report().find("END-OF-LABEL"), std::string::npos);
}

// rng_trial plus a per-trial metrics snapshot, as campaign_sweep --metrics
// attaches one: a counter keyed by success and a virtual-time histogram.
TrialResult metric_trial(const TrialSpec& spec) {
  TrialResult r = rng_trial(spec);
  obs::MetricsRegistry reg;
  reg.add("trial.runs");
  reg.add(r.success ? "trial.successes" : "trial.failures");
  reg.gauge_max("trial.virtual_end_max", r.virtual_end);
  reg.observe("trial.virtual_end_us", r.virtual_end);
  r.metrics = std::make_shared<const obs::MetricsSnapshot>(reg.snapshot());
  return r;
}

TEST(Campaign, MetricsBlockIsIdenticalForAnyWorkerCount) {
  CampaignConfig cfg;
  cfg.label = "metrics determinism";
  cfg.trials = 40;
  cfg.root_seed = 21;

  cfg.jobs = 1;
  const auto seq = run_campaign(cfg, metric_trial);
  ASSERT_TRUE(seq.has_metrics);
  EXPECT_EQ(seq.metrics.counters.at("trial.runs"), 40u);
  EXPECT_EQ(seq.metrics.counters.at("trial.successes") +
                seq.metrics.counters.at("trial.failures"),
            40u);
  EXPECT_EQ(seq.metrics.histograms.at("trial.virtual_end_us").count, 40u);
  const std::string reference = seq.to_json(true);
  EXPECT_NE(reference.find("\"metrics\""), std::string::npos);

  for (unsigned jobs : {2u, 8u}) {
    cfg.jobs = jobs;
    EXPECT_EQ(run_campaign(cfg, metric_trial).to_json(true), reference)
        << "jobs=" << jobs;
  }
}

TEST(Campaign, TrialsWithoutMetricsEmitNoMetricsBlock) {
  CampaignConfig cfg;
  cfg.trials = 4;
  cfg.jobs = 2;
  const auto summary = run_campaign(cfg, rng_trial);
  EXPECT_FALSE(summary.has_metrics);
  EXPECT_EQ(summary.to_json(true).find("\"metrics\""), std::string::npos);
}

TEST(Campaign, SuccessRateAndCiMatchResults) {
  CampaignConfig cfg;
  cfg.trials = 200;
  cfg.root_seed = 99;
  cfg.jobs = 2;
  const auto summary = run_campaign(cfg, rng_trial);
  std::size_t manual = 0;
  for (const auto& r : summary.results) manual += r.success ? 1 : 0;
  EXPECT_EQ(summary.successes, manual);
  const auto ci = wilson95(manual, 200);
  EXPECT_DOUBLE_EQ(summary.ci.low, ci.low);
  EXPECT_DOUBLE_EQ(summary.ci.high, ci.high);
  EXPECT_LE(summary.ci.low, summary.success_rate);
  EXPECT_GE(summary.ci.high, summary.success_rate);
}

TEST(Campaign, TimingReportMentionsWorkers) {
  CampaignConfig cfg;
  cfg.label = "timing";
  cfg.trials = 4;
  cfg.jobs = 2;
  const auto summary = run_campaign(cfg, rng_trial);
  const std::string report = summary.timing_report();
  EXPECT_NE(report.find("timing"), std::string::npos);
  EXPECT_NE(report.find("2 worker(s)"), std::string::npos);
  // ...and none of that may appear in the deterministic emits.
  EXPECT_EQ(summary.to_json(true).find("wall"), std::string::npos);
  EXPECT_EQ(summary.to_csv().find("wall"), std::string::npos);
}

}  // namespace
}  // namespace blap::campaign
