// campaign.hpp — parallel Monte-Carlo trial campaigns.
//
// BLAP's evaluation numbers (Table II success rates, the race-model
// baselines, mitigation ablations) are estimates over hundreds of
// independent seeded trials. A Campaign runs such a batch across a worker
// thread pool while keeping the results bit-identical for ANY worker count:
//
//   * each trial's seed is a pure function of (root_seed, trial index) —
//     by default a SplitMix64 stream — so no trial ever observes which
//     thread or in which order it ran;
//   * trials write into a pre-sized results vector at their own index;
//     workers share nothing else but parallel_indexed()'s atomic "next
//     index" counter;
//   * aggregation (success counts, Wilson 95% CI, virtual-time histogram,
//     JSON/CSV emit) runs sequentially over the index-ordered results, so
//     the aggregate output is a pure function of the root seed.
//
// parallel_indexed() is the one worker pool in the tree: the fork, chaos,
// fuzz, fleet-scan and corpus engines run on it too, each keeping the same
// three rules (claim an index, write slot i, merge in index order).
//
// Wall-clock timing is recorded per trial for throughput reporting, but is
// deliberately excluded from to_json()/to_csv() — those must be
// byte-identical across re-runs and across BLAP_JOBS settings.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/scheduler.hpp"
#include "obs/obs.hpp"

namespace blap::campaign {

/// SplitMix64 step: advances `state` and returns the next output. Used both
/// as the default per-trial seed derivation and anywhere a cheap, well-mixed
/// 64-bit stream is needed.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless per-trial seed: the `index`-th output of the SplitMix64 stream
/// rooted at `root_seed`. Identical for every thread count by construction.
std::uint64_t trial_seed(std::uint64_t root_seed, std::uint64_t index);

/// Worker count resolution: explicit request > BLAP_JOBS env >
/// hardware_concurrency (min 1).
unsigned resolve_jobs(unsigned requested = 0);

/// Run `run(i)` exactly once for every i in [0, n) on
/// min(resolve_jobs(jobs), n, 65536) worker threads (at least one; a single
/// worker runs on the calling thread). Each worker calls `make_worker()`
/// once, on its own thread, and feeds every index it claims from one shared
/// atomic counter to the callable that call returned — so per-worker state
/// (a warm scenario, a detector set) lives in that callable for exactly as
/// long as the worker runs. Which worker runs which index is scheduling
/// luck; callers stay deterministic by writing only slot i from index i and
/// merging the slots in index order afterwards. Returns the worker count.
/// An exception thrown by a worker stops that worker only; the first one
/// is rethrown on the calling thread once every worker has finished.
template <typename MakeWorker>
unsigned parallel_indexed(std::size_t n, unsigned jobs, MakeWorker&& make_worker) {
  const unsigned workers = std::max(
      1u, std::min(resolve_jobs(jobs),
                   static_cast<unsigned>(std::min<std::size_t>(n, 1u << 16))));
  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;
  const auto drain = [&] {
    try {
      auto run = make_worker();
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        run(i);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };
  if (workers == 1) {
    drain();
  } else {
    // jthread joins on destruction, so a failed spawn still joins the rest.
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) threads.emplace_back(drain);
  }
  if (failure) std::rethrow_exception(failure);
  return workers;
}

/// One trial's identity, handed to the trial function.
struct TrialSpec {
  std::size_t index = 0;
  std::uint64_t seed = 0;
};

/// What a trial reports back. `success` drives the rate/CI aggregation;
/// `value` is a free scalar (e.g. crack time) aggregated as a mean;
/// `virtual_end` is the simulation clock when the trial finished.
struct TrialResult {
  bool success = false;
  double value = 0.0;
  SimTime virtual_end = 0;
  /// Optional per-trial metrics snapshot (a trial that ran its Simulation
  /// with observability on fills this). Snapshots are merged index-ordered
  /// into CampaignSummary::metrics; shared_ptr keeps TrialResult cheap to
  /// move/copy for trials that don't use it.
  std::shared_ptr<const obs::MetricsSnapshot> metrics;
  // Filled in by the engine:
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::uint64_t wall_ns = 0;  // excluded from deterministic emits
};

using TrialFn = std::function<TrialResult(const TrialSpec&)>;
/// Per-worker trial factory: run_campaign() calls it once on each worker
/// thread, so the TrialFn it returns can own that worker's reusable state.
using TrialFactory = std::function<TrialFn()>;
/// Seed derivation hook: (root_seed, index) -> trial seed. The default is
/// trial_seed(); benches that predate the engine install `root + index` to
/// stay bit-compatible with their historical sequential seeding.
using SeedFn = std::function<std::uint64_t(std::uint64_t, std::size_t)>;

struct CampaignConfig {
  std::string label = "campaign";
  std::size_t trials = 100;
  std::uint64_t root_seed = 1;
  /// 0 = resolve_jobs() (BLAP_JOBS env, else hardware_concurrency).
  unsigned jobs = 0;
  SeedFn seed_fn;  // null = trial_seed (SplitMix64)
  std::size_t histogram_buckets = 12;
};

struct HistogramBucket {
  double lo = 0.0;
  double hi = 0.0;
  std::size_t count = 0;
};

struct Histogram {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::vector<HistogramBucket> buckets;
};

/// Equal-width histogram over `values`; empty input yields empty buckets.
Histogram make_histogram(const std::vector<double>& values, std::size_t bucket_count);

struct WilsonInterval {
  double low = 0.0;
  double high = 0.0;
};

/// Wilson score 95% confidence interval for a binomial proportion.
WilsonInterval wilson95(std::size_t successes, std::size_t trials);

struct CampaignSummary {
  std::string label;
  std::uint64_t root_seed = 0;
  std::size_t trials = 0;
  std::size_t successes = 0;
  double success_rate = 0.0;
  WilsonInterval ci;
  double value_mean = 0.0;
  Histogram virtual_time;  // over virtual_end, microseconds
  /// Merge of every trial's metrics snapshot (counters summed, gauges
  /// maxed, histogram buckets summed — all order-independent, so identical
  /// for any worker count). has_metrics gates the to_json() block.
  obs::MetricsSnapshot metrics;
  bool has_metrics = false;
  std::vector<TrialResult> results;  // index order

  // Throughput bookkeeping — never part of to_json()/to_csv().
  unsigned jobs_used = 1;
  std::uint64_t wall_total_ns = 0;  // whole-batch wall clock
  Histogram wall_time;              // per-trial wall ns

  /// Deterministic JSON: pure function of (label, root seed, trial results).
  /// With per_trial, includes an array of {index, seed, success, value,
  /// virtual_end_us} rows.
  [[nodiscard]] std::string to_json(bool per_trial = false) const;
  /// Deterministic CSV: one row per trial, header included.
  [[nodiscard]] std::string to_csv() const;
  /// Human-readable wall-clock/throughput report (NOT deterministic).
  [[nodiscard]] std::string timing_report() const;
};

/// Run `config.trials` independent trials of `fn` across parallel_indexed()
/// and aggregate. `fn` must be safe to call concurrently from multiple
/// threads on distinct TrialSpecs (each trial should build its own
/// Simulation from spec.seed and share nothing).
CampaignSummary run_campaign(const CampaignConfig& config, const TrialFn& fn);

/// Same campaign, with one TrialFn per worker from `make_trial`: trials a
/// worker claims run through the function it made, one after another, so
/// that function may reuse state across them (run_fork_campaign keeps its
/// warm scenario there). Results must still depend on the spec alone.
CampaignSummary run_campaign(const CampaignConfig& config, const TrialFactory& make_trial);

}  // namespace blap::campaign
