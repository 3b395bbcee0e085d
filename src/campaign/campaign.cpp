#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "common/log.hpp"

namespace blap::campaign {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Shortest %.17g-style representation that still round-trips is overkill
/// here; fixed %.6f keeps the emit byte-stable and diffable.
void append_double(std::string& out, double v) { append_fmt(out, "%.6f", v); }

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t trial_seed(std::uint64_t root_seed, std::uint64_t index) {
  // The (index+1)-th SplitMix64 output without stepping through the stream:
  // the generator's state after k steps is root + k*gamma.
  std::uint64_t state = root_seed + index * 0x9E3779B97F4A7C15ULL;
  return splitmix64(state);
}

unsigned resolve_jobs(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("BLAP_JOBS")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

Histogram make_histogram(const std::vector<double>& values, std::size_t bucket_count) {
  Histogram h;
  if (values.empty() || bucket_count == 0) return h;
  // NaN poisons min/max and makes the bucket index computation UB; ±inf
  // makes every width degenerate. Histogram only the finite samples.
  std::vector<double> finite;
  finite.reserve(values.size());
  for (double v : values)
    if (std::isfinite(v)) finite.push_back(v);
  if (finite.empty()) return h;
  h.min = *std::min_element(finite.begin(), finite.end());
  h.max = *std::max_element(finite.begin(), finite.end());
  double sum = 0.0;
  for (double v : finite) sum += v;
  h.mean = sum / static_cast<double>(finite.size());

  const double width = (h.max - h.min) / static_cast<double>(bucket_count);
  if (width <= 0.0) {
    h.buckets.push_back(HistogramBucket{h.min, h.max, finite.size()});
    return h;
  }
  h.buckets.resize(bucket_count);
  for (std::size_t b = 0; b < bucket_count; ++b) {
    h.buckets[b].lo = h.min + static_cast<double>(b) * width;
    h.buckets[b].hi = h.min + static_cast<double>(b + 1) * width;
  }
  for (double v : finite) {
    std::size_t b = static_cast<std::size_t>((v - h.min) / width);
    if (b >= bucket_count) b = bucket_count - 1;  // v == max lands in the last
    ++h.buckets[b].count;
  }
  return h;
}

WilsonInterval wilson95(std::size_t successes, std::size_t trials) {
  if (trials == 0) return {};
  constexpr double z = 1.959963984540054;  // 97.5th percentile of N(0,1)
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

std::string CampaignSummary::to_json(bool per_trial) const {
  std::string out;
  out.reserve(512 + (per_trial ? results.size() * 64 : 0));
  out += "{\n";
  append_fmt(out, "  \"campaign\": \"%s\",\n", label.c_str());
  append_fmt(out, "  \"root_seed\": %llu,\n",
             static_cast<unsigned long long>(root_seed));
  append_fmt(out, "  \"trials\": %zu,\n", trials);
  append_fmt(out, "  \"successes\": %zu,\n", successes);
  out += "  \"success_rate\": ";
  append_double(out, success_rate);
  out += ",\n  \"wilson95\": [";
  append_double(out, ci.low);
  out += ", ";
  append_double(out, ci.high);
  out += "],\n  \"value_mean\": ";
  append_double(out, value_mean);
  out += ",\n  \"virtual_time_us\": {\"min\": ";
  append_double(out, virtual_time.min);
  out += ", \"max\": ";
  append_double(out, virtual_time.max);
  out += ", \"mean\": ";
  append_double(out, virtual_time.mean);
  out += ", \"histogram\": [";
  for (std::size_t b = 0; b < virtual_time.buckets.size(); ++b) {
    if (b != 0) out += ", ";
    const auto& bucket = virtual_time.buckets[b];
    out += "{\"lo\": ";
    append_double(out, bucket.lo);
    out += ", \"hi\": ";
    append_double(out, bucket.hi);
    append_fmt(out, ", \"count\": %zu}", bucket.count);
  }
  out += "]}";
  if (has_metrics) {
    out += ",\n  \"metrics\": ";
    out += metrics.to_json("  ");
  }
  if (per_trial) {
    out += ",\n  \"per_trial\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const TrialResult& r = results[i];
      append_fmt(out, "    {\"index\": %zu, \"seed\": %llu, \"success\": %s, ",
                 r.index, static_cast<unsigned long long>(r.seed),
                 r.success ? "true" : "false");
      out += "\"value\": ";
      append_double(out, r.value);
      append_fmt(out, ", \"virtual_end_us\": %llu}%s\n",
                 static_cast<unsigned long long>(r.virtual_end),
                 i + 1 < results.size() ? "," : "");
    }
    out += "  ]";
  }
  out += "\n}\n";
  return out;
}

std::string CampaignSummary::to_csv() const {
  std::string out = "index,seed,success,value,virtual_end_us\n";
  out.reserve(out.size() + results.size() * 48);
  for (const TrialResult& r : results) {
    append_fmt(out, "%zu,%llu,%d,", r.index,
               static_cast<unsigned long long>(r.seed), r.success ? 1 : 0);
    append_double(out, r.value);
    append_fmt(out, ",%llu\n", static_cast<unsigned long long>(r.virtual_end));
  }
  return out;
}

std::string CampaignSummary::timing_report() const {
  std::string out;
  const double wall_s = static_cast<double>(wall_total_ns) * 1e-9;
  const double per_trial_ms =
      trials > 0 ? static_cast<double>(wall_total_ns) * 1e-6 /
                       static_cast<double>(trials)
                 : 0.0;
  const double rate = wall_s > 0.0 ? static_cast<double>(trials) / wall_s : 0.0;
  append_fmt(out,
             "%s: %zu trials on %u worker(s) in %.3f s wall "
             "(%.2f ms/trial, %.1f trials/s; per-trial wall %.2f..%.2f ms)",
             label.c_str(), trials, jobs_used, wall_s, per_trial_ms, rate,
             wall_time.min * 1e-6, wall_time.max * 1e-6);
  return out;
}

CampaignSummary run_campaign(const CampaignConfig& config, const TrialFn& fn) {
  return run_campaign(config, [&fn] { return TrialFn(std::cref(fn)); });
}

CampaignSummary run_campaign(const CampaignConfig& config, const TrialFactory& make_trial) {
  CampaignSummary summary;
  summary.label = config.label;
  summary.root_seed = config.root_seed;
  summary.trials = config.trials;
  if (config.trials == 0) return summary;

  const SeedFn& derive = config.seed_fn ? config.seed_fn : SeedFn(trial_seed);
  summary.results.assign(config.trials, TrialResult{});

  const auto batch_start = Clock::now();
  summary.jobs_used = parallel_indexed(config.trials, config.jobs, [&] {
    return [&, fn = make_trial()](std::size_t i) {
      TrialSpec spec{i, derive(config.root_seed, i)};
      const auto t0 = Clock::now();
      TrialResult r = fn(spec);
      const auto t1 = Clock::now();
      r.index = spec.index;
      r.seed = spec.seed;
      r.wall_ns = elapsed_ns(t0, t1);
      summary.results[i] = std::move(r);
    };
  });
  summary.wall_total_ns = elapsed_ns(batch_start, Clock::now());

  // Sequential, index-ordered aggregation: deterministic for any `jobs`.
  std::vector<double> virtual_ends;
  std::vector<double> walls;
  virtual_ends.reserve(config.trials);
  walls.reserve(config.trials);
  double value_sum = 0.0;
  for (const TrialResult& r : summary.results) {
    if (r.success) ++summary.successes;
    value_sum += r.value;
    virtual_ends.push_back(static_cast<double>(r.virtual_end));
    walls.push_back(static_cast<double>(r.wall_ns));
    if (r.metrics != nullptr && !r.metrics->empty()) {
      summary.metrics.merge_from(*r.metrics);
      summary.has_metrics = true;
    }
  }
  // trials == 0 must emit clean zeros, not 0/0 NaN, in the JSON/CSV.
  summary.success_rate =
      config.trials != 0
          ? static_cast<double>(summary.successes) / static_cast<double>(config.trials)
          : 0.0;
  summary.ci = wilson95(summary.successes, config.trials);
  summary.value_mean =
      config.trials != 0 ? value_sum / static_cast<double>(config.trials) : 0.0;
  summary.virtual_time = make_histogram(virtual_ends, config.histogram_buckets);
  summary.wall_time = make_histogram(walls, config.histogram_buckets);
  return summary;
}

}  // namespace blap::campaign
