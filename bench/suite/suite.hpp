// suite.hpp — shared pieces of blap_bench: options, the metric registry,
// host-clock spans, statistics and the workload interface.
//
// Every number here is host wall time measured from outside the program,
// around calls into public APIs of one layer. Nothing in this directory
// reaches into src/ internals, and no wall-clock value ever flows into a
// simulation, a report or a virtual-time trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"

namespace blap::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t elapsed_ns(Clock::time_point from,
                                              Clock::time_point to = Clock::now()) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Linear-interpolated quantile (q in [0, 1]) — the same rule as Python's
/// statistics.quantiles(method="inclusive"). 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

enum class Scale : std::uint8_t { kFull, kSmoke };
[[nodiscard]] const char* to_string(Scale scale);

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Directory for generated inputs and probe files (a fresh mkdtemp child
  /// is made under it and removed at exit).
  std::string tmpdir;
  /// Chrome trace-event JSON of the host-clock spans (--trace only).
  std::string trace_out;
  /// Workers for the `.jobs2` rates: min(2, nproc).
  unsigned jobs2 = 2;
  /// Inputs directory prepared by a `--prepare` child (fleet workloads).
  std::string input_dir;
};

// --- metric registry ---------------------------------------------------------

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  bool higher_better = false;
  /// End-to-end only: the share of the parent's median by which the metric
  /// may worsen before a change counts as a regression (BENCHMARK.json).
  double bound = 0.0;
};

[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();
[[nodiscard]] const MetricDef* find_metric(std::string_view name);

// --- host-clock spans ----------------------------------------------------------

/// In-memory span log: one record per timed call, with its parent, kept
/// until the run ends and then written as Chrome trace-event JSON. Host
/// clock only — a separate file from every virtual-time trace.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;  // since the log was created
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  // index into spans(), -1 for a root
    std::uint32_t tid = 0;
  };

  /// RAII span: opens on construction, closes on destruction. A null log
  /// makes it a no-op, so untraced rounds pay one branch.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
  };

  SpanLog() : origin_(Clock::now()) {}

  [[nodiscard]] std::vector<Span> spans() const;
  /// Per span name: (self ns summed, count). Self time is the span's
  /// duration minus the part its child spans cover.
  [[nodiscard]] std::map<std::string, std::pair<double, std::size_t>> self_times() const;
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  std::int64_t open(std::string name, std::int64_t parent);
  void close(std::int64_t index);

  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

// --- workloads -------------------------------------------------------------------

/// One measured round: a fixed batch of operations at one worker count.
struct Round {
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::uint64_t wall_ns = 0;
  /// Deterministic output (report JSON); must not depend on jobs or timing.
  std::string output;
  /// Per-operation latencies in µs (jobs=1 rounds only).
  std::vector<double> latency_us;
  /// Merged obs counters of the round's simulations (traced rounds only),
  /// covering `counted_ops` operations (0 means all `ops`).
  obs::MetricsSnapshot counters;
  std::size_t counted_ops = 0;
  /// Workload-specific per-layer counts (already per op where named so).
  std::map<std::string, double> counts;
  /// Correctness checks that failed in this round.
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::uint64_t default_seed() const = 0;
  /// True when the workload reads files a `--prepare` child writes first.
  [[nodiscard]] virtual bool needs_inputs() const { return false; }
  /// Write the inputs for options.seed into options.input_dir (runs in its
  /// own process, so generation never shows in the measured process's peak
  /// RSS).
  virtual bool prepare(const Options& /*options*/) { return true; }
  /// The program's one-time set-up for this workload, called once in a
  /// fresh process and timed there (setup_s).
  virtual void setup(const Options& options) = 0;
  /// Untimed preparation before the first round: take the seed, load
  /// inputs, build warm state.
  virtual bool load(const Options& options) = 0;
  /// Run round `index` with `jobs` workers. `spans` is non-null in traced
  /// rounds, which also turn on the simulations' obs counters.
  [[nodiscard]] virtual Round round(std::size_t index, unsigned jobs, SpanLog* spans) = 0;
  /// End-of-run checks over everything the rounds saw (e.g. Table II bands).
  virtual void finish(std::vector<std::string>& /*errors*/) {}
};

[[nodiscard]] std::vector<std::string> workload_names();
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      const Options& options);

/// Pinned SHA-256 of round 0's output at the default seed, or "" if none.
[[nodiscard]] std::string pinned_digest(std::string_view workload, Scale scale);

/// An ACL-heavy btsnoop capture shaped like a long pairing-plus-traffic
/// connection (connection/authentication punctuation every 64 records).
[[nodiscard]] Bytes synthetic_capture(Rng& rng, std::size_t records);
[[nodiscard]] bool write_file(const std::string& path, BytesView data);

// --- per-layer probes ----------------------------------------------------------

/// Unit-cost probes of every layer, measured in every traced run so each
/// workload reports every per-layer metric. Fills `metrics` by name.
void run_layer_probes(const Options& options, const std::string& scratch_dir, SpanLog& spans,
                      std::map<std::string, double>& metrics);

}  // namespace blap::bench
