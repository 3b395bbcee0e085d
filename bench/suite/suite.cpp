#include "suite.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace blap::bench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

const char* to_string(Scale scale) { return scale == Scale::kSmoke ? "smoke" : "full"; }

// The single source of metric names, units, directions and bounds.
// BENCHMARK.json repeats them; run.py refuses to run when the two differ.
const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s", false, 0.25},
      {"ops_per_s", "1/s", true, 0.25},
      {"op_us.p50", "us", false, 0.25},
      {"op_us.p99", "us", false, 0.25},
      {"peak_rss_mb", "MiB", false, 0.1},
  };
  return kMetrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      // Work per operation of the workload (obs counters of traced rounds).
      {"scheduler.events_per_op", "count", false},
      {"radio.pages_per_op", "count", false},
      {"radio.frames_per_op", "count", false},
      {"lmp.pdus_per_op", "count", false},
      {"lmp.pairings_per_op", "count", false},
      {"hci.packets_per_op", "count", false},
      {"host.events_per_op", "count", false},
      {"core.builds_per_op", "count", false},
      {"snapshot.restores_per_op", "count", false},
      {"analytics.records_per_op", "count", false},
      {"fuzz.features", "count", true},
      {"fuzz.keep_ratio", "frac", true},
      // Shares of the untraced op time (estimates: count x unit cost).
      {"crypto.p256_share_est", "frac", false},
      {"scheduler.share_est", "frac", false},
      {"snapshot.restore_share_est", "frac", false},
      {"core.build_share_est", "frac", false},
      {"obs.metrics_share_est", "frac", false},
      {"obs.trace_overhead_frac", "frac", false},
      {"pool.ops_per_s.jobs2", "1/s", true},
      {"pool.efficiency.jobs2", "frac", true},
      // Unit costs (probes).
      {"crypto.p256_keygen_us", "us", false},
      {"crypto.p256_ecdh_us", "us", false},
      {"crypto.f2_ns", "ns", false},
      {"crypto.e1_ns", "ns", false},
      {"crypto.saferplus_ar_ns", "ns", false},
      {"crypto.aes_cmac_1k_ns", "ns", false},
      {"hci.decode_ns", "ns", false},
      {"hci.encode_ns", "ns", false},
      {"hci.snoop_append_ns", "ns", false},
      {"scheduler.schedule_fire_ns", "ns", false},
      {"core.build_scenario_us", "us", false},
      {"core.baseline_trial_us", "us", false},
      {"core.attack_trial_us", "us", false},
      {"core.reseed_us", "us", false},
      {"core.pan_probe_us", "us", false},
      {"snapshot.capture_us", "us", false},
      {"snapshot.restore_us", "us", false},
      {"snapshot.bytes", "B", false},
      {"fuzz.mutate_ns", "ns", false},
      {"fuzz.coverage_ns", "ns", false},
      {"fuzz.execute_us.p50", "us", false},
      {"fuzz.execute_us.p99", "us", false},
      {"fuzz.feature_emit_us", "us", false},
      {"analytics.map_us", "us", false},
      {"analytics.analyze_file_us", "us", false},
      {"analytics.cursor_gb_s", "GB/s", true},
      {"analytics.detect_gb_s", "GB/s", true},
      {"analytics.analyze_gb_s", "GB/s", true},
  };
  return kMetrics;
}

const MetricDef* find_metric(std::string_view name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricDef& def : *list)
      if (def.name == name) return &def;
  return nullptr;
}

// --- SpanLog ---------------------------------------------------------------

namespace {

/// Innermost open span of this thread (parent of the next one opened).
thread_local std::int64_t t_current_span = -1;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

SpanLog::Scope::Scope(SpanLog* log, std::string name) : log_(log) {
  if (log_ == nullptr) return;
  saved_parent_ = t_current_span;
  index_ = log_->open(std::move(name), saved_parent_);
  t_current_span = index_;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->close(index_);
  t_current_span = saved_parent_;
}

std::int64_t SpanLog::open(std::string name, std::int64_t parent) {
  const std::uint64_t start = elapsed_ns(origin_);
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start, start, parent, thread_index()});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::close(std::int64_t index) {
  const std::uint64_t end = elapsed_ns(origin_);
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, std::pair<double, std::size_t>> SpanLog::self_times() const {
  const std::vector<Span> all = spans();
  std::vector<double> covered(all.size(), 0.0);
  for (const Span& s : all)
    if (s.parent >= 0)
      covered[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& [self_ns, count] = out[all[i].name];
    self_ns += static_cast<double>(all[i].end_ns - all[i].start_ns) - covered[i];
    ++count;
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  std::fputs("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"host steady_clock\"},"
             "\"traceEvents\":[",
             f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"blap_bench\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}",
                 i == 0 ? "" : ",", obs::json_escape(s.name).c_str(), s.tid,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 static_cast<long long>(s.parent));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace blap::bench
