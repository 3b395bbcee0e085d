// blap_bench — one command for every rate a user of this repository waits
// on, end to end and per layer. See README.md for the workloads, the metric
// tables and how to compare two commits.
//
//   blap_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//              [--scale full|smoke] [--json FILE] [--tmpdir DIR]
//              [--trace-out FILE]
//   blap_bench --compare PARENT.json CHANGE.json
//   blap_bench --list-metrics
//
// Without --workload every workload runs, each in its own child process (so
// peak RSS is per workload). The last line of standard output is one JSON
// object: {"attempted", "correct", "failed", "metrics"}. With --trace 1 the
// metrics are the per-layer ones, otherwise the end-to-end ones. A failed
// correctness check still prints the result, with "correct": false, and
// exits 1.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/log.hpp"
#include "crypto/sha256.hpp"
#include "json.hpp"
#include "suite.hpp"

extern char** environ;

namespace blap::bench {
namespace {

namespace fs = std::filesystem;

constexpr int kExitUsage = 2;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "blap_bench: %s\n"
               "usage: blap_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n"
               "                  [--scale full|smoke] [--json FILE] [--tmpdir DIR]\n"
               "                  [--trace-out FILE]\n"
               "       blap_bench --compare PARENT.json CHANGE.json\n"
               "       blap_bench --list-metrics\n",
               why.c_str());
  std::exit(kExitUsage);
}

struct Cli {
  Options options;
  bool seed_given = false;
  bool seconds_given = false;
  std::string json_path;
  std::vector<std::string> compare;
  bool list_metrics = false;
  // Child modes (blap_bench re-spawns itself).
  bool prepare = false;
  bool setup_probe = false;
};

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-')
    usage(std::string("bad value for ") + flag + ": " + text);
  return v;
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  // The repository's quick-run convention: BLAP_TRIALS shrinks every bench.
  cli.options.scale = std::getenv("BLAP_TRIALS") != nullptr ? Scale::kSmoke : Scale::kFull;
  const auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      cli.options.workload = need(i);
    } else if (arg == "--seed") {
      cli.options.seed = parse_u64(need(i), "--seed");
      cli.seed_given = true;
    } else if (arg == "--seconds") {
      const std::string v = need(i);
      char* end = nullptr;
      cli.options.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(cli.options.seconds > 0.0) ||
          cli.options.seconds > 3600.0)
        usage("bad value for --seconds: " + v);
      cli.seconds_given = true;
    } else if (arg == "--trace") {
      const std::string v = need(i);
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      cli.options.trace = v == "1";
    } else if (arg == "--scale") {
      const std::string v = need(i);
      if (v != "full" && v != "smoke") usage("--scale takes full or smoke");
      cli.options.scale = v == "smoke" ? Scale::kSmoke : Scale::kFull;
    } else if (arg == "--json") {
      cli.json_path = need(i);
    } else if (arg == "--tmpdir") {
      cli.options.tmpdir = need(i);
    } else if (arg == "--trace-out") {
      cli.options.trace_out = need(i);
    } else if (arg == "--compare") {
      cli.compare.push_back(need(i));
      cli.compare.push_back(need(i));
    } else if (arg == "--list-metrics") {
      cli.list_metrics = true;
    } else if (arg == "--prepare") {
      cli.prepare = true;
    } else if (arg == "--setup-probe") {
      cli.setup_probe = true;
    } else if (arg == "--input-dir") {
      cli.options.input_dir = need(i);
    } else {
      usage("unknown argument: " + arg);
    }
  }
  if (!cli.seconds_given) cli.options.seconds = cli.options.scale == Scale::kSmoke ? 1.0 : 10.0;
  if (cli.options.tmpdir.empty()) {
    const char* env = std::getenv("TMPDIR");
    cli.options.tmpdir = env != nullptr && *env != '\0' ? env : "/tmp";
  }
  cli.options.jobs2 = std::max(1u, std::min(2u, std::thread::hardware_concurrency()));
  return cli;
}

// --- child processes ---------------------------------------------------------

std::string self_exe() {
  std::error_code ec;
  const fs::path p = fs::read_symlink("/proc/self/exe", ec);
  return ec ? std::string("blap_bench") : p.string();
}

/// Run this binary with `args`, wait for it, return its exit status; its
/// standard output is collected into `*out` (stderr is inherited).
int spawn_self(const std::vector<std::string>& args, std::string* out) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string exe = self_exe();
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return -1;
  }
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out->append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::vector<std::string> child_args(const Options& o, const char* mode) {
  return {mode,       "--workload", o.workload,           "--seed",      std::to_string(o.seed),
          "--scale",  to_string(o.scale), "--input-dir", o.input_dir};
}

/// A private directory under `base`, removed with everything in it when
/// the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& base) {
    std::error_code ec;
    fs::create_directories(base, ec);
    std::string pattern = (fs::path(base) / "blap_bench.XXXXXX").string();
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- measurement -----------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// SHA-256 of each round's jobs=1 output, by round index.
  std::map<std::size_t, std::string> digests;
};

/// Fixed-size uniform sample of every latency a phase sees (seeded
/// reservoir sampling), so the benchmark's own storage does not grow with
/// the run length and show up in peak_rss_mb.
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = 20'000;
  Reservoir() { samples_.reserve(kCapacity); }
  void add(double value) {
    if (samples_.size() < kCapacity) {
      samples_.push_back(value);
    } else if (const std::uint64_t j = rng_.uniform(seen_ + 1); j < kCapacity) {
      samples_[j] = value;
    }
    ++seen_;
  }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

 private:
  std::vector<double> samples_;
  std::uint64_t seen_ = 0;
  Rng rng_{0x5EED};
};

struct Phase {
  std::size_t rounds = 0;
  std::vector<double> rate1, rate2, efficiency;
  std::map<std::size_t, double> ns_per_op;  // jobs=1, by round index
  Reservoir latency_us;
  obs::MetricsSnapshot counters;
  std::size_t counted_ops = 0;
  std::map<std::string, std::vector<double>> counts;
};

std::string sha256_hex(const std::string& text) {
  const auto digest = crypto::Sha256::hash(
      BytesView(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  return hex(digest);
}

void record(const Round& r, Tally& tally) {
  tally.attempted += r.ops;
  tally.failed += r.failed;
  tally.errors.insert(tally.errors.end(), r.errors.begin(), r.errors.end());
}

double rate(const Round& r) {
  return r.wall_ns == 0 ? 0.0 : static_cast<double>(r.ops) * 1e9 / static_cast<double>(r.wall_ns);
}

/// Rounds 0, 1, 2, ... until `seconds` have passed (at least `min_rounds`).
/// Rounds below `jobs2_rounds` also run at Options::jobs2 workers, and that
/// report must equal the jobs=1 report byte for byte.
Phase run_phase(Workload& w, const Options& o, double seconds, std::size_t min_rounds,
                std::size_t jobs2_rounds, SpanLog* spans, Tally& tally) {
  Phase phase;
  const auto start = Clock::now();
  const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t r = 0; r < min_rounds || elapsed_ns(start) < budget_ns; ++r) {
    const Round a = w.round(r, 1, spans);
    record(a, tally);
    const std::string digest = sha256_hex(a.output);
    const auto [it, fresh] = tally.digests.emplace(r, digest);
    if (!fresh && it->second != digest)
      tally.errors.push_back(strfmt("round %zu: report differs between repeats%s", r,
                                    spans != nullptr ? " (traced vs untraced)" : ""));
    phase.rate1.push_back(rate(a));
    if (a.ops > 0) phase.ns_per_op[r] = static_cast<double>(a.wall_ns) / static_cast<double>(a.ops);
    for (const double us : a.latency_us) phase.latency_us.add(us);
    phase.counters.merge_from(a.counters);
    phase.counted_ops += a.counted_ops != 0 ? a.counted_ops : a.ops;
    for (const auto& [name, value] : a.counts) phase.counts[name].push_back(value);
    if (r < jobs2_rounds) {
      const Round b = w.round(r, o.jobs2, nullptr);
      record(b, tally);
      if (b.output != a.output)
        tally.errors.push_back(
            strfmt("round %zu: report at jobs=%u differs from jobs=1", r, o.jobs2));
      phase.rate2.push_back(rate(b));
      if (b.wall_ns > 0)
        phase.efficiency.push_back(static_cast<double>(a.wall_ns) /
                                   (o.jobs2 * static_cast<double>(b.wall_ns)));
    }
    ++phase.rounds;
  }
  return phase;
}

/// Peak resident set of this process image. getrusage's ru_maxrss would
/// carry over the peak of whatever process exec'ed us; VmHWM restarts at
/// exec.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string utc_now() {
  const std::time_t t = std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

json::Value num(double v) {
  json::Value out;
  out.type = json::Value::Type::kNumber;
  out.number = v;
  return out;
}
json::Value str(std::string v) {
  json::Value out;
  out.type = json::Value::Type::kString;
  out.string = std::move(v);
  return out;
}
json::Value boolean(bool v) {
  json::Value out;
  out.type = json::Value::Type::kBool;
  out.boolean = v;
  return out;
}
json::Value object() {
  json::Value out;
  out.type = json::Value::Type::kObject;
  return out;
}

json::Value run_metadata(const Options& o, std::size_t rounds) {
  json::Value meta = object();
  meta.object["workload"] = str(o.workload);
  meta.object["trace"] = boolean(o.trace);
  meta.object["seed"] = num(static_cast<double>(o.seed));
  meta.object["scale"] = str(to_string(o.scale));
  meta.object["seconds"] = num(o.seconds);
  meta.object["rounds"] = num(static_cast<double>(rounds));
  meta.object["nproc"] = num(std::thread::hardware_concurrency());
  meta.object["jobs"] = num(1);
  meta.object["jobs2"] = num(o.jobs2);
  meta.object["build_type"] = str(BLAP_BENCH_BUILD_TYPE);
  meta.object["compiler"] = str(BLAP_BENCH_COMPILER);
  meta.object["commit"] = str(BLAP_BENCH_COMMIT);
  meta.object["utc"] = str(utc_now());
  return meta;
}

/// Append `record` to the JSON array in `path` (created when absent).
bool append_record(const std::string& path, const json::Value& record) {
  std::vector<std::string> rows;
  if (std::ifstream in(path); in) {
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string why;
    const auto existing = json::parse(buffer.str(), &why);
    if (!existing || existing->type != json::Value::Type::kArray) {
      std::fprintf(stderr, "blap_bench: %s is not a results array (%s)\n", path.c_str(),
                   why.c_str());
      return false;
    }
    for (const auto& row : existing->array) rows.push_back(json::dump(row));
  }
  rows.push_back(json::dump(record));
  std::ofstream out(path, std::ios::trunc);
  out << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) out << rows[i] << (i + 1 < rows.size() ? ",\n" : "\n");
  out << "]\n";
  return static_cast<bool>(out.flush());
}

/// Median cold set-up time: each sample is a fresh process running only the
/// workload's one-time set-up calls, timed inside that process.
double measure_setup_s(const Options& o, std::vector<std::string>& errors) {
  const std::size_t samples = o.scale == Scale::kSmoke ? 3 : 9;
  std::vector<double> seconds;
  for (std::size_t i = 0; i < samples; ++i) {
    std::string out;
    const int rc = spawn_self(child_args(o, "--setup-probe"), &out);
    double value = 0.0;
    if (rc != 0 || std::sscanf(out.c_str(), "setup_ns %lf", &value) != 1) {
      errors.push_back("set-up probe process failed");
      return 0.0;
    }
    seconds.push_back(value * 1e-9);
  }
  return median(seconds);
}

void print_metric(const MetricDef& def, double value) {
  std::printf("  %-28s %20s %s\n", std::string(def.name).c_str(), json::number(value).c_str(),
              std::string(def.unit).c_str());
}

/// What one "op" is, per workload, for the printed report.
const char* op_name(std::string_view workload) {
  if (workload == "stack_fuzz") return "fuzz executions";
  if (workload == "fleet_scan" || workload == "fleet_bulk") return "capture files";
  return "trials";
}

/// The traced run: fills `m` with every per-layer metric and returns the
/// number of rounds it ran.
std::size_t per_layer(Workload& w, const Options& o, double seconds, Tally& tally,
                      SpanLog& spans, const std::string& scratch,
                      std::map<std::string, double>& m) {
  const Phase plain = run_phase(w, o, 0.45 * seconds, 1, SIZE_MAX, nullptr, tally);
  const Phase traced = run_phase(w, o, 0.45 * seconds, 1, 0, &spans, tally);
  run_layer_probes(o, scratch, spans, m);

  std::vector<double> op_ns;
  std::vector<double> overhead;
  for (const auto& [r, ns] : plain.ns_per_op) {
    op_ns.push_back(ns);
    if (const auto it = traced.ns_per_op.find(r); it != traced.ns_per_op.end())
      overhead.push_back(it->second / ns - 1.0);
  }
  const double op_us = median(op_ns) * 1e-3;
  m["obs.trace_overhead_frac"] = median(overhead);
  m["pool.ops_per_s.jobs2"] = median(plain.rate2);
  m["pool.efficiency.jobs2"] = median(plain.efficiency);

  const auto per_op = [&](std::initializer_list<const char*> counters) {
    double total = 0.0;
    for (const char* c : counters)
      if (const auto it = traced.counters.counters.find(c); it != traced.counters.counters.end())
        total += static_cast<double>(it->second);
    return traced.counted_ops == 0 ? 0.0 : total / static_cast<double>(traced.counted_ops);
  };
  m["scheduler.events_per_op"] = per_op({"scheduler.events_dispatched"});
  m["radio.pages_per_op"] = per_op({"radio.pages"});
  m["radio.frames_per_op"] = per_op({"radio.frames"});
  m["lmp.pdus_per_op"] = per_op({"lmp.tx"});
  m["lmp.pairings_per_op"] = per_op({"lmp.pairings_started"});
  m["hci.packets_per_op"] = per_op({"hci.cmd.total", "hci.evt.total", "hci.acl.tx"});
  m["host.events_per_op"] = per_op({"host.events_dispatched"});
  for (const char* name : {"core.builds_per_op", "snapshot.restores_per_op",
                           "analytics.records_per_op", "fuzz.features", "fuzz.keep_ratio"}) {
    const auto it = traced.counts.find(name);
    m[name] = it == traced.counts.end() ? 0.0 : median(it->second);
  }

  // Each pairing side runs one P-256 key generation and one ECDH
  // (src/controller/controller.cpp: generate_keypair at send_public_key and
  // on_lmp_public_key, ecdh_shared_secret in on_lmp_public_key), and
  // lmp.pairings_started counts sides. P-192 sides cost less, so this is an
  // upper bound.
  m["crypto.p256_share_est"] =
      m["lmp.pairings_per_op"] * (m["crypto.p256_keygen_us"] + m["crypto.p256_ecdh_us"]) / op_us;
  m["scheduler.share_est"] =
      m["scheduler.events_per_op"] * m["scheduler.schedule_fire_ns"] * 1e-3 / op_us;
  m["snapshot.restore_share_est"] =
      m["snapshot.restores_per_op"] * m["snapshot.restore_us"] / op_us;
  m["core.build_share_est"] = m["core.builds_per_op"] * m["core.build_scenario_us"] / op_us;

  std::printf("untraced: %zu round(s), %.3f us/op; traced: %zu round(s)\n", plain.rounds, op_us,
              traced.rounds);
  std::printf("host-clock span self time (traced rounds and probes):\n");
  std::printf("  %-34s %12s %10s\n", "span", "self ms", "count");
  for (const auto& [name, self] : spans.self_times())
    std::printf("  %-34s %12.3f %10zu\n", name.c_str(), self.first * 1e-6, self.second);
  return plain.rounds + traced.rounds;
}

int run_workload(Cli& cli) {
  Options& o = cli.options;
  const auto w = make_workload(o.workload, o);
  if (w == nullptr) usage("unknown workload: " + o.workload);
  if (!cli.seed_given) o.seed = w->default_seed();

  if (cli.prepare) return w->prepare(o) ? 0 : 1;
  if (cli.setup_probe) {
    const auto t0 = Clock::now();
    w->setup(o);
    std::printf("setup_ns %llu\n", static_cast<unsigned long long>(elapsed_ns(t0)));
    return 0;
  }

  const std::string build_type = BLAP_BENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo")
    std::fprintf(stderr, "blap_bench: warning: build type '%s' is not optimized; timings are "
                         "not comparable\n", build_type.c_str());
  std::printf("blap_bench: workload=%s seed=%llu scale=%s seconds=%s trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), to_string(o.scale),
              json::number(o.seconds).c_str(), o.trace ? 1 : 0);
  std::fflush(stdout);

  Tally tally;
  const ScratchDir scratch(o.tmpdir);
  if ((w->needs_inputs() || o.trace) && scratch.path().empty()) {
    std::fprintf(stderr, "blap_bench: cannot create a scratch directory under %s\n",
                 o.tmpdir.c_str());
    return 1;
  }
  if (w->needs_inputs()) {
    o.input_dir = scratch.path() + "/inputs";
    std::error_code ec;
    fs::create_directories(o.input_dir, ec);
    std::string out;
    if (ec || spawn_self(child_args(o, "--prepare"), &out) != 0) {
      std::fprintf(stderr, "blap_bench: generating the %s inputs failed\n", o.workload.c_str());
      return 1;
    }
  }
  const double setup_s = o.trace ? 0.0 : measure_setup_s(o, tally.errors);
  if (!w->load(o)) {
    std::fprintf(stderr, "blap_bench: loading the %s inputs failed\n", o.workload.c_str());
    return 1;
  }

  std::map<std::string, double> metrics;
  std::size_t rounds = 0;
  SpanLog spans;
  if (o.trace) {
    rounds = per_layer(*w, o, o.seconds, tally, spans, scratch.path(), metrics);
    if (!o.trace_out.empty() && !spans.write_chrome_json(o.trace_out))
      std::fprintf(stderr, "blap_bench: cannot write %s\n", o.trace_out.c_str());
  } else {
    // Timed rounds run at jobs=1; round 0 also runs at jobs2 for the
    // worker-count identity check (the jobs2 rate is per-layer, measured
    // by --trace 1: on a shared host it is too noisy to bound).
    const Phase phase = run_phase(*w, o, o.seconds, 3, 1, nullptr, tally);
    rounds = phase.rounds;
    metrics["setup_s"] = setup_s;
    metrics["ops_per_s"] = median(phase.rate1);
    const std::vector<double>& latency = phase.latency_us.samples();
    metrics["op_us.p50"] = quantile(latency, 0.5);
    metrics["op_us.p99"] = quantile(latency, 0.99);
    metrics["peak_rss_mb"] = peak_rss_mib();
    std::printf("%zu round(s) at jobs=1 (+1 at jobs=%u); op = one of the %s; latency n=%zu "
                "(uniform sample of %llu)%s\n",
                phase.rounds, o.jobs2, op_name(o.workload), latency.size(),
                static_cast<unsigned long long>(phase.latency_us.seen()),
                latency.size() < 1000 ? "; fewer than 10 samples beyond p99" : "");
  }
  w->finish(tally.errors);

  const std::string pinned = pinned_digest(o.workload, o.scale);
  const auto round0 = tally.digests.find(0);
  const std::string digest = round0 == tally.digests.end() ? std::string() : round0->second;
  if (!cli.seed_given || o.seed == w->default_seed()) {
    if (pinned.empty())
      std::printf("digest: %s (no pinned digest for this scale)\n", digest.c_str());
    else if (pinned == digest)
      std::printf("digest: %s (matches the pinned digest)\n", digest.c_str());
    else
      tally.errors.push_back("round-0 report digest mismatch: expected (pinned) " + pinned +
                             ", actual " + digest);
  } else {
    std::printf("digest: %s (seed %llu is not the pinned default)\n", digest.c_str(),
                static_cast<unsigned long long>(o.seed));
  }

  const json::Value meta = run_metadata(o, rounds);
  std::printf("meta: %s\n", json::dump(meta).c_str());
  const auto& defs = o.trace ? per_layer_metrics() : end_to_end_metrics();
  json::Value metric_values = object();
  for (const MetricDef& def : defs) {
    const auto it = metrics.find(std::string(def.name));
    const double value = it == metrics.end() ? 0.0 : it->second;
    if (it == metrics.end()) tally.errors.push_back("metric not measured: " + std::string(def.name));
    print_metric(def, value);
    json::Value entry = object();
    entry.object["value"] = num(value);
    entry.object["unit"] = str(std::string(def.unit));
    metric_values.object[std::string(def.name)] = std::move(entry);
  }
  for (const auto& e : tally.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("checks: %s (%llu %s attempted, %llu failed)\n",
              tally.errors.empty() ? "all passed" : "FAILED",
              static_cast<unsigned long long>(tally.attempted), op_name(o.workload),
              static_cast<unsigned long long>(tally.failed));

  const bool correct = tally.errors.empty();
  json::Value result = object();
  result.object["correct"] = boolean(correct);
  result.object["attempted"] = num(static_cast<double>(std::max<std::uint64_t>(1, tally.attempted)));
  result.object["failed"] = num(static_cast<double>(tally.failed));
  result.object["metrics"] = metric_values;
  if (!cli.json_path.empty()) {
    json::Value row = result;
    row.object["meta"] = meta;
    row.object["workload"] = str(o.workload);
    row.object["trace"] = boolean(o.trace);
    row.object["digest"] = str(digest);
    if (!append_record(cli.json_path, row)) return 1;
  }
  std::printf("%s\n", json::dump(result).c_str());
  return correct ? 0 : 1;
}

/// No --workload: every workload in its own child process, in order.
int run_suite(const Cli& cli) {
  bool correct = true;
  double attempted = 0.0;
  double failed = 0.0;
  json::Value all = object();
  for (const std::string& name : workload_names()) {
    std::vector<std::string> args = {"--workload", name,
                                     "--seconds", json::number(cli.options.seconds),
                                     "--trace", cli.options.trace ? "1" : "0",
                                     "--scale", to_string(cli.options.scale),
                                     "--tmpdir", cli.options.tmpdir};
    if (cli.seed_given) args.insert(args.end(), {"--seed", std::to_string(cli.options.seed)});
    if (!cli.json_path.empty()) args.insert(args.end(), {"--json", cli.json_path});
    if (!cli.options.trace_out.empty()) {
      std::string path = cli.options.trace_out;
      if (path.size() > 5 && path.ends_with(".json")) path.resize(path.size() - 5);
      args.insert(args.end(), {"--trace-out", path + "-" + name + ".json"});
    }
    std::string out;
    const int rc = spawn_self(args, &out);
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
    std::string last;
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);)
      if (!line.empty()) last = line;
    const auto parsed = json::parse(last);
    const json::Value* metrics = parsed ? parsed->find("metrics") : nullptr;
    if (rc != 0 || metrics == nullptr) correct = false;
    if (parsed) {
      if (const auto* v = parsed->find("attempted")) attempted += v->number;
      if (const auto* v = parsed->find("failed")) failed += v->number;
      if (const auto* v = parsed->find("correct"); v == nullptr || !v->boolean) correct = false;
    }
    if (metrics != nullptr) all.object[name] = *metrics;
  }
  json::Value result = object();
  result.object["correct"] = boolean(correct);
  result.object["attempted"] = num(std::max(1.0, attempted));
  result.object["failed"] = num(failed);
  result.object["metrics"] = all;
  std::printf("%s\n", json::dump(result).c_str());
  return correct ? 0 : 1;
}

// --- --compare ---------------------------------------------------------------------

std::optional<std::vector<json::Value>> load_runs(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "blap_bench: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string why;
  auto parsed = json::parse(buffer.str(), &why);
  if (!parsed || parsed->type != json::Value::Type::kArray) {
    std::fprintf(stderr, "blap_bench: %s is not a results array (%s)\n", path.c_str(),
                 why.c_str());
    return std::nullopt;
  }
  return std::move(parsed->array);
}

struct Series {
  std::vector<double> parent;
  std::vector<double> change;
};

/// The choosing-metrics rules: a gain needs at least ten pairs, >= 9/10
/// pair wins and a median gap wider than the parent's IQR; a regression is a
/// median worse by more than the metric's bound; a spread wider than the
/// bound is unresolved unless every change run beats every parent run.
/// Per-layer metrics have no bound, so their regressions mirror the gain
/// rule.
std::string verdict(const MetricDef* def, const Series& s, std::size_t* wins_out,
                    std::size_t* pairs_out) {
  const bool higher = def != nullptr && def->higher_better;
  const auto better = [higher](double c, double p) { return higher ? c > p : c < p; };
  const std::size_t pairs = std::min(s.parent.size(), s.change.size());
  std::size_t wins = 0;
  std::size_t losses = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    if (better(s.change[i], s.parent[i])) ++wins;
    if (better(s.parent[i], s.change[i])) ++losses;
  }
  *wins_out = wins;
  *pairs_out = pairs;
  if (pairs == 0) return "unresolved";
  const double mp = median(s.parent);
  const double mc = median(s.change);
  const double iqr = quantile(s.parent, 0.75) - quantile(s.parent, 0.25);
  const double gain = higher ? mc - mp : mp - mc;
  const auto threshold = 0.9 * static_cast<double>(pairs);
  // Fewer than ten pairs can show a regression past the bound, never a
  // resolved gain.
  const bool enough = pairs >= 10;
  if (static_cast<double>(wins) >= threshold && gain > iqr)
    return enough ? "improved" : "unresolved";
  const double scale = std::abs(mp) > 0.0 ? std::abs(mp) : 1.0;
  if (def != nullptr && def->bound > 0.0) {
    bool all_better = true;
    for (const double c : s.change)
      for (const double p : s.parent) all_better = all_better && better(c, p);
    if (iqr / scale > def->bound) return all_better ? "unchanged" : "unresolved";
    return -gain / scale > def->bound ? "regressed" : "unchanged";
  }
  if (static_cast<double>(losses) >= threshold && -gain > iqr)
    return enough ? "regressed" : "unresolved";
  return "unchanged";
}

int compare(const std::string& parent_path, const std::string& change_path) {
  const auto parent = load_runs(parent_path);
  const auto change = load_runs(change_path);
  if (!parent || !change) return kExitUsage;

  // (workload, trace) -> metric -> series, runs paired in file order.
  std::map<std::string, std::map<std::string, Series>> table;
  const auto add = [&](const std::vector<json::Value>& runs, bool is_parent) {
    for (const auto& run : runs) {
      const auto* workload = run.find("workload");
      const auto* trace = run.find("trace");
      const auto* metrics = run.find("metrics");
      if (workload == nullptr || metrics == nullptr) continue;
      const std::string key =
          workload->string + (trace != nullptr && trace->boolean ? " (trace)" : "");
      auto& series = table[key];
      for (const auto& [name, entry] : metrics->object) {
        const auto* value = entry.find("value");
        if (value == nullptr) continue;
        (is_parent ? series[name].parent : series[name].change).push_back(value->number);
      }
      const auto* attempted = run.find("attempted");
      const auto* failed = run.find("failed");
      if (attempted != nullptr && failed != nullptr && attempted->number > 0) {
        auto& f = series["failed_frac"];
        (is_parent ? f.parent : f.change).push_back(failed->number / attempted->number);
      }
    }
  };
  add(*parent, true);
  add(*change, false);

  bool regressed = false;
  std::printf("%-26s %-28s %-26s %-26s %-7s %s\n", "workload", "metric",
              "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict");
  for (const auto& [workload, metrics] : table) {
    for (const auto& [name, series] : metrics) {
      std::size_t wins = 0;
      std::size_t pairs = 0;
      std::string v;
      if (name == "failed_frac") {
        // Failures must not rise, whatever the spread.
        v = median(series.change) > median(series.parent) ? "regressed" : "unchanged";
        pairs = std::min(series.parent.size(), series.change.size());
      } else {
        v = verdict(find_metric(name), series, &wins, &pairs);
      }
      const MetricDef* def = find_metric(name);
      if (v == "regressed" && (name == "failed_frac" || (def != nullptr && def->bound > 0.0)))
        regressed = true;
      const auto fmt = [](const std::vector<double>& x) {
        return strfmt("%.4g [%.4g, %.4g]", median(x), quantile(x, 0.25), quantile(x, 0.75));
      };
      std::printf("%-26s %-28s %-26s %-26s %3zu/%-3zu %s\n", workload.c_str(), name.c_str(),
                  fmt(series.parent).c_str(), fmt(series.change).c_str(), wins, pairs,
                  v.c_str());
    }
  }
  return regressed ? 1 : 0;
}

int list_metrics() {
  json::Value out = object();
  for (const auto& [key, defs] :
       {std::pair{"end_to_end", &end_to_end_metrics()}, std::pair{"per_layer", &per_layer_metrics()}}) {
    json::Value list;
    list.type = json::Value::Type::kArray;
    for (const MetricDef& def : *defs) {
      json::Value entry = object();
      entry.object["name"] = str(std::string(def.name));
      entry.object["unit"] = str(std::string(def.unit));
      entry.object["better"] = str(def.higher_better ? "higher" : "lower");
      if (def.bound > 0.0) entry.object["bound"] = num(def.bound);
      list.array.push_back(std::move(entry));
    }
    out.object[key] = std::move(list);
  }
  json::Value names;
  names.type = json::Value::Type::kArray;
  for (const auto& name : workload_names()) names.array.push_back(str(name));
  out.object["workloads"] = std::move(names);
  std::printf("%s\n", json::dump(out).c_str());
  return 0;
}

}  // namespace
}  // namespace blap::bench

int main(int argc, char** argv) {
  using namespace blap::bench;
  Cli cli = parse_cli(argc, argv);
  if (cli.list_metrics) return list_metrics();
  if (!cli.compare.empty()) return compare(cli.compare[0], cli.compare[1]);
  if (cli.options.workload.empty()) return run_suite(cli);
  return run_workload(cli);
}
