// workloads.cpp — the five blap_bench workloads.
//
// Each workload is a closed loop from one process: a round is a fixed batch
// of operations handed to one public engine call (run_campaign,
// run_fork_campaign, run_fuzz_campaign, analyze_files), timed from outside.
// Rounds are deterministic in (seed, round index) and never depend on the
// worker count, so the jobs=1 and jobs=2 rounds of one index must produce
// byte-identical reports, which blap_bench checks in every run.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>

#include "analytics/corpus.hpp"
#include "analytics/detector.hpp"
#include "analytics/fleet.hpp"
#include "campaign/campaign.hpp"
#include "common/log.hpp"
#include "core/page_blocking.hpp"
#include "core/profiles.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/targets.hpp"
#include "hci/snoop.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/fork_campaign.hpp"
#include "snapshot/scenarios.hpp"
#include "snapshot/snapshot.hpp"
#include "suite.hpp"

namespace blap::bench {
namespace {

namespace fs = std::filesystem;

/// Trial i of a campaign rooted at `root` gets seed root+i, and each cell's
/// root follows the previous cell's seeds — the seeding
/// bench_table2_page_blocking and bench_snapshot_fork use.
std::uint64_t sequential_seed(std::uint64_t root, std::size_t index) { return root + index; }

/// Thread-safe accumulator for the obs counters of a traced round.
class CounterSink {
 public:
  void add(const obs::MetricsSnapshot& snapshot) {
    const std::lock_guard<std::mutex> lock(mu_);
    merged_.merge_from(snapshot);
  }
  [[nodiscard]] obs::MetricsSnapshot take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(merged_);
  }

 private:
  std::mutex mu_;  // guards merged_
  obs::MetricsSnapshot merged_;
};

void enable_counters(core::Simulation& sim) {
  if (sim.observer() == nullptr) sim.enable_observability({.tracing = false, .metrics = true});
}

std::vector<double> trial_latencies_us(const campaign::CampaignSummary& summary) {
  std::vector<double> out;
  out.reserve(summary.results.size());
  for (const auto& r : summary.results) out.push_back(static_cast<double>(r.wall_ns) * 1e-3);
  return out;
}

std::size_t count_failures(const campaign::CampaignSummary& summary) {
  return static_cast<std::size_t>(
      std::count_if(summary.results.begin(), summary.results.end(),
                    [](const campaign::TrialResult& r) { return !r.success; }));
}

// --- table2_sweep ---------------------------------------------------------------

/// Table II, rebuild per trial: 7 victims x {baseline, attack}, every trial
/// builds its topology and runs one SSP pairing (P-256) with the accessory's
/// HCI dump on. Stresses crypto, the core build, the whole simulated stack
/// and the snoop write path; the snapshot layer does nothing here.
class Table2Sweep final : public Workload {
 public:
  explicit Table2Sweep(const Options& options)
      : trials_(options.scale == Scale::kSmoke ? 4 : 10) {}

  std::uint64_t default_seed() const override { return 10'000; }

  void setup(const Options& options) override {
    const auto s = snapshot::build_scenario(options.seed, cell_params(0));
    (void)s;
  }

  bool load(const Options& options) override {
    seed_ = options.seed;
    tally_.assign(core::table2_profiles().size(), {});
    return true;
  }

  Round round(std::size_t index, unsigned jobs, SpanLog* spans) override {
    Round out;
    CounterSink counters;
    const auto& profiles = core::table2_profiles();
    const std::uint64_t cells = 2 * profiles.size();
    std::uint64_t root = seed_ + index * cells * trials_;
    const bool tally_round = jobs == 1 && tallied_.insert(index).second;

    for (std::size_t p = 0; p < profiles.size(); ++p) {
      const snapshot::ScenarioParams params = cell_params(p);
      for (const bool attack : {false, true}) {
        campaign::CampaignConfig cfg;
        cfg.label = profiles[p].model + (attack ? " page blocking" : " baseline");
        cfg.trials = trials_;
        cfg.root_seed = root;
        cfg.jobs = jobs;
        cfg.seed_fn = sequential_seed;
        root += trials_;

        const auto trial = [&, attack](const campaign::TrialSpec& spec) {
          const SpanLog::Scope t(spans, "campaign.trial");
          snapshot::Scenario s = [&] {
            const SpanLog::Scope b(spans, "core.build_scenario");
            return snapshot::build_scenario(spec.seed, params);
          }();
          if (spans != nullptr) enable_counters(*s.sim);
          campaign::TrialResult r;
          if (attack) {
            const SpanLog::Scope body(spans, "core.attack_trial");
            r.success = core::PageBlockingAttack::run(*s.sim, *s.attacker, *s.accessory,
                                                      *s.target, {})
                            .mitm_established;
          } else {
            const SpanLog::Scope body(spans, "core.baseline_trial");
            r.success = core::PageBlockingAttack::baseline_trial(*s.sim, *s.attacker,
                                                                 *s.accessory, *s.target);
          }
          r.virtual_end = s.sim->now();
          if (spans != nullptr) counters.add(s.sim->observer()->snapshot());
          return r;
        };

        const auto start = Clock::now();
        const campaign::CampaignSummary summary = [&] {
          const SpanLog::Scope c(spans, "campaign.run_campaign");
          return campaign::run_campaign(cfg, trial);
        }();
        out.wall_ns += elapsed_ns(start);
        out.ops += summary.trials;
        out.output += summary.to_json(true);
        if (jobs == 1) {
          const auto lat = trial_latencies_us(summary);
          out.latency_us.insert(out.latency_us.end(), lat.begin(), lat.end());
        }
        if (attack) {
          const std::size_t missed = count_failures(summary);
          out.failed += missed;
          if (missed != 0)
            out.errors.push_back(strfmt("round %zu: %s reached MITM in %zu/%zu trials", index,
                                        cfg.label.c_str(), summary.successes, summary.trials));
        } else if (tally_round) {
          tally_[p].first += summary.successes;
          tally_[p].second += summary.trials;
        }
      }
    }
    out.counters = counters.take();
    out.counts["core.builds_per_op"] = 1.0;
    return out;
  }

  /// Baseline cells must sit inside bench_table2_page_blocking's band:
  /// |measured - paper| <= max(15 points, 3.5 sigma) over every distinct
  /// round this run executed.
  void finish(std::vector<std::string>& errors) override {
    const auto& profiles = core::table2_profiles();
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      const auto [successes, trials] = tally_[p];
      if (trials == 0) continue;
      const double expected = 100.0 * profiles[p].baseline_mitm_success;
      const double measured =
          100.0 * static_cast<double>(successes) / static_cast<double>(trials);
      const double sigma = 100.0 * std::sqrt(profiles[p].baseline_mitm_success *
                                             (1.0 - profiles[p].baseline_mitm_success) /
                                             static_cast<double>(trials));
      if (std::abs(measured - expected) > std::max(15.0, 3.5 * sigma))
        errors.push_back(strfmt("%s baseline %.1f%% over %zu trials is outside %.0f%% +/- "
                                "max(15, 3.5 sigma)",
                                profiles[p].model.c_str(), measured, trials, expected));
    }
  }

 private:
  static snapshot::ScenarioParams cell_params(std::size_t profile_index) {
    snapshot::ScenarioParams params;
    params.kind = snapshot::ScenarioParams::Kind::kAbc;
    params.table = snapshot::ProfileTable::kTable2;
    params.profile_index = profile_index;
    params.accessory_transport = core::TransportKind::kUart;
    params.accessory_has_dump = true;
    params.baseline_bias = core::table2_profiles()[profile_index].baseline_mitm_success;
    return params;
  }

  std::uint64_t seed_ = 0;
  std::size_t trials_;
  std::vector<std::pair<std::size_t, std::size_t>> tally_;  // per profile: successes, trials
  std::set<std::size_t> tallied_;
};

// --- bonded_fork -------------------------------------------------------------

/// The paper's link-key validation probe (PAN connect over the stored bond),
/// 5 virtual seconds, forked from the warm bonded cell.
campaign::TrialResult pan_probe(snapshot::Scenario& s) {
  bool validated = false;
  s.accessory->host().connect_pan(s.target->address(),
                                  [&validated](bool ok) { validated = ok; });
  s.sim->run_for(5 * kSecond);
  campaign::TrialResult r;
  r.success = validated;
  r.virtual_end = s.sim->now();
  return r;
}

std::string trial_row(const campaign::TrialResult& r) {
  return strfmt("%zu %llu %d %a %llu", r.index, static_cast<unsigned long long>(r.seed),
                r.success ? 1 : 0, r.value, static_cast<unsigned long long>(r.virtual_end));
}

/// Snapshot fork of the bonded cell: restore + reseed + PAN probe per
/// trial. No ECDH and no per-trial build, so a P-256 or build speed-up must
/// leave this workload's rate unchanged; E1/SAFER+ authentication, the
/// scheduler, radio paging and snapshot restore do the work.
class BondedFork final : public Workload {
 public:
  explicit BondedFork(const Options& options)
      : trials_(options.scale == Scale::kSmoke ? 500 : 2'000) {}

  std::uint64_t default_seed() const override { return 20'000; }

  void setup(const Options& options) override {
    snapshot::Scenario s = snapshot::build_scenario(options.seed, snapshot::bonded_cell_params());
    snapshot::bonded_warm_setup(s);
    const auto warm = snapshot::Snapshot::capture(*s.sim);
    (void)warm;
  }

  bool load(const Options& options) override {
    seed_ = options.seed;
    return true;
  }

  Round round(std::size_t index, unsigned jobs, SpanLog* spans) override {
    Round out;
    CounterSink counters;
    campaign::CampaignConfig cfg;
    cfg.label = "bonded PAN probe";
    cfg.trials = trials_;
    cfg.root_seed = seed_ + index * trials_;
    cfg.jobs = jobs;
    cfg.seed_fn = sequential_seed;

    const auto body = [&](const campaign::TrialSpec&, snapshot::Scenario& s) {
      const SpanLog::Scope t(spans, "core.pan_probe");
      if (spans != nullptr) enable_counters(*s.sim);
      campaign::TrialResult r = pan_probe(s);
      if (spans != nullptr) counters.add(s.sim->observer()->snapshot());
      return r;
    };
    snapshot::ForkStats stats;
    const auto start = Clock::now();
    const campaign::CampaignSummary summary = [&] {
      const SpanLog::Scope c(spans, "snapshot.run_fork_campaign");
      return snapshot::run_fork_campaign(cfg, snapshot::bonded_cell_params(), body, nullptr,
                                         &stats, snapshot::bonded_warm_setup);
    }();
    out.wall_ns = elapsed_ns(start);
    out.ops = summary.trials;
    out.failed = count_failures(summary);
    out.output = summary.to_json(true);
    if (!stats.fork_used)
      out.errors.push_back("round " + std::to_string(index) +
                           ": fork fell back to rebuilds: " + stats.fallback_reason);
    if (out.failed != 0)
      out.errors.push_back(strfmt("round %zu: %zu/%zu PAN probes did not validate the bond",
                                  index, out.failed, out.ops));
    if (jobs == 1) {
      out.latency_us = trial_latencies_us(summary);
      check_against_rebuild(cfg, summary, index * trials_, spans, out.errors);
    }
    out.counters = counters.take();
    out.counts["snapshot.restores_per_op"] = 1.0;
    return out;
  }

 private:
  /// Fork ≡ rebuild: every 5000th trial of the run (`first` is this
  /// round's first trial number) re-runs down the rebuild path (build +
  /// warm-up + reseed) and its per-trial row must be identical.
  static void check_against_rebuild(const campaign::CampaignConfig& cfg,
                                    const campaign::CampaignSummary& summary, std::size_t first,
                                    SpanLog* spans, std::vector<std::string>& errors) {
    constexpr std::size_t kEvery = 5'000;
    for (std::size_t i = (kEvery - first % kEvery) % kEvery; i < summary.results.size();
         i += kEvery) {
      const SpanLog::Scope c(spans, "check.rebuild_trial");
      const campaign::TrialResult& forked = summary.results[i];
      snapshot::Scenario s = snapshot::build_scenario(cfg.root_seed, snapshot::bonded_cell_params());
      snapshot::bonded_warm_setup(s);
      s.sim->reseed(forked.seed);
      campaign::TrialResult rebuilt = pan_probe(s);
      rebuilt.index = forked.index;
      rebuilt.seed = forked.seed;
      if (trial_row(rebuilt) != trial_row(forked))
        errors.push_back("fork/rebuild rows differ: fork '" + trial_row(forked) +
                         "' rebuild '" + trial_row(rebuilt) + "'");
    }
  }

  std::uint64_t seed_ = 0;
  std::size_t trials_;
};

// --- stack_fuzz -------------------------------------------------------------------

/// blap-fuzz --target stack: every execution forks the warm bonded cell and
/// injects malformed HCI/LMP ops under the invariant monitor. The only
/// workload where the mutator, coverage map, corpus and invariant hooks are
/// hot. Op latency is sampled separately: mutants of the round's corpus run
/// one by one through a StackTarget.
class StackFuzz final : public Workload {
 public:
  explicit StackFuzz(const Options& options)
      : iterations_(options.scale == Scale::kSmoke ? 250 : 2'500),
        samples_(options.scale == Scale::kSmoke ? 100 : 400) {}

  std::uint64_t default_seed() const override { return 1; }

  void setup(const Options&) override { const fuzz::StackTarget target; }

  bool load(const Options& options) override {
    seed_ = options.seed;
    target_ = std::make_unique<fuzz::StackTarget>();
    return true;
  }

  Round round(std::size_t index, unsigned jobs, SpanLog* spans) override {
    Round out;
    fuzz::FuzzConfig cfg;
    cfg.target = "stack";
    cfg.seed = seed_ + index;
    cfg.shards = 4;
    cfg.iterations = iterations_;
    cfg.jobs = jobs;
    std::string why;
    const auto start = Clock::now();
    const auto report = [&] {
      const SpanLog::Scope c(spans, "fuzz.run_fuzz_campaign");
      return fuzz::run_fuzz_campaign(cfg, &why);
    }();
    out.wall_ns = elapsed_ns(start);
    if (!report) {
      out.errors.push_back("fuzz campaign refused: " + why);
      return out;
    }
    out.ops = report->executions;
    out.failed = report->findings.size();
    out.output = report->to_json();
    for (const auto& f : report->findings)
      out.errors.push_back(strfmt("round %zu: finding %s in shard %zu: %s", index,
                                  f.kind.c_str(), f.shard, f.detail.c_str()));
    double features = 0.0;
    for (const std::size_t n : report->shard_features) features += static_cast<double>(n);
    out.counts["fuzz.features"] = features;
    out.counts["fuzz.keep_ratio"] =
        static_cast<double>(report->corpus.size()) / static_cast<double>(report->executions);
    out.counts["snapshot.restores_per_op"] = 1.0;
    if (jobs == 1) sample_latency(index, report->corpus.entries(), spans, out);
    return out;
  }

 private:
  void sample_latency(std::size_t index, const std::vector<Bytes>& pool, SpanLog* spans,
                      Round& out) {
    if (pool.empty()) return;
    if (spans != nullptr) enable_counters(*target_->scenario().sim);
    fuzz::Mutator mutator(seed_ + index);
    CounterSink counters;
    for (std::size_t k = 0; k < samples_; ++k) {
      const Bytes input = mutator.mutate(pool[k % pool.size()], pool, target_->max_input_len());
      fuzz::FeatureSink sink;
      const auto t0 = Clock::now();
      const fuzz::ExecResult result = [&] {
        const SpanLog::Scope e(spans, "fuzz.execute");
        return target_->execute(input, sink);
      }();
      out.latency_us.push_back(static_cast<double>(elapsed_ns(t0)) * 1e-3);
      if (spans != nullptr) counters.add(target_->scenario().sim->observer()->snapshot());
      ++out.ops;
      if (result.finding) {
        ++out.failed;
        out.errors.push_back("sampled mutant: finding " + result.kind + ": " + result.detail);
      }
    }
    out.counters = counters.take();
    out.counted_ops = samples_;
  }

  std::uint64_t seed_ = 0;
  std::size_t iterations_;
  std::size_t samples_;
  std::unique_ptr<fuzz::StackTarget> target_;
};

// --- fleet scans -----------------------------------------------------------------

/// Shared by fleet_scan and fleet_bulk: repeated analyze_files passes over a
/// fixed file set, plus a jobs=1 per-file latency pass through analyze_file.
/// No simulation layer runs; the analytics reader and the obs
/// MetricsRegistry read path do the work.
class FleetWorkload : public Workload {
 public:
  bool needs_inputs() const override { return true; }

  bool load(const Options& options) override {
    paths_ = analytics::list_snoop_files(options.input_dir);
    if (paths_.empty()) return false;
    if (labelled()) {
      auto labels = analytics::load_labels(options.input_dir + "/labels.jsonl");
      if (!labels) return false;
      labels_ = std::move(*labels);
    }
    detectors_ = analytics::make_default_detectors();
    return true;
  }

  Round round(std::size_t index, unsigned jobs, SpanLog* spans) override {
    Round out;
    analytics::FleetConfig cfg;
    cfg.jobs = jobs;
    const auto start = Clock::now();
    const analytics::FleetReport report = [&] {
      const SpanLog::Scope c(spans, "analytics.analyze_files");
      return analytics::analyze_files(paths_, cfg, labelled() ? &labels_ : nullptr);
    }();
    out.wall_ns = elapsed_ns(start);
    out.ops = report.files.size();
    out.failed = report.files_failed;
    out.output = report.to_json();
    if (report.files_failed != 0)
      out.errors.push_back(strfmt("round %zu: %zu file(s) failed to scan", index,
                                  report.files_failed));
    if (labelled()) check_scores(report, out.errors);
    out.counts["analytics.records_per_op"] =
        static_cast<double>(report.records_total) / static_cast<double>(out.ops);
    if (jobs == 1) {
      for (const std::string& path : paths_) {
        const auto t0 = Clock::now();
        const SpanLog::Scope f(spans, "analytics.analyze_file");
        const analytics::FileReport file = analytics::analyze_file(path, detectors_);
        out.latency_us.push_back(static_cast<double>(elapsed_ns(t0)) * 1e-3);
        if (!file.opened) out.errors.push_back("cannot open " + path);
      }
    }
    return out;
  }

 protected:
  [[nodiscard]] virtual bool labelled() const = 0;

 private:
  /// Every detector must reach precision >= 0.99 and recall >= 0.95 against
  /// the generator's ground truth.
  static void check_scores(const analytics::FleetReport& report,
                           std::vector<std::string>& errors) {
    if (!report.scored) {
      errors.push_back("fleet report was not scored against labels.jsonl");
      return;
    }
    for (const auto& [detector, score] : report.scores) {
      if (score.precision() < 0.99 || score.recall() < 0.95)
        errors.push_back(strfmt("detector %s: precision %.3f recall %.3f below 0.99/0.95",
                                detector.c_str(), score.precision(), score.recall()));
    }
  }

  std::vector<std::string> paths_;
  analytics::LabelMap labels_;
  std::vector<std::unique_ptr<analytics::Detector>> detectors_;
};

/// Many small labelled captures from simulated scenarios (7 classes): the
/// cost is per file — open/mmap, detector reset, report merge.
class FleetScan final : public FleetWorkload {
 public:
  explicit FleetScan(const Options& options)
      : files_per_class_(options.scale == Scale::kSmoke ? 8 : 128) {}

  std::uint64_t default_seed() const override { return 1; }

  bool prepare(const Options& options) override {
    analytics::CorpusOptions corpus;
    corpus.dir = options.input_dir;
    corpus.files_per_class = files_per_class_;
    corpus.root_seed = options.seed;
    const auto summary = analytics::generate_corpus(corpus);
    return summary.has_value() && summary->files_written > 0;
  }

  void setup(const Options& options) override {
    const auto detectors = analytics::make_default_detectors();
    const auto paths = analytics::list_snoop_files(options.input_dir);
    const auto labels = analytics::load_labels(options.input_dir + "/labels.jsonl");
    (void)detectors;
    (void)paths;
    (void)labels;
  }

 protected:
  bool labelled() const override { return true; }

 private:
  std::size_t files_per_class_;
};

/// A few large ACL-heavy captures: the cost is per record, so this rate
/// moves with the cursor and detector walk rather than per-file overhead.
class FleetBulk final : public FleetWorkload {
 public:
  explicit FleetBulk(const Options& options)
      : files_(options.scale == Scale::kSmoke ? 4 : 16),
        records_(options.scale == Scale::kSmoke ? 2'000 : 20'000) {}

  std::uint64_t default_seed() const override { return 1; }

  bool prepare(const Options& options) override {
    Rng rng(options.seed);
    for (std::size_t i = 0; i < files_; ++i) {
      const Bytes capture = synthetic_capture(rng, records_);
      const fs::path path = fs::path(options.input_dir) / strfmt("bulk_%04zu.btsnoop", i);
      if (!write_file(path.string(), capture)) return false;
    }
    return true;
  }

  void setup(const Options& options) override {
    const auto detectors = analytics::make_default_detectors();
    const auto paths = analytics::list_snoop_files(options.input_dir);
    (void)detectors;
    (void)paths;
  }

 protected:
  bool labelled() const override { return false; }

 private:
  std::size_t files_;
  std::size_t records_;
};

}  // namespace

// --- shared helpers ----------------------------------------------------------

Bytes synthetic_capture(Rng& rng, std::size_t records) {
  hci::SnoopLog log;
  const BdAddr peer = *BdAddr::parse("00:1b:7d:da:71:0a");
  SimTime t = 1000;
  for (std::size_t i = 0; i < records; ++i) {
    hci::SnoopRecord record;
    record.timestamp_us = t;
    t += 625;
    if (i % 64 == 0) {
      ByteWriter req;
      peer.to_wire(req);
      ClassOfDevice(ClassOfDevice::kMobilePhone).to_wire(req);
      req.u8(0x01);
      record.direction = hci::Direction::kControllerToHost;
      record.packet = hci::make_event(hci::ev::kConnectionRequest, req.data());
    } else if (i % 64 == 1) {
      ByteWriter complete;
      complete.u8(0x00).u16(0x0001);
      peer.to_wire(complete);
      complete.u8(0x01).u8(0x00);
      record.direction = hci::Direction::kControllerToHost;
      record.packet = hci::make_event(hci::ev::kConnectionComplete, complete.data());
    } else if (i % 64 == 2) {
      ByteWriter auth;
      auth.u16(0x0001);
      record.direction = hci::Direction::kHostToController;
      record.packet = hci::make_command(hci::op::kAuthenticationRequested, auth.data());
    } else {
      record.direction =
          rng.chance(0.5) ? hci::Direction::kHostToController : hci::Direction::kControllerToHost;
      record.packet = hci::make_acl(0x0001, rng.buffer(120 + rng.uniform(81)));
    }
    log.append(std::move(record));
  }
  return log.serialize();
}

bool write_file(const std::string& path, BytesView data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  return std::fclose(f) == 0 && ok;
}

std::vector<std::string> workload_names() {
  return {"table2_sweep", "bonded_fork", "stack_fuzz", "fleet_scan", "fleet_bulk"};
}

std::unique_ptr<Workload> make_workload(std::string_view name, const Options& options) {
  if (name == "table2_sweep") return std::make_unique<Table2Sweep>(options);
  if (name == "bonded_fork") return std::make_unique<BondedFork>(options);
  if (name == "stack_fuzz") return std::make_unique<StackFuzz>(options);
  if (name == "fleet_scan") return std::make_unique<FleetScan>(options);
  if (name == "fleet_bulk") return std::make_unique<FleetBulk>(options);
  return nullptr;
}

std::string pinned_digest(std::string_view workload, Scale scale) {
  // SHA-256 of round 0's report at the workload's default seed. Refresh
  // only with a reason (see README.md, "Pinned digests").
  struct Pin {
    std::string_view workload;
    Scale scale;
    std::string_view digest;
  };
  static constexpr Pin kPins[] = {
      {"table2_sweep", Scale::kFull,
       "a72869eeaad90222248ead46bf1aa1960fddd726248fdee899d1b89c35a3c62c"},
      {"table2_sweep", Scale::kSmoke,
       "94ceb1cfdfb2bb34dd396a07e91203ea6c3aca33a51a5698ababfcd7c1378307"},
      {"bonded_fork", Scale::kFull,
       "fb8d53ba2c1c9994bfe02f83586249104f3040fdbc2958cde4914af113b7556d"},
      {"bonded_fork", Scale::kSmoke,
       "00d26e90b26676b01b12dfd76c8b2613abc50833d4bb8104cad481cd176c7c11"},
      {"stack_fuzz", Scale::kFull,
       "3778b793b70f743719fc078e1a3676a10cca3b30ee646b6362f55c6eaf9e6c1d"},
      {"stack_fuzz", Scale::kSmoke,
       "222bb4ed341c8b5f56b3b90f6dc03513c51751fda1adc2dfae39f126274e202d"},
      {"fleet_scan", Scale::kFull,
       "ba9ea0ec54cbc0bbc7991a4080a475b8035f04935c519aa152c86e0b022acf0d"},
      {"fleet_scan", Scale::kSmoke,
       "2f124a485cabe5580b10b881d06a9e8924fd480f72be7e31871ab1622ae6c28f"},
      {"fleet_bulk", Scale::kFull,
       "aede367093bad24d0b7d39de45f74ef4bdae90228e6128e795bd6abe630dc0e4"},
      {"fleet_bulk", Scale::kSmoke,
       "9ea8fb093507c35d0b0cc2c3429149d84feefd8b096fd8c4ffeb6621dddaa4ad"},
  };
  for (const Pin& pin : kPins)
    if (pin.workload == workload && pin.scale == scale) return std::string(pin.digest);
  return {};
}

}  // namespace blap::bench
