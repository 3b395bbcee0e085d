#include "fuzz/fuzzer.hpp"

#include <utility>

#include "campaign/campaign.hpp"
#include "common/base64.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/mutator.hpp"
#include "obs/obs.hpp"

namespace blap::fuzz {
namespace {

struct ShardResult {
  std::size_t executions = 0;
  std::size_t features = 0;
  std::vector<Bytes> corpus_entries;  // discovery order
  std::vector<Finding> findings;
};

void record_finding(const FuzzConfig& config, FuzzTarget& target, ShardResult& out,
                    std::size_t shard, std::size_t iteration, bool from_seed,
                    const Bytes& input, const ExecResult& result) {
  if (out.findings.size() >= config.max_findings_per_shard) return;
  Finding finding;
  finding.shard = shard;
  finding.iteration = iteration;
  finding.from_seed = from_seed;
  finding.kind = result.kind;
  finding.detail = result.detail;
  finding.input = input;
  MinimizeStats stats;
  finding.minimized =
      minimize_finding(target, input, result.kind, config.minimize_budget, &stats);
  out.executions += stats.executions;
  out.findings.push_back(std::move(finding));
}

ShardResult run_shard(const FuzzConfig& config, const TargetFactory& factory,
                      std::size_t shard) {
  ShardResult out;
  const std::unique_ptr<FuzzTarget> target = factory();

  Dictionary dictionary = Dictionary::bluetooth();
  for (auto& extra : target->dictionary_extras())
    dictionary.tokens.push_back(std::move(extra));
  Mutator mutator(campaign::trial_seed(config.seed, shard), std::move(dictionary));

  CoverageMap map;
  Corpus corpus;
  FeatureSink sink;

  const auto run_one = [&](const Bytes& input) {
    sink.clear();
    const ExecResult result = target->execute(input, sink);
    if (sancov_active()) collect_sancov_features(sink);
    ++out.executions;
    return result;
  };

  // Seed phase: every seed enters the corpus unconditionally (they are the
  // mutation base set), and a seed that already trips the oracle is a
  // finding like any other.
  std::size_t seed_index = 0;
  for (const Bytes& seed : target->seed_inputs()) {
    const ExecResult result = run_one(seed);
    map.accumulate(sink);
    if (result.finding)
      record_finding(config, *target, out, shard, seed_index, true, seed, result);
    corpus.add(seed);
    ++seed_index;
  }
  if (corpus.empty()) corpus.add(Bytes{0});

  for (std::size_t iteration = 0; iteration < config.iterations; ++iteration) {
    const Bytes input =
        mutator.mutate(corpus.pick(mutator.rng()), corpus.entries(),
                       target->max_input_len());
    const ExecResult result = run_one(input);
    if (result.finding) {
      // Findings never enter the corpus: a reliably-failing input would
      // dominate pick() and re-discover itself forever.
      record_finding(config, *target, out, shard, iteration, false, input, result);
      continue;
    }
    if (map.accumulate(sink) > 0) corpus.add(input);
  }

  out.features = map.feature_count();
  out.corpus_entries = corpus.entries();
  return out;
}

}  // namespace

std::string FuzzReport::to_json() const {
  std::string out = "{\n  \"target\": \"" + obs::json_escape(target) + "\"";
  out += ",\n  \"seed\": " + std::to_string(seed);
  out += ",\n  \"shards\": " + std::to_string(shards);
  out += ",\n  \"iterations_per_shard\": " + std::to_string(iterations_per_shard);
  out += ",\n  \"executions\": " + std::to_string(executions);
  out += ",\n  \"corpus_entries\": " + std::to_string(corpus.size());
  out += ",\n  \"corpus_digest\": \"" + obs::json_escape(corpus_digest) + "\"";
  out += ",\n  \"shard_features\": [";
  for (std::size_t i = 0; i < shard_features.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(shard_features[i]);
  }
  out += "],\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"shard\": " + std::to_string(f.shard);
    out += ", \"iteration\": " + std::to_string(f.iteration);
    out += ", \"from_seed\": ";
    out += f.from_seed ? "true" : "false";
    out += ", \"kind\": \"" + obs::json_escape(f.kind) + "\"";
    out += ", \"detail\": \"" + obs::json_escape(f.detail) + "\"";
    out += ", \"input\": \"" + obs::json_escape(base64_encode(f.input)) + "\"";
    out += ", \"minimized\": \"" + obs::json_escape(base64_encode(f.minimized)) + "\"";
    out += "}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::optional<FuzzReport> run_fuzz_campaign(const FuzzConfig& config, std::string* why) {
  const TargetFactory factory = resolve_target(config.target);
  if (!factory) {
    if (why != nullptr) *why = "unknown fuzz target: " + config.target;
    return std::nullopt;
  }

  FuzzReport report;
  report.target = config.target;
  report.seed = config.seed;
  report.shards = config.shards;
  report.iterations_per_shard = config.iterations;

  std::vector<ShardResult> shard_results(config.shards);
  // Sancov counters are process-global; concurrent shards would observe each
  // other's edges and the per-shard determinism contract would break.
  report.jobs_used = campaign::parallel_indexed(
      config.shards, sancov_active() ? 1 : config.jobs, [&] {
        return [&](std::size_t shard) {
          shard_results[shard] = run_shard(config, factory, shard);
        };
      });

  // Deterministic merge: shard order, not completion order.
  for (std::size_t shard = 0; shard < config.shards; ++shard) {
    ShardResult& sr = shard_results[shard];
    report.executions += sr.executions;
    report.shard_features.push_back(sr.features);
    for (auto& entry : sr.corpus_entries) report.corpus.add(std::move(entry));
    for (auto& finding : sr.findings) report.findings.push_back(std::move(finding));
  }
  report.corpus_digest = report.corpus.digest();
  return report;
}

}  // namespace blap::fuzz
