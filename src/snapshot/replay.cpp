#include "snapshot/replay.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "chaos/failpoint.hpp"
#include "common/base64.hpp"
#include "common/state_io.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/fuzz_trial.hpp"
#include "snapshot/page_blocking_trial.hpp"
#include "snapshot/snapshot.hpp"

namespace blap::snapshot {
namespace {

constexpr const char* kHeader = "blap-replay-bundle v1";

/// Line iterator that remembers where each line starts, so parse errors
/// can be reported by line number and byte offset.
class LineCursor {
 public:
  explicit LineCursor(const std::string& text) : text_(text) {}

  bool next(std::string& line) {
    if (pos_ >= text_.size()) return false;
    line_start_ = pos_;
    ++line_no_;
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string::npos) {
      line = text_.substr(pos_);
      pos_ = text_.size();
    } else {
      line = text_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
    }
    return true;
  }

  [[nodiscard]] std::size_t line_no() const { return line_no_; }
  [[nodiscard]] std::size_t line_start() const { return line_start_; }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
  std::size_t line_start_ = 0;
};

void set_error(BundleError& error, const LineCursor& cursor, std::string message) {
  error.line = cursor.line_no();
  error.offset = cursor.line_start();
  error.message = std::move(message);
}

std::string encode_fault_plan(const faults::FaultPlan& plan) {
  state::StateWriter w;
  w.field(plan);
  return base64_encode(w.data());
}

std::optional<faults::FaultPlan> decode_fault_plan(const std::string& text) {
  const auto raw = base64_decode(text);
  if (!raw) return std::nullopt;
  state::StateReader r(*raw);
  faults::FaultPlan plan;
  r.field(plan);
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return plan;
}

/// `%a` (hex-float) formatting: exact round trip for the verdict value.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  char* rest = nullptr;
  out = std::strtoull(text.c_str(), &rest, 10);
  return rest != text.c_str() && *rest == '\0';
}

bool parse_double(const std::string& text, double& out) {
  char* rest = nullptr;
  out = std::strtod(text.c_str(), &rest);
  return rest != text.c_str() && *rest == '\0';
}

}  // namespace

std::string BundleError::to_string() const {
  std::string out;
  if (!file.empty()) out += file + ":";
  out += std::to_string(line) + " (offset " + std::to_string(offset) + "): " + message;
  return out;
}

std::string ReplayBundle::to_text() const {
  std::string out;
  out += kHeader;
  out += "\nscenario: " + encode_scenario(scenario);
  out += "\nbuild_seed: " + std::to_string(build_seed);
  out += "\ntrial_index: " + std::to_string(trial_index);
  out += "\ntrial_seed: " + std::to_string(trial_seed);
  out += "\ntrial_kind: " + trial_kind;
  if (fault_plan.has_value()) out += "\nfault_plan: " + encode_fault_plan(*fault_plan);
  if (!chaos_faults.empty()) out += "\nchaos: " + chaos_faults;
  if (!warm_setup.empty()) out += "\nwarm: " + warm_setup;
  if (!fuzz_input.empty()) out += "\nfuzz_input: " + base64_encode(fuzz_input);
  out += "\nsuccess: ";
  out += expected_success ? "1" : "0";
  out += "\nvalue: " + format_double(expected_value);
  out += "\nvirtual_end_us: " + std::to_string(expected_virtual_end);
  if (!expected_metrics_json.empty()) {
    out += "\nmetrics: ";
    out += base64_encode(BytesView(
        reinterpret_cast<const std::uint8_t*>(expected_metrics_json.data()),
        expected_metrics_json.size()));
  }
  out += "\nsnapshot:\n";
  out += base64_encode(snapshot, /*line_width=*/76);
  out += "\n";
  return out;
}

std::optional<ReplayBundle> ReplayBundle::from_text(const std::string& text,
                                                    BundleError& error) {
  LineCursor cursor(text);
  std::string line;
  if (!cursor.next(line) || line != kHeader) {
    set_error(error, cursor, "missing bundle header line ('" + std::string(kHeader) + "')");
    return std::nullopt;
  }

  ReplayBundle bundle;
  bool have_scenario = false, have_trial_seed = false, have_kind = false;
  bool have_verdict = false, have_snapshot = false;
  while (cursor.next(line)) {
    if (line.empty()) continue;
    if (line == "snapshot:") {
      // Remember where the payload starts so a corrupt blob is reported at
      // its own offset, not at the last base64 line.
      const std::size_t block_line = cursor.line_no() + 1;
      const std::size_t block_offset = cursor.line_start() + line.size() + 1;
      std::string b64;
      while (cursor.next(line)) {
        if (b64.size() + line.size() > kMaxSnapshotBase64) {
          set_error(error, cursor,
                    "snapshot payload exceeds " + std::to_string(kMaxSnapshotBase64) +
                        " base64 bytes");
          return std::nullopt;
        }
        b64 += line;
      }
      if (b64.empty()) {
        error.line = block_line;
        error.offset = block_offset;
        error.message = "snapshot block is empty";
        return std::nullopt;
      }
      const auto raw = base64_decode(b64);
      if (!raw) {
        error.line = block_line;
        error.offset = block_offset;
        error.message = "snapshot payload is not valid base64 (truncated or corrupt)";
        return std::nullopt;
      }
      bundle.snapshot = *raw;
      have_snapshot = true;
      break;  // the snapshot block is defined to be last
    }
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos) {
      set_error(error, cursor, "malformed line (expected 'key: value'): " + line);
      return std::nullopt;
    }
    const std::string key = line.substr(0, colon);
    const std::string value = line.substr(colon + 2);
    if (value.size() > kMaxFieldLength) {
      set_error(error, cursor,
                "field '" + key + "' is " + std::to_string(value.size()) +
                    " bytes (limit " + std::to_string(kMaxFieldLength) + ")");
      return std::nullopt;
    }
    bool ok = true;
    if (key == "scenario") {
      const auto params = decode_scenario(value);
      ok = params.has_value();
      if (ok) bundle.scenario = *params;
      have_scenario = ok;
    } else if (key == "build_seed") {
      ok = parse_u64(value, bundle.build_seed);
    } else if (key == "trial_index") {
      std::uint64_t v = 0;
      ok = parse_u64(value, v);
      bundle.trial_index = static_cast<std::size_t>(v);
    } else if (key == "trial_seed") {
      ok = parse_u64(value, bundle.trial_seed);
      have_trial_seed = ok;
    } else if (key == "trial_kind") {
      bundle.trial_kind = value;
      have_kind = !value.empty();
    } else if (key == "fault_plan") {
      bundle.fault_plan = decode_fault_plan(value);
      ok = bundle.fault_plan.has_value();
    } else if (key == "chaos") {
      std::vector<chaos::FaultSite> faults;
      ok = chaos::decode_fault_sites(value, faults) && !faults.empty();
      if (ok) bundle.chaos_faults = value;
    } else if (key == "warm") {
      bundle.warm_setup = value;
      ok = !value.empty();
    } else if (key == "fuzz_input") {
      const auto raw = base64_decode(value);
      ok = raw.has_value() && !raw->empty();
      if (ok) bundle.fuzz_input = *raw;
    } else if (key == "success") {
      ok = value == "1" || value == "0";
      bundle.expected_success = value == "1";
      have_verdict = ok;
    } else if (key == "value") {
      ok = parse_double(value, bundle.expected_value);
    } else if (key == "virtual_end_us") {
      ok = parse_u64(value, bundle.expected_virtual_end);
    } else if (key == "metrics") {
      const auto raw = base64_decode(value);
      ok = raw.has_value();
      if (ok) bundle.expected_metrics_json.assign(raw->begin(), raw->end());
    } else {
      // Unknown key: refuse to half-understand a bundle.
      set_error(error, cursor, "unknown key '" + key + "'");
      return std::nullopt;
    }
    if (!ok) {
      set_error(error, cursor, "bad value for '" + key + "'");
      return std::nullopt;
    }
  }

  if (!have_scenario || !have_trial_seed || !have_kind || !have_verdict || !have_snapshot) {
    std::string missing;
    const auto need = [&](bool have, const char* name) {
      if (have) return;
      if (!missing.empty()) missing += ", ";
      missing += name;
    };
    need(have_scenario, "scenario");
    need(have_trial_seed, "trial_seed");
    need(have_kind, "trial_kind");
    need(have_verdict, "success");
    need(have_snapshot, "snapshot");
    set_error(error, cursor, "bundle is missing required field(s): " + missing);
    return std::nullopt;
  }
  return bundle;
}

std::optional<ReplayBundle> ReplayBundle::from_text(const std::string& text,
                                                    std::string* why) {
  BundleError error;
  auto bundle = from_text(text, error);
  if (!bundle && why != nullptr) *why = error.to_string();
  return bundle;
}

bool ReplayBundle::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_text();
  return static_cast<bool>(out);
}

std::optional<ReplayBundle> ReplayBundle::load_file(const std::string& path,
                                                    BundleError& error) {
  error.file = path;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error.message = "cannot open file";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_text(buf.str(), error);
}

std::optional<ReplayBundle> ReplayBundle::load_file(const std::string& path,
                                                    std::string* why) {
  BundleError error;
  auto bundle = load_file(path, error);
  if (!bundle && why != nullptr) *why = error.to_string();
  return bundle;
}

namespace {

/// How replay re-runs one trial kind: restore `warm` onto the rebuilt `s`
/// and reseed it, run the trial, and fill out.result (and out.trace_json
/// when `want_trace`). Returns an error message, empty on success.
using KindRunner = std::string (*)(const ReplayBundle& bundle, Scenario& s,
                                   const Snapshot& warm, bool want_trace, ReplayOutcome& out);

std::string run_page_blocking(const ReplayBundle& bundle, Scenario& s, const Snapshot& warm,
                              bool want_trace, ReplayOutcome& out) {
  std::string why;
  if (!warm.restore(*s.sim, &why)) return "recorded snapshot restore failed: " + why;
  s.sim->reseed(bundle.trial_seed);
  out.result = PageBlockingTrial::from_kind(bundle.trial_kind)
                   ->run(s, bundle.fault_plan, want_trace ? &out.trace_json : nullptr);
  return {};
}

/// Chaos trials restore under their own armed plan (the snapshot-load
/// failpoints are part of the explored surface), so run_chaos_trial owns
/// the restore + reseed.
std::string run_chaos(const ReplayBundle& bundle, Scenario& s, const Snapshot& warm, bool,
                      ReplayOutcome& out) {
  std::vector<chaos::FaultSite> faults;
  if (!chaos::decode_fault_sites(bundle.chaos_faults, faults) || faults.empty())
    return "chaos trial kind without a valid 'chaos:' fault list";
  auto plan = chaos::ChaosPlan::inject(std::move(faults));
  const auto report = run_chaos_trial(s, warm, bundle.trial_seed, plan);
  out.result = chaos_verdict(report.outcome, report.virtual_end);
  return {};
}

/// Fuzz trials own their restore + reseed too: the body is shared with the
/// fuzz engine's stack target, so a pinned finding replays through the exact
/// code that found it.
std::string run_fuzz_stack(const ReplayBundle& bundle, Scenario& s, const Snapshot& warm, bool,
                           ReplayOutcome& out) {
  out.result = fuzz_stack_verdict(
      run_fuzz_stack_trial(s, warm, bundle.trial_seed, bundle.fuzz_input));
  return {};
}

KindRunner find_runner(std::string_view kind) {
  if (PageBlockingTrial::from_kind(kind).has_value()) return run_page_blocking;
  if (kind == kChaosTrialKind) return run_chaos;
  if (kind == kFuzzStackTrialKind) return run_fuzz_stack;
  return nullptr;
}

/// The metrics JSON a verdict records and a re-run is compared by; empty
/// when the trial recorded no metrics.
std::string metrics_json(const campaign::TrialResult& verdict) {
  if (verdict.metrics == nullptr || verdict.metrics->empty()) return {};
  return verdict.metrics->to_json();
}

}  // namespace

void ReplayBundle::expect(const campaign::TrialResult& verdict) {
  expected_success = verdict.success;
  expected_value = verdict.value;
  expected_virtual_end = verdict.virtual_end;
  expected_metrics_json = metrics_json(verdict);
}

bool known_trial_kind(const std::string& kind) { return find_runner(kind) != nullptr; }

ReplayOutcome replay_bundle(const ReplayBundle& bundle, bool want_trace) {
  ReplayOutcome out;
  if (resolve_profile(bundle.scenario) == nullptr) {
    out.error = "scenario references a profile row that does not exist";
    return out;
  }
  const KindRunner run = find_runner(bundle.trial_kind);
  if (run == nullptr) {
    out.error = "unknown trial kind '" + bundle.trial_kind + "'";
    return out;
  }

  Scenario s = build_scenario(bundle.build_seed, bundle.scenario);

  // The drift check rebuilds the warm state from scratch, so a bundle
  // recorded past a named warm setup (e.g. "bonded") replays that setup
  // before capturing.
  if (!bundle.warm_setup.empty()) {
    const WarmSetupFnPtr warm = resolve_warm_setup(bundle.warm_setup);
    if (warm == nullptr) {
      out.error = "unknown warm setup '" + bundle.warm_setup + "'";
      return out;
    }
    warm(s);
  }

  // Drift check: does today's code still produce the recorded warm bytes?
  std::string why;
  if (const auto rebuilt = Snapshot::capture(*s.sim, &why))
    out.snapshot_matches = rebuilt->bytes() == bundle.snapshot;

  const auto snap = Snapshot::from_bytes(bundle.snapshot, &why);
  if (!snap) {
    out.error = "recorded snapshot rejected: " + why;
    return out;
  }

  out.error = run(bundle, s, *snap, want_trace, out);
  if (!out.error.empty()) return out;
  out.executed = true;
  out.metrics_json = metrics_json(out.result);
  out.verdict_matches = out.result.success == bundle.expected_success &&
                        out.result.value == bundle.expected_value &&
                        out.result.virtual_end == bundle.expected_virtual_end;
  out.metrics_match = bundle.expected_metrics_json.empty() ||
                      out.metrics_json == bundle.expected_metrics_json;
  return out;
}

}  // namespace blap::snapshot
