// replay.hpp — self-contained failure-reproduction bundles.
//
// A Monte-Carlo campaign that reports "3 of 400 trials failed" is only
// useful if those three trials can be put under a microscope. A
// ReplayBundle is everything needed to do that, in one text file:
//
//   * the scenario (a ScenarioParams manifest line — which topology),
//   * the warm snapshot the trial was forked from (base64 BLAPSNAP bytes),
//   * the trial identity (index, seed) and the fault plan it ran under,
//   * what the trial did (its trial kind: a PageBlockingTrial::kind(), a
//     chaos trial or a stack fuzz trial),
//   * and the recorded verdict: success flag, value, final virtual clock,
//     and the deterministic metrics JSON when the trial recorded metrics.
//
// replay_bundle() re-executes the bundle from scratch — look up the trial
// kind, rebuild topology, restore snapshot, reseed, re-install the fault
// plan, run the kind — and diffs every recorded field against the re-run.
// Because the whole stack is deterministic, any mismatch means the code
// under test changed, not the weather. The blap-replay tool wraps this with --trace-out to emit
// a Perfetto-loadable Chrome trace of the reproduced trial.
//
// The format is text-first on purpose: bundles live in the repo as test
// fixtures (tests/replay_corpus/) and must diff readably.
#pragma once

#include <optional>
#include <string>

#include "campaign/campaign.hpp"
#include "common/bytes.hpp"
#include "faults/fault_plan.hpp"
#include "snapshot/scenarios.hpp"

namespace blap::snapshot {

/// Typed parse error for bundle loading. A malformed bundle — corrupt or
/// truncated base64, an over-length manifest field, an unknown key — is
/// reported with where it went wrong, never by aborting or by a bare
/// string the caller cannot locate in the file.
struct BundleError {
  /// Path the bundle was loaded from; empty for from_text().
  std::string file;
  /// 1-based line the error was detected on (0 when the text is empty).
  std::size_t line = 0;
  /// Byte offset of that line's first character in the bundle text.
  std::size_t offset = 0;
  std::string message;

  /// "file:line (offset N): message" — file part omitted when empty.
  [[nodiscard]] std::string to_string() const;
};

struct ReplayBundle {
  ScenarioParams scenario;
  /// Seed the warm scenario was built with (the campaign's root seed). The
  /// warm state is seed-independent, but replay rebuilds with the same one
  /// so the rebuilt snapshot can be byte-compared against the recorded one.
  std::uint64_t build_seed = 0;
  std::size_t trial_index = 0;
  std::uint64_t trial_seed = 0;
  /// Trial kind, one of known_trial_kind()'s names (e.g.
  /// "page_blocking_attack").
  std::string trial_kind;
  /// Fault plan the trial installed, if any.
  std::optional<faults::FaultPlan> fault_plan;
  /// Chaos faults armed for the trial, encoded with
  /// chaos::encode_fault_sites ("site@ordinal+..."); empty = no chaos.
  std::string chaos_faults;
  /// Named warm setup replayed onto the rebuilt scenario before the drift
  /// check (see resolve_warm_setup in chaos_trial.hpp); empty = the warm
  /// point is the post-build topology.
  std::string warm_setup;
  /// The raw fuzz input for "fuzz_stack" bundles (base64 `fuzz_input:` in
  /// the manifest): the op stream run_fuzz_stack_trial() decodes. Empty for
  /// every other trial kind.
  Bytes fuzz_input;

  // Recorded verdict.
  bool expected_success = false;
  double expected_value = 0.0;
  SimTime expected_virtual_end = 0;
  /// MetricsSnapshot::to_json() of the trial's metrics; empty when the
  /// trial recorded none.
  std::string expected_metrics_json;

  /// Serialized warm Snapshot (strict) the trial forked from.
  Bytes snapshot;

  /// Manifest field values (everything left of the snapshot block) longer
  /// than this are refused — a corrupted bundle must not make the parser
  /// swallow unbounded garbage.
  static constexpr std::size_t kMaxFieldLength = 4096;
  /// Upper bound on the base64 snapshot payload (64 MiB of text).
  static constexpr std::size_t kMaxSnapshotBase64 = 64u << 20;

  /// Record `verdict` as the expected verdict: its success, value and
  /// virtual end, and its metrics JSON when it carries metrics. Replay
  /// compares the re-run's TrialResult through the same mapping.
  void expect(const campaign::TrialResult& verdict);

  [[nodiscard]] std::string to_text() const;
  /// Typed-error parse: on failure fills `error` with line/offset/message.
  [[nodiscard]] static std::optional<ReplayBundle> from_text(const std::string& text,
                                                             BundleError& error);
  /// Convenience wrapper; `*why` gets BundleError::to_string().
  [[nodiscard]] static std::optional<ReplayBundle> from_text(const std::string& text,
                                                             std::string* why = nullptr);
  [[nodiscard]] bool save_file(const std::string& path) const;
  /// Typed-error load: `error.file` is `path`.
  [[nodiscard]] static std::optional<ReplayBundle> load_file(const std::string& path,
                                                             BundleError& error);
  [[nodiscard]] static std::optional<ReplayBundle> load_file(const std::string& path,
                                                             std::string* why = nullptr);
};

/// Result of re-executing a bundle.
struct ReplayOutcome {
  /// Set (with `error`) when the bundle could not be executed at all —
  /// unknown trial kind, snapshot restore failure. The match flags below
  /// are meaningless in that case.
  bool executed = false;
  std::string error;

  campaign::TrialResult result;
  std::string metrics_json;  // empty when the trial kind records no metrics
  std::string trace_json;    // Chrome trace JSON; filled when want_trace

  /// Recorded {success, value, virtual_end} all equal the re-run's.
  bool verdict_matches = false;
  /// Recorded metrics JSON equals the re-run's (true when none recorded).
  bool metrics_match = false;
  /// Rebuilding the scenario from the manifest reproduces the recorded
  /// warm snapshot byte-for-byte. A mismatch flags serialization or setup
  /// drift since the bundle was recorded — replay still proceeds from the
  /// recorded bytes.
  bool snapshot_matches = false;

  [[nodiscard]] bool reproduced() const {
    return executed && verdict_matches && metrics_match;
  }
};

/// Re-execute `bundle` and diff it against its recorded verdict.
/// `want_trace` additionally runs the trial with tracing on and fills
/// ReplayOutcome::trace_json (tracing is pure observation — it cannot
/// change the verdict or the metrics).
[[nodiscard]] ReplayOutcome replay_bundle(const ReplayBundle& bundle, bool want_trace);

/// True for trial kinds replay_bundle() knows how to run: the four
/// PageBlockingTrial::kind() names ("page_blocking_baseline",
/// "page_blocking_attack", each also with "_metrics"), kChaosTrialKind
/// ("chaos_bonded_cell") and kFuzzStackTrialKind ("fuzz_stack").
[[nodiscard]] bool known_trial_kind(const std::string& kind);

}  // namespace blap::snapshot
