// lint.hpp — blap-lint: the project's determinism & spec-invariant analyzer.
//
// BLAP's headline claim — byte-identical campaign JSON for any worker count —
// rests on coding rules no compiler checks: simulation code must never read
// the wall clock, and hash-table iteration order must never reach a
// serializer. blap-lint tokenizes the tree (comments and string literals
// stripped, so prose never trips a rule) and enforces those rules as named,
// individually suppressible findings:
//
//   D1 wallclock    no wall-clock/PRNG calls (`system_clock`, `steady_clock`,
//                   `std::rand`, `time(...)`, ...) outside the campaign
//                   timing shell, bench/ and examples/ (host-side timing).
//   D2 ordered      no iteration over a container declared `unordered_map`/
//                   `unordered_set` in simulation code (src/ plus
//                   tools/snoopd/, whose FleetReport CI byte-diffs across
//                   worker counts) — iteration order is rehash-dependent
//                   and one hop from serialized output.
//   D4 obs-guard    every observer dereference (`obs_->...`) must sit under
//                   a null guard so an uninstrumented run pays one branch
//                   and zero allocations per site.
//   D5 radio-scan   src/radio/ is the population-scale hot path: no
//                   unordered containers at all (declaration included —
//                   their order is one hop from serialized output), and no
//                   `std::find`/`std::find_if` linear scans over endpoints;
//                   resolution goes through the EndpointRegistry indexes.
//   S1 spec         IO-capability / association-model comparisons live in
//                   ui_model / security_manager, nowhere else.
//   D7 failpoint    every `BLAP_FAILPOINT("...")` in src/ must sit inside
//                   an `if` condition: a failpoint IS a branch, and a
//                   bare-expression passage would count hits while silently
//                   taking no fault path (the chaos sweep would then
//                   "explore" an instance that cannot do anything).
//
// Suppression: `// blap-lint: <tag>-ok [justification]` on the offending
// line or the line directly above. Tags: wallclock-ok, ordered-ok, obs-ok,
// radio-scan-ok, spec-ok, failpoint-ok. A justification is free text; write
// one.
//
// blap-taint (tools/taint) owns the two rules a token scan cannot prove:
// key material reaching a log or other sink (S2, by type and dataflow) and
// raw device pointers captured into scheduler callbacks (D6).
//
// The analyzer is deliberately token-based, not AST-based: it has zero
// dependencies, runs on the whole tree in milliseconds, and its rules are
// conservative patterns with an explicit escape hatch rather than proofs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace blap::lint {

/// Rule identifiers, stable for reports and suppression mapping.
enum class Rule {
  kD1Wallclock,
  kD2Ordered,
  kD4ObsGuard,
  kD5RadioScan,
  kS1Spec,
  kD7Failpoint,
};

/// Every rule, in report order.
inline constexpr Rule kAllRules[] = {Rule::kD1Wallclock, Rule::kD2Ordered, Rule::kD4ObsGuard,
                                     Rule::kD5RadioScan, Rule::kS1Spec,    Rule::kD7Failpoint};

[[nodiscard]] const char* rule_id(Rule rule);        // "D1"
[[nodiscard]] const char* rule_tag(Rule rule);       // "wallclock-ok"
[[nodiscard]] const char* rule_summary(Rule rule);   // one-line description

struct Finding {
  Rule rule = Rule::kD1Wallclock;
  std::string file;   // path as given to the analyzer
  int line = 0;       // 1-based
  std::string message;

  /// "file:line: [D1] message" — the stable report line format.
  [[nodiscard]] std::string format() const;
};

struct Options {
  /// When true, every rule applies to every file regardless of the
  /// path-based scoping below (used by the fixture tests, where a single
  /// snippet must exercise a rule that is normally scoped to src/).
  bool all_rules_everywhere = false;

  /// Extra names known to be declared as unordered containers elsewhere
  /// (rule D2). lint_tree() fills this from a tree-wide pre-pass so a member
  /// declared in a header is caught when iterated in the matching .cpp.
  std::vector<std::string> known_unordered;
};

/// Lint one in-memory file. `path` is relative to the tree root ('/'
/// separators): the per-rule scopes match its leading directories (src/,
/// src/radio/, bench/, ...). Findings name `path`.
[[nodiscard]] std::vector<Finding> lint_file(std::string_view path, std::string_view content,
                                             const Options& options = {});

/// One source file of a tree walk.
struct TreeFile {
  std::string path;      // the root joined with `relative`: what reports name
  std::string relative;  // relative to the root: what rule scopes match
};

/// Every .cpp/.hpp/.h/.cc under `root`'s src/, examples/, bench/, tests/ and
/// tools/ directories, sorted by path. Skips the intentionally-bad
/// lint/taint fixtures and build directories, judged on the relative path
/// so the root's own location never matters. blap-taint walks the same set.
[[nodiscard]] std::vector<TreeFile> tree_files(const std::string& root);

/// Lint tree_files(root); findings name the root-joined paths and are sorted
/// by (file, line, rule).
[[nodiscard]] std::vector<Finding> lint_tree(const std::string& root,
                                             const Options& options = {});

}  // namespace blap::lint
