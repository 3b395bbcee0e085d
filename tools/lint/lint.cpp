// lint.cpp — rule passes for blap-lint (see lint.hpp). The tokenizer lives
// in lex.{hpp,cpp}, shared with blap-taint.
#include "lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lex.hpp"

namespace blap::lint {
namespace {

// --------------------------------------------------------------------------
// Shared helpers.

std::string normalize(std::string_view path) {
  std::string p(path);
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

bool path_has(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

/// Rule scopes match the leading directories of a root-relative path, so a
/// checkout under, say, `x_src/` or `build-1/` scopes like any other.
bool under(const std::string& path, std::string_view dir) { return path.starts_with(dir); }

void report(std::vector<Finding>& findings, const Lexed& lx, Rule rule, std::string_view path,
            int line, std::string message) {
  if (suppressed(lx, line, rule_tag(rule))) return;
  findings.push_back(Finding{rule, std::string(path), line, std::move(message)});
}

// --------------------------------------------------------------------------
// D1 — wall-clock / PRNG ban.

void rule_d1(const std::string& path, const Lexed& lx, const Options& options,
             std::vector<Finding>& findings) {
  if (!options.all_rules_everywhere) {
    // Host-side timing shells are allowed to read the wall clock: the
    // campaign engine's throughput report, benchmarks, and examples.
    if (under(path, "src/campaign/campaign.cpp") || under(path, "bench/") ||
        under(path, "examples/"))
      return;
  }
  static const std::set<std::string> kBannedIdent = {
      "system_clock",   "steady_clock", "high_resolution_clock", "srand",
      "gettimeofday",   "clock_gettime", "localtime",            "gmtime",
      "random_device",  "rand_r",
  };
  static const std::set<std::string> kBannedCall = {"rand", "time", "clock"};
  const auto& t = lx.tokens;
  // A file may define its own function shadowing a libc name (E0's LFSR
  // `clock()` is cipher terminology): a definition `Type::name(` or a
  // declaration `void name(` exempts bare calls to that name in this file.
  // Explicitly qualified `std::name(` is always flagged.
  std::set<std::string> locally_defined;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (kBannedCall.count(t[i].text) == 0 || t[i + 1].text != "(") continue;
    static const std::set<std::string> kNotTypes = {
        "return", "throw",     "case",     "else",     "do",      "goto",  "new",
        "delete", "sizeof",    "typeid",   "co_await", "co_yield", "co_return",
        "not",    "and",       "or"};
    const std::string& prev = t[i - 1].text;
    const bool member_def = prev == "::" && (i < 2 || t[i - 2].text != "std");
    const bool declaration =
        ident_start(prev.empty() ? '\0' : prev[0]) && kNotTypes.count(prev) == 0;
    if (member_def || declaration) locally_defined.insert(t[i].text);
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (kBannedIdent.count(t[i].text) != 0) {
      report(findings, lx, Rule::kD1Wallclock, path, t[i].line,
             "wall-clock/PRNG source '" + t[i].text +
                 "' in simulation code; derive time from Scheduler::now() and "
                 "randomness from a seeded Rng");
      continue;
    }
    if (kBannedCall.count(t[i].text) != 0 && i + 1 < t.size() && t[i + 1].text == "(") {
      const bool member = i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
      const bool std_qualified =
          i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std";
      if (member) continue;
      if (!std_qualified && locally_defined.count(t[i].text) != 0) continue;
      report(findings, lx, Rule::kD1Wallclock, path, t[i].line,
             "call to '" + t[i].text + "(...)' in simulation code; virtual time only");
    }
  }
}

// --------------------------------------------------------------------------
// D2 — unordered-container iteration.

/// Names declared with an unordered container type in this token stream.
std::set<std::string> unordered_names(const std::vector<Token>& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "unordered_map" && t[i].text != "unordered_set" &&
        t[i].text != "unordered_multimap" && t[i].text != "unordered_multiset")
      continue;
    std::size_t j = i + 1;
    if (j < t.size() && t[j].text == "<") {
      j = match_close(t, j);
      if (j == t.size()) continue;
      ++j;
    }
    // `unordered_map<...>::iterator` etc. is a type use, not a declaration.
    if (j < t.size() && t[j].text == "::") continue;
    while (j < t.size() && (t[j].text == "*" || t[j].text == "&")) ++j;
    if (j < t.size() && ident_start(t[j].text[0])) names.insert(t[j].text);
  }
  return names;
}

void rule_d2(const std::string& path, const Lexed& lx, const Options& options,
             std::vector<Finding>& findings) {
  // tools/snoopd ships the determinism contract to users (CI byte-diffs its
  // FleetReport across --jobs values), so it is held to the same ordered-
  // container discipline as src/.
  if (!options.all_rules_everywhere && !under(path, "src/") && !under(path, "tools/snoopd/"))
    return;
  std::set<std::string> names = unordered_names(lx.tokens);
  names.insert(options.known_unordered.begin(), options.known_unordered.end());
  if (names.empty()) return;
  const auto& t = lx.tokens;
  auto flag = [&](std::size_t at, const std::string& name) {
    report(findings, lx, Rule::kD2Ordered, path, t[at].line,
           "iteration over unordered container '" + name +
               "': order is rehash-dependent and may reach serialized output; use an "
               "ordered container or sort first");
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for whose range expression mentions an unordered name.
    if (t[i].text == "for" && i + 1 < t.size() && t[i + 1].text == "(") {
      const std::size_t close = match_close(t, i + 1);
      std::size_t colon = t.size();
      for (std::size_t k = i + 2; k < close; ++k) {
        if (t[k].text == ":" && (k == 0 || t[k - 1].text != ":") &&
            (k + 1 >= t.size() || t[k + 1].text != ":")) {
          colon = k;
          break;
        }
      }
      if (colon != t.size()) {
        for (std::size_t k = colon + 1; k < close; ++k) {
          if (names.count(t[k].text) != 0) {
            flag(k, t[k].text);
            break;
          }
        }
      }
    }
    // Iterator-style walk: name.begin() / name.cbegin().
    if (names.count(t[i].text) != 0 && i + 3 < t.size() &&
        (t[i + 1].text == "." || t[i + 1].text == "->") &&
        (t[i + 2].text == "begin" || t[i + 2].text == "cbegin") && t[i + 3].text == "(")
      flag(i, t[i].text);
  }
}

// --------------------------------------------------------------------------
// D4 — observer dereferences must be null-guarded.

bool obs_ident(const std::string& s) {
  return s == "obs" || s == "obs_" || s == "observer" || s == "observer_";
}

void rule_d4(const std::string& path, const Lexed& lx, const Options& options,
             std::vector<Finding>& findings) {
  (void)options;
  const auto& t = lx.tokens;
  std::vector<bool> guarded{false};  // scope stack; [0] is file scope
  bool pending_cond_guard = false;   // an if/while/for condition mentioned obs
  bool stmt_guard = false;           // single-statement if-guard active
  int stmt_obs_mentions = 0;         // obs idents earlier in this statement
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "if" || s == "while" || s == "for") {
      if (i + 1 < t.size() && t[i + 1].text == "(") {
        const std::size_t close = match_close(t, i + 1);
        bool mentions = false;
        for (std::size_t k = i + 2; k < close; ++k)
          if (obs_ident(t[k].text)) mentions = true;
        if (mentions) {
          if (close + 1 < t.size() && t[close + 1].text == "return") {
            // `if (obs_ == nullptr) return ...;` — rest of scope is guarded.
            guarded.back() = true;
          } else if (close + 1 < t.size() && t[close + 1].text == "{") {
            pending_cond_guard = true;
          } else {
            stmt_guard = true;  // single-statement body
          }
        }
        i = close;  // skip the condition itself
        continue;
      }
    }
    if (s == "{") {
      guarded.push_back(guarded.back() || pending_cond_guard);
      pending_cond_guard = false;
      stmt_obs_mentions = 0;
      continue;
    }
    if (s == "}") {
      if (guarded.size() > 1) guarded.pop_back();
      stmt_guard = false;
      stmt_obs_mentions = 0;
      continue;
    }
    if (s == ";") {
      stmt_guard = false;
      stmt_obs_mentions = 0;
      continue;
    }
    if (obs_ident(s)) {
      const bool deref = i + 1 < t.size() && t[i + 1].text == "->";
      if (deref && !guarded.back() && !stmt_guard && stmt_obs_mentions == 0) {
        report(findings, lx, Rule::kD4ObsGuard, path, t[i].line,
               "unguarded observer dereference '" + s +
                   "->'; wrap in `if (" + s + " != nullptr)` so disabled runs pay one "
                   "branch and zero allocations");
      }
      ++stmt_obs_mentions;
    }
  }
}

// --------------------------------------------------------------------------
// D5 — population-scale discipline for src/radio/.

void rule_d5(const std::string& path, const Lexed& lx, const Options& options,
             std::vector<Finding>& findings) {
  // The medium is sized for 100k+ endpoints, so the rule is stricter than
  // D2: unordered containers are banned at *declaration* (not just at
  // iteration), and std:: linear-search algorithms are banned outright —
  // per-endpoint resolution belongs in the EndpointRegistry's ordered
  // indexes, where it is O(log n). Under the fixture harness ("all rules
  // everywhere") the scope widens from src/radio/ to any path mentioning
  // radio, so the d5 fixture exercises the rule without dragging the other
  // fixtures into it.
  if (options.all_rules_everywhere ? !path_has(path, "radio") : !under(path, "src/radio/")) return;
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  static const std::set<std::string> kLinearScan = {"find", "find_if", "count_if"};
  const auto& t = lx.tokens;
  // Statement-granular suppression: a finding deep inside a multi-line
  // statement (a find_if whose arguments span lines, ending in a lambda) is
  // covered by a tag anywhere in the statement — from its first line to the
  // delimiter that ends it — or above its first line.
  auto is_delim = [](const std::string& s) { return s == ";" || s == "{" || s == "}"; };
  auto flag = [&](std::size_t at, std::string message) {
    std::size_t first = at;
    while (first > 0 && !is_delim(t[first - 1].text)) --first;
    std::size_t last = at;
    while (last + 1 < t.size() && !is_delim(t[last].text)) ++last;
    if (suppressed_range(lx, t[first].line, t[last].line, rule_tag(Rule::kD5RadioScan)))
      return;
    findings.push_back(Finding{Rule::kD5RadioScan, path, t[at].line, std::move(message)});
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (kUnordered.count(s) != 0) {
      flag(i,
           "'" + s + "' in src/radio/: hash order is rehash-dependent and one "
           "hop from serialized output; use the registry's ordered indexes");
      continue;
    }
    const bool std_qualified = i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std";
    if (std_qualified && kLinearScan.count(s) != 0 && i + 1 < t.size() &&
        t[i + 1].text == "(") {
      flag(i,
           "'std::" + s + "' linear scan in src/radio/: O(n) per operation at "
           "crowd scale; resolve endpoints through the EndpointRegistry index");
    }
  }
}

// --------------------------------------------------------------------------
// S1 — IO-capability / association-model comparisons are the business of
// ui_model and security_manager; scattered copies are how Happy-MitM-style
// spec violations creep in.

void rule_s1(const std::string& path, const Lexed& lx, const Options& options,
             std::vector<Finding>& findings) {
  if (!options.all_rules_everywhere) {
    if (!under(path, "src/")) return;
    if (under(path, "src/host/ui_model") || under(path, "src/host/security_manager") ||
        under(path, "src/hci/"))
      return;
  }
  static const std::set<std::string> kIoCapConsts = {"kNoInputNoOutput", "kDisplayOnly",
                                                     "kDisplayYesNo", "kKeyboardOnly"};
  const auto& t = lx.tokens;
  // Statement-granular scan: flag a statement containing both an IO-cap
  // constant and a comparison operator.
  std::size_t stmt_start = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == ";" || s == "{" || s == "}") {
      stmt_start = i + 1;
      continue;
    }
    if (kIoCapConsts.count(s) == 0) continue;
    // The constant is *compared* when the nearest interesting token walking
    // back from it is ==/!=, not a ternary `?` (a `cond ? a : kDefault`
    // fallback merely selects a value and is fine). Forward, `kX == y` puts
    // the operator right after the constant.
    bool compared = false;
    for (std::size_t k = i; k > stmt_start; --k) {
      const std::string& w = t[k - 1].text;
      if (w == "==" || w == "!=") {
        compared = true;
        break;
      }
      if (w == "?") break;
    }
    if (!compared && i + 1 < t.size() && (t[i + 1].text == "==" || t[i + 1].text == "!="))
      compared = true;
    if (!compared) continue;
    const int stmt_line = stmt_start < t.size() ? t[stmt_start].line : t[i].line;
    if (suppressed_range(lx, stmt_line, t[i].line, rule_tag(Rule::kS1Spec))) continue;
    findings.push_back(Finding{Rule::kS1Spec, path, t[i].line,
                               "association-model comparison against '" + s +
                                   "' outside ui_model/security_manager; route the decision "
                                   "through select_association_model/confirmation_behavior"});
  }
}

// --------------------------------------------------------------------------
// D7 — failpoints must be branches.

void rule_d7(const std::string& path, const Lexed& lx, const Options& options,
             std::vector<Finding>& findings) {
  // Scoped to src/: the chaos tests and harnesses legitimately probe the
  // macro as an expression (recorder assertions, replayability sweeps).
  if (!options.all_rules_everywhere && !under(path, "src/")) return;
  const auto& t = lx.tokens;
  // Paren ranges of every `if (...)` condition.
  std::vector<std::pair<std::size_t, std::size_t>> conditions;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "if" || t[i + 1].text != "(") continue;
    const std::size_t close = match_close(t, i + 1);
    if (close < t.size()) conditions.emplace_back(i + 1, close);
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "BLAP_FAILPOINT") continue;
    // The macro's own `#define BLAP_FAILPOINT(site)` is not a use.
    if (i > 0 && t[i - 1].text == "define") continue;
    bool inside = false;
    for (const auto& [open, close] : conditions) {
      if (i > open && i < close) {
        inside = true;
        break;
      }
    }
    if (!inside)
      report(findings, lx, Rule::kD7Failpoint, path, t[i].line,
             "BLAP_FAILPOINT outside an if condition: a failpoint is a branch, and a "
             "bare-expression passage counts hits while taking no fault path");
  }
}

}  // namespace

// --------------------------------------------------------------------------
// Public API.

const char* rule_id(Rule rule) {
  switch (rule) {
    case Rule::kD1Wallclock: return "D1";
    case Rule::kD2Ordered: return "D2";
    case Rule::kD4ObsGuard: return "D4";
    case Rule::kD5RadioScan: return "D5";
    case Rule::kS1Spec: return "S1";
    case Rule::kD7Failpoint: return "D7";
  }
  return "?";
}

const char* rule_tag(Rule rule) {
  switch (rule) {
    case Rule::kD1Wallclock: return "wallclock-ok";
    case Rule::kD2Ordered: return "ordered-ok";
    case Rule::kD4ObsGuard: return "obs-ok";
    case Rule::kD5RadioScan: return "radio-scan-ok";
    case Rule::kS1Spec: return "spec-ok";
    case Rule::kD7Failpoint: return "failpoint-ok";
  }
  return "?";
}

const char* rule_summary(Rule rule) {
  switch (rule) {
    case Rule::kD1Wallclock:
      return "no wall-clock/PRNG sources in simulation code";
    case Rule::kD2Ordered:
      return "no iteration over unordered containers in simulation code";
    case Rule::kD4ObsGuard:
      return "observer dereferences must be null-guarded";
    case Rule::kD5RadioScan:
      return "no unordered containers or std:: linear scans in src/radio/";
    case Rule::kS1Spec:
      return "association-model decisions centralized in ui_model/security_manager";
    case Rule::kD7Failpoint:
      return "every BLAP_FAILPOINT must sit inside an if condition";
  }
  return "?";
}

std::string Finding::format() const {
  std::ostringstream out;
  out << file << ":" << line << ": [" << rule_id(rule) << "] " << message;
  return out.str();
}

std::vector<Finding> lint_file(std::string_view path, std::string_view content,
                               const Options& options) {
  const std::string norm = normalize(path);
  const Lexed lx = lex(content);
  std::vector<Finding> findings;
  rule_d1(norm, lx, options, findings);
  rule_d2(norm, lx, options, findings);
  rule_d4(norm, lx, options, findings);
  rule_d5(norm, lx, options, findings);
  rule_s1(norm, lx, options, findings);
  rule_d7(norm, lx, options, findings);
  return findings;
}

std::vector<TreeFile> tree_files(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<TreeFile> files;
  for (const char* dir : {"src", "examples", "bench", "tests", "tools"}) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string relative =
          normalize((fs::path(dir) / entry.path().lexically_relative(base)).string());
      if (path_has(relative, "lint_fixtures") || path_has(relative, "taint_fixtures") ||
          path_has(relative, "/build"))
        continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc")
        files.push_back({normalize(entry.path().string()), relative});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const TreeFile& a, const TreeFile& b) { return a.path < b.path; });
  return files;
}

std::vector<Finding> lint_tree(const std::string& root, const Options& options) {
  const std::vector<TreeFile> files = tree_files(root);

  auto read = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };

  // Pre-pass: names declared unordered anywhere (a member declared in a
  // header is usually iterated in the matching .cpp).
  Options opts = options;
  for (const TreeFile& f : files) {
    const Lexed lx = lex(read(f.path));
    for (const std::string& name : unordered_names(lx.tokens))
      opts.known_unordered.push_back(name);
  }

  std::vector<Finding> findings;
  for (const TreeFile& f : files) {
    for (Finding& finding : lint_file(f.relative, read(f.path), opts)) {
      finding.file = f.path;
      findings.push_back(std::move(finding));
    }
  }
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return static_cast<int>(a.rule) < static_cast<int>(b.rule);
  });
  return findings;
}

}  // namespace blap::lint
