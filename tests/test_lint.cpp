// test_lint.cpp — blap-lint's own test suite.
//
// Each rule has a known-bad fixture in tests/lint_fixtures/. Offending lines
// carry a trailing `// EXPECT-<rule>` marker; the tests assert the analyzer
// fires on exactly the marked lines — no more, no less — which covers both
// detection and the suppression comments the fixtures also exercise. A final
// test holds the real tree to zero findings, making the fixtures the only
// place a rule is allowed to fire.
#include "lint.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

namespace {

using blap::lint::Finding;
using blap::lint::Options;
using blap::lint::Rule;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string fixture_path(const std::string& name) {
  return std::string(BLAP_LINT_FIXTURE_DIR) + "/" + name;
}

/// (line, rule-id) pairs expected from `// EXPECT-D1`-style markers.
std::set<std::pair<int, std::string>> expected_findings(const std::string& content) {
  std::set<std::pair<int, std::string>> expected;
  std::istringstream in(content);
  std::string line_text;
  int line = 0;
  while (std::getline(in, line_text)) {
    ++line;
    const std::size_t at = line_text.find("EXPECT-");
    if (at == std::string::npos) continue;
    expected.emplace(line, line_text.substr(at + 7, 2));
  }
  return expected;
}

std::set<std::pair<int, std::string>> actual_findings(const std::vector<Finding>& findings) {
  std::set<std::pair<int, std::string>> actual;
  for (const Finding& f : findings) actual.emplace(f.line, blap::lint::rule_id(f.rule));
  return actual;
}

/// Lint a fixture and compare against its EXPECT markers.
void check_fixture(const std::string& name) {
  const std::string content = read_file(fixture_path(name));
  ASSERT_FALSE(content.empty());
  Options options;
  options.all_rules_everywhere = true;
  const auto findings = blap::lint::lint_file(name, content, options);
  EXPECT_EQ(expected_findings(content), actual_findings(findings)) << [&] {
    std::string got = "findings:\n";
    for (const Finding& f : findings) got += "  " + f.format() + "\n";
    return got;
  }();
}

TEST(LintFixtures, D1WallclockFiresAndHonorsSuppression) { check_fixture("d1_wallclock.cpp"); }
TEST(LintFixtures, D2UnorderedFiresAndHonorsSuppression) { check_fixture("d2_unordered.cpp"); }
TEST(LintFixtures, D4ObsGuardFiresAndHonorsSuppression) { check_fixture("d4_obs.cpp"); }
TEST(LintFixtures, D5RadioScanFiresAndHonorsSuppression) { check_fixture("d5_radio.cpp"); }
TEST(LintFixtures, S1SpecFiresAndHonorsSuppression) { check_fixture("s1_spec.cpp"); }
TEST(LintFixtures, D7FailpointFiresAndHonorsSuppression) { check_fixture("d7_failpoint.cpp"); }

TEST(Lint, StringLiteralsAndCommentsNeverTrip) {
  const char* src =
      "const char* s = \"time() and std::rand() and steady_clock\";\n"
      "// system_clock in prose\n"
      "/* for (auto& kv : some_unordered_map) */\n";
  Options options;
  options.all_rules_everywhere = true;
  EXPECT_TRUE(blap::lint::lint_file("snippet.cpp", src, options).empty());
}

TEST(Lint, DigitSeparatorsAreNotCharLiterals) {
  // A naive lexer treats the ' in 1'000'000 as a char-literal opener and
  // swallows the rest of the file — including real violations.
  const char* src =
      "constexpr unsigned long long kSecond = 1'000'000;\n"
      "long t = time(nullptr);\n";
  Options options;
  options.all_rules_everywhere = true;
  const auto findings = blap::lint::lint_file("snippet.cpp", src, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kD1Wallclock);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(Lint, FindingFormatIsStable) {
  Finding f{Rule::kD2Ordered, "src/foo.cpp", 42, "message"};
  EXPECT_EQ(f.format(), "src/foo.cpp:42: [D2] message");
}

TEST(Lint, D1CoversAnalyticsAndSnoopdTrees) {
  // The fleet analytics engine and its CLI promise byte-identical reports;
  // a wall-clock read anywhere in either tree must trip the default gate.
  const char* src = "long now() { return time(nullptr); }\n";
  for (const char* path : {"src/analytics/fleet.cpp", "tools/snoopd/main.cpp"}) {
    const auto findings = blap::lint::lint_file(path, src, Options{});
    ASSERT_EQ(findings.size(), 1u) << path;
    EXPECT_EQ(findings[0].rule, Rule::kD1Wallclock) << path;
  }
}

TEST(Lint, D2CoversAnalyticsAndSnoopdTrees) {
  const char* src =
      "std::unordered_map<int, int> counts_;\n"
      "int sum() { int n = 0; for (auto& [k, v] : counts_) n += v; return n; }\n";
  for (const char* path : {"src/analytics/detectors.cpp", "tools/snoopd/main.cpp"}) {
    const auto findings = blap::lint::lint_file(path, src, Options{});
    ASSERT_EQ(findings.size(), 1u) << path;
    EXPECT_EQ(findings[0].rule, Rule::kD2Ordered) << path;
  }
}

TEST(Lint, D7ScopedToSrcTree) {
  // The chaos tests probe the macro as a bare expression on purpose
  // (recorder assertions, replayability sweeps); only src/ is held to the
  // failpoints-are-branches rule.
  const char* src = "void f() { (void)BLAP_FAILPOINT(\"a.b.c\"); }\n";
  EXPECT_TRUE(blap::lint::lint_file("tests/test_chaos.cpp", src, Options{}).empty());
  const auto findings = blap::lint::lint_file("src/radio/radio_medium.cpp", src, Options{});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kD7Failpoint);
}

TEST(Lint, RuleMetadataIsConsistent) {
  for (Rule rule : blap::lint::kAllRules) {
    EXPECT_STRNE(blap::lint::rule_id(rule), "?");
    EXPECT_STRNE(blap::lint::rule_tag(rule), "?");
    EXPECT_STRNE(blap::lint::rule_summary(rule), "?");
  }
}

TEST(Lint, HeaderDeclaredUnorderedMemberCaughtViaKnownNames) {
  // Simulates lint_tree's pre-pass: the member is declared unordered in a
  // header, iterated in a .cpp that never mentions the type.
  Options options;
  options.all_rules_everywhere = true;
  options.known_unordered.push_back("acls_");
  const char* src = "int f() { int n = 0; for (auto& [k, v] : acls_) ++n; return n; }\n";
  const auto findings = blap::lint::lint_file("host.cpp", src, options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kD2Ordered);
}

// Scopes and the fixture/build exclusions match paths relative to the root,
// so where the checkout lives never matters: under a directory named
// build-x_src/, "/build" and "src/" both occur in every absolute path.
TEST(Lint, TreeWalkScopesOnRootRelativePaths) {
  namespace fs = std::filesystem;
  const fs::path temp =
      fs::temp_directory_path() / ("blap_lint_walk_" + std::to_string(::getpid()));
  const fs::path root = temp / "build-x_src";
  fs::create_directories(root / "src" / "common");
  fs::create_directories(root / "tests");
  std::ofstream(root / "src" / "common" / "clock.cpp")
      << "long now() { return std::time(nullptr); }\n";
  std::ofstream(root / "tests" / "test_probe.cpp")
      << "void f() { (void)BLAP_FAILPOINT(\"a.b.c\"); }\n";

  EXPECT_EQ(blap::lint::tree_files(root.string()).size(), 2u);
  const auto findings = blap::lint::lint_tree(root.string());
  fs::remove_all(temp);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kD1Wallclock);
  EXPECT_EQ(findings[0].file, (root / "src" / "common" / "clock.cpp").string());
}

// The teeth of the gate: the shipped tree carries zero findings, so any new
// violation fails CI rather than silently eroding the determinism contract.
TEST(Lint, RepositoryTreeIsClean) {
  const auto findings = blap::lint::lint_tree(BLAP_SOURCE_DIR);
  std::string got;
  for (const Finding& f : findings) got += f.format() + "\n";
  EXPECT_TRUE(findings.empty()) << got;
}

}  // namespace
