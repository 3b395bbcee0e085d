// test_taint.cpp — blap-taint's own test suite.
//
// Mirrors test_lint's fixture harness: each pass has known-bad fixtures in
// tests/taint_fixtures/ whose offending lines carry trailing `// EXPECT-S2`
// / `// EXPECT-D6` markers, and the tests assert the analyzer fires on
// exactly the marked lines. Fixtures also pin the declassified-site and
// proven-lifetime-site counters, so the whitelist and proof machinery are
// covered, not just detection. The final tests hold the real tree to zero
// findings and diff its declassification whitelist against the pinned
// tests/taint_expected_sites.txt.
#include "taint.hpp"

#include <gtest/gtest.h>

#include "lint.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using blap::taint::Finding;
using blap::taint::Report;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The repository's sources, as blap-taint's tree mode walks them.
std::vector<blap::lint::TreeFile> repo_files() { return blap::lint::tree_files(BLAP_SOURCE_DIR); }

std::string fixture_path(const std::string& name) {
  return std::string(BLAP_TAINT_FIXTURE_DIR) + "/" + name;
}

/// (line, rule-id) pairs expected from `// EXPECT-S2`-style markers.
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
  for (const Finding& f : findings) actual.emplace(f.line, blap::taint::rule_id(f.rule));
  return actual;
}

Report analyze_fixture(const std::string& name) {
  const std::string content = read_file(fixture_path(name));
  EXPECT_FALSE(content.empty());
  // Scoped on its root-relative path, so record-builder context applies —
  // same as when the CLI walks the real tree.
  return blap::taint::analyze_sources(
      {{fixture_path(name), content, "tests/taint_fixtures/" + name}});
}

/// Analyze a fixture and compare against its EXPECT markers plus the
/// expected declassified-site and proven-lifetime-site counts.
void check_fixture(const std::string& name, std::size_t declassified, int proven) {
  const std::string content = read_file(fixture_path(name));
  ASSERT_FALSE(content.empty());
  const Report report = analyze_fixture(name);
  EXPECT_EQ(expected_findings(content), actual_findings(report.findings)) << [&] {
    std::string got = "findings:\n";
    for (const Finding& f : report.findings) got += "  " + blap::taint::to_string(f) + "\n";
    return got;
  }();
  EXPECT_EQ(declassified, report.declassified.size());
  EXPECT_EQ(proven, report.proven_lifetime_sites);
}

TEST(TaintFixtures, S2RenamedBufferReachesLog) {
  check_fixture("s2_renamed_buffer.cpp", 0, 0);
}
TEST(TaintFixtures, S2KeyAndPinFieldsReachLog) {
  check_fixture("s2_key_and_pin_log.cpp", 0, 0);
}
TEST(TaintFixtures, S2InterproceduralArgAndReturnFlow) {
  check_fixture("s2_interproc.cpp", 1, 0);
}
TEST(TaintFixtures, S2SnapshotSerializerRecordBuilderSinks) {
  check_fixture("s2_sinks.cpp", 2, 0);
}
TEST(TaintFixtures, D6RawCaptureFlaggedHandleProvenWaiverHonored) {
  check_fixture("d6_lifetime.cpp", 0, 1);
}
TEST(TaintFixtures, TokenizerRawStringLiterals) {
  check_fixture("t1_raw_string.cpp", 0, 0);
}
TEST(TaintFixtures, TokenizerAttributes) {
  check_fixture("t2_attributes.cpp", 0, 0);
}
TEST(TaintFixtures, TokenizerNestedLambdas) {
  check_fixture("t3_nested_lambda.cpp", 0, 1);
}
TEST(TaintFixtures, TokenizerMacroSpanningStatements) {
  check_fixture("t4_macro_span.cpp", 1, 0);
}

TEST(Taint, DeclassifiedSiteRecordsJustificationAndKind) {
  const Report report = analyze_fixture("s2_interproc.cpp");
  ASSERT_EQ(1u, report.declassified.size());
  const auto& site = report.declassified[0];
  EXPECT_EQ("emit_size", site.function);
  EXPECT_EQ("obs", site.kind);
  EXPECT_NE(std::string::npos, site.why.find("intentional observation point"));
}

TEST(Taint, ReportJsonCarriesFindingsAndSites) {
  const Report report = analyze_fixture("s2_sinks.cpp");
  const std::string json = blap::taint::report_json(report);
  EXPECT_NE(std::string::npos, json.find("\"findings\""));
  EXPECT_NE(std::string::npos, json.find("\"declassified_sites\""));
  EXPECT_NE(std::string::npos, json.find("\"proven_lifetime_sites\""));
  EXPECT_NE(std::string::npos, json.find("save_key_section"));
}

TEST(Taint, SiteLinesAreStableAndPrefixStripped) {
  const Report report = analyze_fixture("s2_sinks.cpp");
  const auto lines = blap::taint::site_lines(report, BLAP_TAINT_FIXTURE_DIR);
  EXPECT_EQ(lines, (std::vector<std::string>{"s2_sinks.cpp:persist_key_section:snapshot",
                                             "s2_sinks.cpp:save_key_section:snapshot"}));
}

// Context scopes match root-relative paths: a checkout under directories
// named analytics/ and mytests/ must not make every file a serializer or a
// record builder.
TEST(Taint, ContextsScopeOnRootRelativePaths) {
  namespace fs = std::filesystem;
  const fs::path temp =
      fs::temp_directory_path() / ("blap_taint_walk_" + std::to_string(::getpid()));
  const fs::path root = temp / "analytics" / "mytests" / "repo";
  fs::create_directories(root / "src" / "crypto");
  std::ofstream(root / "src" / "crypto" / "mix.cpp")
      << "struct LinkKey { unsigned char b[16]; };\n"
         "void mix(std::string& out, const LinkKey& key) { out += key.b[0]; }\n"
         "Bytes record(const LinkKey& key) { return make_event(kLinkKeyNotification, key); }\n";

  const Report report = blap::taint::analyze_files(blap::lint::tree_files(root.string()));
  fs::remove_all(temp);
  EXPECT_EQ(report.files_analyzed, 1);
  EXPECT_TRUE(report.findings.empty()) << [&] {
    std::string got = "findings:\n";
    for (const Finding& f : report.findings) got += "  " + blap::taint::to_string(f) + "\n";
    return got;
  }();
}

// The real tree must be clean: every intentional key-material observation
// carries a declassification marker, and nothing else reaches a sink. The
// fixtures above are the only place S2/D6 are allowed to fire.
TEST(TaintTree, RepoTreeHasNoFindings) {
  const auto files = repo_files();
  ASSERT_FALSE(files.empty());
  const Report report = blap::taint::analyze_files(files);
  EXPECT_TRUE(report.findings.empty()) << [&] {
    std::string got = "findings:\n";
    for (const Finding& f : report.findings) got += "  " + blap::taint::to_string(f) + "\n";
    return got;
  }();
  EXPECT_GT(report.functions_analyzed, 1000);
  EXPECT_GT(report.files_analyzed, 150);
}

// The declassification whitelist is pinned: adding a key-material sink —
// even a marked one — must show up in review as a diff to
// tests/taint_expected_sites.txt, mirroring what CI enforces against
// taint-sites.txt.
TEST(TaintTree, DeclassifiedSitesMatchPinnedWhitelist) {
  const auto files = repo_files();
  const Report report = blap::taint::analyze_files(files);

  std::vector<std::string> expected;
  std::istringstream in(read_file(std::string(BLAP_SOURCE_DIR) + "/tests/taint_expected_sites.txt"));
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) expected.push_back(line);

  EXPECT_EQ(expected, blap::taint::site_lines(report, BLAP_SOURCE_DIR));
}

// Scheduler callbacks in the live tree hold generation-checked handles and
// re-validate them, which the analyzer proves rather than waives.
TEST(TaintTree, SchedulerCallbacksProveHandleRevalidation) {
  const auto files = repo_files();
  const Report report = blap::taint::analyze_files(files);
  EXPECT_GE(report.proven_lifetime_sites, 4);
}

}  // namespace
