// Typed-error coverage for replay bundle loading (tests/malformed_bundles/).
//
// A bundle that cannot be parsed must come back as a BundleError carrying
// the file, the 1-based line and the byte offset of that line — never an
// abort mid-parse, never a silent half-understood bundle. Each fixture is
// deliberately broken in exactly one way; the tests pin the error location
// so a parser refactor that loses precision fails here.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "snapshot/replay.hpp"

namespace blap::snapshot {
namespace {

std::string fixture_path(const char* name) {
  return std::string(BLAP_MALFORMED_BUNDLE_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Byte offset where 1-based `line` starts in `text`.
std::size_t line_offset(const std::string& text, std::size_t line) {
  std::size_t offset = 0;
  for (std::size_t i = 1; i < line; ++i) offset = text.find('\n', offset) + 1;
  return offset;
}

TEST(ReplayErrors, TruncatedBase64ReportsSnapshotBlock) {
  const std::string path = fixture_path("truncated-base64.blapreplay");
  BundleError error;
  EXPECT_FALSE(ReplayBundle::load_file(path, error).has_value());
  EXPECT_EQ(error.file, path);
  // The payload (not the 'snapshot:' marker) is the reported location.
  EXPECT_EQ(error.line, 11u);
  EXPECT_EQ(error.offset, line_offset(slurp(path), 11));
  EXPECT_NE(error.message.find("not valid base64"), std::string::npos) << error.message;
}

TEST(ReplayErrors, CorruptBase64ReportsSnapshotBlock) {
  const std::string path = fixture_path("corrupt-base64.blapreplay");
  BundleError error;
  EXPECT_FALSE(ReplayBundle::load_file(path, error).has_value());
  EXPECT_EQ(error.line, 11u);
  EXPECT_EQ(error.offset, line_offset(slurp(path), 11));
  EXPECT_NE(error.message.find("not valid base64"), std::string::npos) << error.message;
}

TEST(ReplayErrors, OverlongFieldIsRefusedAtItsLine) {
  const std::string path = fixture_path("overlong-field.blapreplay");
  BundleError error;
  EXPECT_FALSE(ReplayBundle::load_file(path, error).has_value());
  EXPECT_EQ(error.line, 6u);  // the 5000-byte trial_kind line
  EXPECT_EQ(error.offset, line_offset(slurp(path), 6));
  EXPECT_NE(error.message.find("limit " + std::to_string(ReplayBundle::kMaxFieldLength)),
            std::string::npos)
      << error.message;
}

TEST(ReplayErrors, UnknownKeyIsRefused) {
  const std::string path = fixture_path("unknown-key.blapreplay");
  BundleError error;
  EXPECT_FALSE(ReplayBundle::load_file(path, error).has_value());
  EXPECT_EQ(error.line, 7u);  // the 'verdict:' line
  EXPECT_NE(error.message.find("unknown key 'verdict'"), std::string::npos) << error.message;
}

TEST(ReplayErrors, BiasOutOfRangeIsRefusedAtTheScenarioLine) {
  // bias=nan: the accessory's page-scan interval would be a NaN cast to
  // SimTime. Refused where the manifest says it, not at replay.
  const std::string path = fixture_path("bias-out-of-range.blapreplay");
  const std::string text = slurp(path);
  BundleError error;
  EXPECT_FALSE(ReplayBundle::load_file(path, error).has_value());
  EXPECT_EQ(error.line, 2u);  // the 'scenario:' line
  EXPECT_EQ(error.offset, line_offset(text, 2));
  EXPECT_NE(error.message.find("bad value for 'scenario'"), std::string::npos)
      << error.message;

  // bias=0x1p+0 (p = 1): the interval would be +inf.
  std::string edited = text;
  edited.replace(edited.find("bias=nan"), 8, "bias=0x1p+0");
  error = {};
  EXPECT_FALSE(ReplayBundle::from_text(edited, error).has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_NE(error.message.find("bad value for 'scenario'"), std::string::npos)
      << error.message;
}

TEST(ReplayErrors, MissingFieldsAreListedByName) {
  const std::string path = fixture_path("missing-field.blapreplay");
  BundleError error;
  EXPECT_FALSE(ReplayBundle::load_file(path, error).has_value());
  EXPECT_NE(error.message.find("missing required field(s)"), std::string::npos)
      << error.message;
  EXPECT_NE(error.message.find("trial_seed"), std::string::npos);
  EXPECT_NE(error.message.find("trial_kind"), std::string::npos);
  EXPECT_NE(error.message.find("success"), std::string::npos);
}

TEST(ReplayErrors, MissingFileHasTypedError) {
  const std::string path = fixture_path("does-not-exist.blapreplay");
  BundleError error;
  EXPECT_FALSE(ReplayBundle::load_file(path, error).has_value());
  EXPECT_EQ(error.file, path);
  EXPECT_EQ(error.message, "cannot open file");
}

TEST(ReplayErrors, ToStringCarriesFileLineAndOffset) {
  BundleError error;
  error.file = "bundle.blapreplay";
  error.line = 11;
  error.offset = 230;
  error.message = "snapshot payload is not valid base64 (truncated or corrupt)";
  EXPECT_EQ(error.to_string(),
            "bundle.blapreplay:11 (offset 230): snapshot payload is not valid base64 "
            "(truncated or corrupt)");
}

TEST(ReplayErrors, LegacyStringOverloadWrapsTypedError) {
  std::string why;
  EXPECT_FALSE(ReplayBundle::from_text("not a bundle", &why).has_value());
  EXPECT_NE(why.find("missing bundle header line"), std::string::npos) << why;
}

TEST(ReplayErrors, OversizedSnapshotPayloadIsRefused) {
  // Build a text whose snapshot block exceeds the base64 ceiling without
  // materializing a >64 MiB fixture on disk.
  std::string text =
      "blap-replay-bundle v1\n"
      "scenario: kind=abc table=2 profile=5 transport=uart dump=1 bias=0x1p-1\n"
      "trial_seed: 1\n"
      "trial_kind: page_blocking_baseline\n"
      "success: 1\n"
      "snapshot:\n";
  const std::string chunk(76, 'A');
  const std::size_t lines = ReplayBundle::kMaxSnapshotBase64 / chunk.size() + 2;
  text.reserve(text.size() + lines * (chunk.size() + 1));
  for (std::size_t i = 0; i < lines; ++i) {
    text += chunk;
    text += '\n';
  }
  BundleError error;
  EXPECT_FALSE(ReplayBundle::from_text(text, error).has_value());
  EXPECT_NE(error.message.find("exceeds"), std::string::npos) << error.message;
}

}  // namespace
}  // namespace blap::snapshot
