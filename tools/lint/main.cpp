// main.cpp — blap-lint CLI.
//
//   blap-lint [--root DIR] [files...]
//
// With no file arguments, lints the whole tree under --root (default: the
// current directory): src/, examples/, bench/, tests/, tools/, skipping the
// intentionally-bad tests/lint_fixtures. Exit code 0 = clean, 1 = findings,
// 2 = usage or I/O error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: blap-lint [--root DIR] [--all-rules-everywhere] [--list-rules] "
               "[files...]\n");
}

void list_rules() {
  for (blap::lint::Rule rule : blap::lint::kAllRules) {
    std::printf("%s  (suppress: // blap-lint: %s)\n    %s\n", blap::lint::rule_id(rule),
                blap::lint::rule_tag(rule), blap::lint::rule_summary(rule));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  blap::lint::Options options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--root") == 0) {
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      root = argv[++i];
    } else if (std::strcmp(arg, "--all-rules-everywhere") == 0) {
      options.all_rules_everywhere = true;
    } else if (std::strcmp(arg, "--list-rules") == 0) {
      list_rules();
      return 0;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage();
      return 0;
    } else if (arg[0] == '-') {
      usage();
      return 2;
    } else {
      files.emplace_back(arg);
    }
  }

  std::vector<blap::lint::Finding> findings;
  if (files.empty()) {
    findings = blap::lint::lint_tree(root, options);
  } else {
    for (const std::string& f : files) {
      std::ifstream in(f, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "blap-lint: cannot read %s\n", f.c_str());
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      // Rules scope on the path relative to --root; findings name `f`.
      std::error_code ec;
      std::string relative = std::filesystem::relative(f, root, ec).generic_string();
      if (ec || relative.empty()) relative = f;
      for (auto& finding : blap::lint::lint_file(relative, buf.str(), options)) {
        finding.file = f;
        findings.push_back(std::move(finding));
      }
    }
  }

  for (const auto& finding : findings) std::printf("%s\n", finding.format().c_str());
  if (findings.empty()) {
    std::printf("blap-lint: clean\n");
    return 0;
  }
  std::printf("blap-lint: %zu finding(s)\n", findings.size());
  return 1;
}
