// main.cpp — blap-taint CLI.
//
//   blap-taint [--root DIR] [--compile-commands PATH]
//              [--json OUT] [--sites OUT] [files...]
//
// With no file arguments, analyzes the whole tree under --root (default:
// the current directory) as one program — the translation units from
// --compile-commands plus every header the tree walk finds (headers are
// not in the compilation database but hold the inline methods and the
// secret-typed field declarations the passes need). Exit code 0 = clean,
// 1 = findings, 2 = usage or I/O error.
//
// --json writes the machine-readable report (CI uploads it as the
// taint-report.json artifact); --sites writes the deduplicated
// declassification whitelist, one "file:function:kind" per line, which CI
// diffs against the pinned tests/taint_expected_sites.txt.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint.hpp"
#include "taint.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: blap-taint [--root DIR] [--compile-commands PATH] "
               "[--json OUT] [--sites OUT] [files...]\n");
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string compile_commands;
  std::string json_out;
  std::string sites_out;
  // Explicit file arguments are scoped as spelled.
  std::vector<blap::lint::TreeFile> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](std::string& into) {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      into = argv[++i];
    };
    if (std::strcmp(arg, "--root") == 0) {
      value(root);
    } else if (std::strcmp(arg, "--compile-commands") == 0) {
      value(compile_commands);
    } else if (std::strcmp(arg, "--json") == 0) {
      value(json_out);
    } else if (std::strcmp(arg, "--sites") == 0) {
      value(sites_out);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage();
      return 0;
    } else if (arg[0] == '-') {
      usage();
      return 2;
    } else {
      files.push_back({arg, arg});
    }
  }

  // Canonicalize the root so a relative `--root .` walk and the absolute
  // paths in compile_commands.json land on one spelling per file —
  // otherwise every TU is analyzed (and whitelisted) twice.
  {
    std::error_code ec;
    const auto canon = std::filesystem::weakly_canonical(root, ec);
    if (!ec) root = canon.string();
  }

  if (files.empty()) {
    files = blap::lint::tree_files(root);
    if (!compile_commands.empty()) {
      for (std::string& f : blap::taint::compile_commands_files(compile_commands)) {
        std::error_code ec;
        const auto canon = std::filesystem::weakly_canonical(f, ec);
        if (!ec) f = canon.string();
        // TUs outside the tree walk (generated files, out-of-tree paths),
        // which no context scope matches.
        if (std::none_of(files.begin(), files.end(),
                         [&f](const blap::lint::TreeFile& t) { return t.path == f; }))
          files.push_back({f, f});
      }
    }
    if (files.empty()) {
      std::fprintf(stderr, "blap-taint: no sources under %s\n", root.c_str());
      return 2;
    }
  }

  const blap::taint::Report report = blap::taint::analyze_files(files);

  for (const auto& finding : report.findings)
    std::printf("%s\n", blap::taint::to_string(finding).c_str());

  if (!json_out.empty() && !write_file(json_out, blap::taint::report_json(report))) {
    std::fprintf(stderr, "blap-taint: cannot write %s\n", json_out.c_str());
    return 2;
  }
  if (!sites_out.empty()) {
    std::string lines;
    for (const std::string& l : blap::taint::site_lines(report, root)) {
      lines += l;
      lines += '\n';
    }
    if (!write_file(sites_out, lines)) {
      std::fprintf(stderr, "blap-taint: cannot write %s\n", sites_out.c_str());
      return 2;
    }
  }

  std::printf(
      "blap-taint: %zu finding(s), %zu declassified site(s), %d proven lifetime "
      "site(s) over %d function(s) in %d file(s)\n",
      report.findings.size(), report.declassified.size(), report.proven_lifetime_sites,
      report.functions_analyzed, report.files_analyzed);
  return report.findings.empty() ? 0 : 1;
}
