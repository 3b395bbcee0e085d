// taint.hpp — blap-taint: cross-TU secret-flow and callback-lifetime
// analysis for the BLAP tree.
//
// A token scan can catch `BLAP_INFO(..., link_key)` because the identifier
// *names* the secret. It cannot catch
//
//   auto staged = record.link_key;      // renamed...
//   BLAP_INFO("sec", "%s", hex(staged));  // ...and leaked
//
// blap-taint follows types and dataflow instead, with two interprocedural
// passes over the mini-IR (ir.hpp):
//
//   S2 (secret flow). Taint seeds at every value whose declared type names
//   key material (LinkKey, EncryptionKey — the E0 session key — PinCode)
//   and at every read of a field declared with one of those types
//   (`.link_key`, `.kinit`, `.enc_key`, ...). Taint propagates through
//   assignments and compound assignments, memcpy/std::copy, call arguments
//   (call-site-sensitive: `hex(key)` is tainted, `hex(addr)` is not) and
//   call returns (a function returns secret if its declared return type is
//   secret, or any `return` expression is tainted under the function's OWN
//   seeds — pushed caller taint deliberately does not leak into return
//   derivation, so shared transformers like hex() don't poison every call
//   site). Tainted values reaching a sink — log macros, obs trace/metric
//   emission, snapshot serialization (StateWriter calls, and the field
//   kinds of a snapshot field list whatever their receiver), JSON/CSV/bt-config
//   serializers, hand-built key-bearing HCI records in test/bench/analytics
//   helpers — are findings unless the statement carries a
//   `// blap-taint: declassified — <why>` marker; marked statements are the
//   intentional attack-observation points and are reported as sites so CI
//   can diff them against the pinned whitelist.
//
//   D6 (callback lifetime).
//   Every scheduler-callback lambda (schedule_in/schedule_at/
//   schedule_at_seq) is checked: capturing a raw device pointer (Device,
//   Controller, HostStack, RadioEndpoint, Simulation) is a finding unless
//   the statement carries `// blap-taint: lifetime-ok — <why>`; lambdas
//   that instead capture a generation-checked handle and re-validate it
//   (`registry_.resolve(h)` + nullptr check) before dereference are counted
//   as proven sites in the report.
#pragma once

#include <string>
#include <vector>

#include "ir.hpp"
#include "lint.hpp"

namespace blap::taint {

enum class Rule {
  kS2SecretFlow,  // tainted key material reaches an observation sink
  kD6Lifetime,    // raw device pointer captured by a scheduler callback
};

[[nodiscard]] const char* rule_id(Rule rule);

struct Finding {
  Rule rule = Rule::kS2SecretFlow;
  std::string file;
  int line = 0;
  std::string message;
};

/// A declassified sink: an intentional attack-observation point whose
/// statement carries a `blap-taint: declassified` marker. `why` is the
/// marker comment's justification text.
struct Site {
  std::string file;
  std::string function;
  std::string kind;  // log | obs | snapshot | serializer | record-builder
  int line = 0;
  std::string why;
};

struct Report {
  std::vector<Finding> findings;
  std::vector<Site> declassified;
  int proven_lifetime_sites = 0;  // handle-validated scheduler lambdas (D6)
  int files_analyzed = 0;
  int functions_analyzed = 0;
};

struct NamedSource {
  std::string path;      // what findings and sites name
  std::string content;
  std::string relative;  // root-relative: what context scopes match
};

/// Analyze a set of in-memory sources as one program (cross-TU: the call
/// graph and the secret-field set span all of them).
[[nodiscard]] Report analyze_sources(const std::vector<NamedSource>& sources);

/// Read `files` from disk and analyze them as one program. Unreadable
/// files are skipped.
[[nodiscard]] Report analyze_files(const std::vector<lint::TreeFile>& files);

/// Translation units listed in a compile_commands.json ("file" entries).
[[nodiscard]] std::vector<std::string> compile_commands_files(const std::string& json_path);

[[nodiscard]] std::string to_string(const Finding& finding);

/// Machine-readable report (findings, declassified sites, counters).
[[nodiscard]] std::string report_json(const Report& report);

/// Stable whitelist lines "file:function:kind", deduplicated and sorted,
/// with `strip_prefix` removed from the front of each path — this is the
/// format pinned in tests/taint_expected_sites.txt.
[[nodiscard]] std::vector<std::string> site_lines(const Report& report,
                                                  const std::string& strip_prefix = "");

}  // namespace blap::taint
