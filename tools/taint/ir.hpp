// ir.hpp — per-function mini-IR for blap-taint.
//
// blap-taint needs more structure than blap-lint's flat token scans: taint
// propagates through assignments, call arguments and returns, so the
// analyzer must know where functions begin and end, what their parameters
// are called, and what type each local was declared with. This header
// turns the shared tokenizer's output (tools/lint/lex.hpp) into exactly
// that — no more. It is deliberately not an AST: statements stay token
// ranges, and the passes in taint.cpp walk them with small pattern helpers.
//
// What the builder recognizes:
//   * function definitions — free functions, `Class::method` out-of-line
//     definitions, and inline methods — with parameter names/types, the
//     return-type token run, and the body token range;
//   * typed declarations inside bodies (`crypto::LinkKey k = ...`,
//     `StateWriter& w`, `RadioEndpoint* ep = ...`), including through
//     `[[attr]]` attribute runs and cv-qualifiers;
//   * nothing else. Expressions, lambdas and calls are consumed in place
//     by the passes, which re-walk the token range of each statement.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lex.hpp"

namespace blap::taint {

using lint::Lexed;
using lint::Token;

/// A named declaration with the token run that preceded the name ("type").
struct Decl {
  std::string name;
  std::vector<std::string> type;  // e.g. {"crypto","::","LinkKey","&"}
  int line = 0;

  /// True if any type token equals `t` (token match, so "LinkKeyType"
  /// never matches "LinkKey").
  [[nodiscard]] bool type_has(std::string_view t) const;
  /// True if the type run contains both `t` and a '*' (raw pointer to t).
  [[nodiscard]] bool is_pointer_to(std::string_view t) const;
};

struct Function {
  std::string name;       // unqualified ("persist")
  std::string qualified;  // "Controller::persist" when defined out of line
  std::string file;       // normalized path
  int line = 0;
  std::vector<std::string> return_type;  // tokens before the (qualified) name
  std::vector<Decl> params;
  std::vector<Decl> locals;   // typed decls anywhere in the body
  std::size_t body_begin = 0;  // token index of the opening '{'
  std::size_t body_end = 0;    // token index of the matching '}'
};

/// One parsed file: its lexed tokens plus every function found in them.
struct SourceFile {
  std::string path;
  std::string relative;  // root-relative: what context scopes match
  Lexed lex;
  std::vector<Function> functions;
};

/// Lex `content` and extract the function-level IR.
[[nodiscard]] SourceFile build_ir(std::string path, std::string_view content);

/// Split the argument list of the call whose '(' is at `open` into
/// top-level comma-separated token ranges [first, last) — empty when the
/// call has no arguments or the parens are unbalanced.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& tokens, std::size_t open);

}  // namespace blap::taint
