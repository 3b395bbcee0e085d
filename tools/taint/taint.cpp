// taint.cpp — the two interprocedural passes behind blap-taint (see
// taint.hpp for the contract).
#include "taint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace blap::taint {
namespace {

using lint::has_tag;
using lint::ident_start;
using lint::match_close;
using lint::suppressed_range;
using lint::tag_line;

constexpr const char* kDeclassifiedTag = "declassified";
constexpr const char* kLifetimeTag = "lifetime-ok";

// Types whose values ARE key material. Token match only: LinkKeyType (an
// enum) never matches LinkKey.
const std::set<std::string>& secret_types() {
  static const std::set<std::string> s = {"LinkKey", "EncryptionKey", "PinCode"};
  return s;
}

const std::set<std::string>& log_macros() {
  static const std::set<std::string> s = {"BLAP_LOG",  "BLAP_TRACE", "BLAP_DEBUG",
                                          "BLAP_INFO", "BLAP_WARN",  "BLAP_ERROR"};
  return s;
}

// Trace/metric emission methods (src/obs). `add` is too generic a name on
// its own and additionally requires a metrics-ish receiver.
const std::set<std::string>& obs_methods() {
  static const std::set<std::string> s = {"instant", "begin_span", "end_span",
                                          "observe", "gauge_max", "add"};
  return s;
}

// state::StateWriter's write surface (src/common/state_io.hpp).
const std::set<std::string>& writer_methods() {
  static const std::set<std::string> s = {"u8",  "u16", "u32",   "u64", "boolean",
                                          "f64", "bytes", "str", "fixed"};
  return s;
}

// The value-carrying field kinds of a snapshot field list. A list runs on
// either side through a template parameter, so these are sinks whatever
// the receiver's declared type.
const std::set<std::string>& field_kinds() {
  static const std::set<std::string> s = {"field", "opt", "seq", "map"};
  return s;
}

const std::set<std::string>& device_types() {
  static const std::set<std::string> s = {"Device", "Controller", "HostStack",
                                          "RadioEndpoint", "Simulation"};
  return s;
}

const std::set<std::string>& scheduler_calls() {
  static const std::set<std::string> s = {"schedule_in", "schedule_at", "schedule_at_seq"};
  return s;
}

// HCI event codes whose payload carries plaintext link keys: a record hand-
// built around one of these *is* key material by construction, typed or not
// (the corpus generator derives its key bytes from splitmix64, so type-based
// taint alone would miss it).
const std::set<std::string>& key_event_consts() {
  static const std::set<std::string> s = {"kReturnLinkKeys", "kLinkKeyNotification"};
  return s;
}

/// Context scopes match prefixes of the root-relative path, so where the
/// tree is checked out never matters.
bool under(const SourceFile& file, std::string_view dir) { return file.relative.starts_with(dir); }

bool is_ident(const Token& tok) {
  return !tok.text.empty() && ident_start(tok.text[0]);
}

struct FnState {
  const SourceFile* file = nullptr;
  const Function* fn = nullptr;
  std::set<std::string> taint;  // tainted local/param names (current env)
  bool returns_secret = false;
};

struct Program {
  std::vector<SourceFile> files;
  std::vector<FnState> fns;
  std::map<std::string, std::vector<std::size_t>> by_name;  // unqualified name
  std::set<std::string> secret_fields;  // names declared with a secret type
};

const Decl* decl_of(const Function& fn, const std::string& name) {
  for (auto it = fn.locals.rbegin(); it != fn.locals.rend(); ++it)
    if (it->name == name) return &*it;
  for (const Decl& p : fn.params)
    if (p.name == name) return &p;
  return nullptr;
}

/// Field names declared with a secret type at class/struct scope:
/// `LinkKey key{};`, `std::optional<crypto::LinkKey> extracted_key;`. Reads
/// of these names behind `.`/`->` seed taint in every function. Function
/// bodies are skipped (typed locals are seeded per-function with correct
/// scoping) and the name must be followed by a declarator terminator — a
/// parameter in a prototype (`xor16(const LinkKey& a, ...)`) must NOT make
/// every `.a` in the tree secret.
void collect_secret_fields(const SourceFile& file, std::set<std::string>& out) {
  const auto& tokens = file.lex.tokens;
  std::size_t next_fn = 0;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    while (next_fn < file.functions.size() && file.functions[next_fn].body_end < i)
      ++next_fn;
    if (next_fn < file.functions.size() && i > file.functions[next_fn].body_begin &&
        i < file.functions[next_fn].body_end)
      continue;
    if (secret_types().count(tokens[i].text) == 0) continue;
    std::size_t j = i + 1;
    while (j < tokens.size() &&
           (tokens[j].text == ">" || tokens[j].text == "*" || tokens[j].text == "&"))
      ++j;
    if (j + 1 >= tokens.size() || !is_ident(tokens[j])) continue;
    const std::string& term = tokens[j + 1].text;
    if (term == ";" || term == "=" || term == "{" || term == "[")
      out.insert(tokens[j].text);
  }
}

/// First atom in [first, last) carrying secret bytes under `env` (empty
/// string when the range is clean):
///   * a tainted local/param name,
///   * a `.field` / `->field` read of a secret-typed declaration,
///   * a call to a function that returns secret material.
std::string tainted_atom(const Program& prog, const FnState& env, std::size_t first,
                         std::size_t last) {
  const auto& t = env.file->lex.tokens;
  last = std::min(last, t.size());
  for (std::size_t i = first; i < last; ++i) {
    if (!is_ident(t[i])) continue;
    const std::string& name = t[i].text;
    if (env.taint.count(name) != 0) return name;
    const bool dotted = i > first && (t[i - 1].text == "." || t[i - 1].text == "->");
    if (dotted && prog.secret_fields.count(name) != 0) return "." + name;
    if (i + 1 < last && t[i + 1].text == "(") {
      auto it = prog.by_name.find(name);
      if (it != prog.by_name.end())
        for (std::size_t fi : it->second)
          if (prog.fns[fi].returns_secret) return name + "()";
    }
  }
  return {};
}

bool expr_tainted(const Program& prog, const FnState& env, std::size_t first,
                  std::size_t last) {
  return !tainted_atom(prog, env, first, last).empty();
}

/// First identifier in [first, last) that names data (skips namespace-ish
/// helpers) — the copy destination of memcpy/std::copy.
std::string dst_ident(const std::vector<Token>& t, std::size_t first, std::size_t last) {
  static const std::set<std::string> kSkip = {"std", "begin", "end", "data",
                                              "back_inserter", "addressof"};
  for (std::size_t i = first; i < last && i < t.size(); ++i)
    if (is_ident(t[i]) && kSkip.count(t[i].text) == 0) return t[i].text;
  return {};
}

/// One intra-function propagation sweep over `env.taint`; true if the set
/// grew. Statements are delimited by ';'/'{'/'}' — lambda bodies therefore
/// contribute their own statements, which is exactly the flow we want.
bool propagate_once(const Program& prog, FnState& env) {
  const auto& t = env.file->lex.tokens;
  bool changed = false;
  std::size_t stmt = env.fn->body_begin + 1;
  for (std::size_t i = env.fn->body_begin + 1; i < env.fn->body_end; ++i) {
    const std::string& s = t[i].text;
    if (s == ";" || s == "{" || s == "}") {
      // Statement [stmt, i): look for an assignment at nesting depth 0.
      int depth = 0;
      for (std::size_t k = stmt; k < i; ++k) {
        const std::string& w = t[k].text;
        if (w == "(" || w == "[") ++depth;
        else if (w == ")" || w == "]") --depth;
        else if (w == "=" && depth == 0 && k > stmt) {
          // A lambda literal is code, not key bytes — referencing a secret
          // in its body does not make the closure object secret.
          if (k + 1 < i && t[k + 1].text != "[" && expr_tainted(prog, env, k + 1, i)) {
            // LHS name: last identifier before the '=', skipping an index
            // expression (`buf[0] = ...` taints buf).
            std::size_t l = k;
            while (l > stmt && t[l - 1].text == "]") {
              int d = 1;
              --l;
              while (l > stmt && d != 0) {
                --l;
                if (t[l].text == "]") ++d;
                else if (t[l].text == "[") --d;
              }
            }
            // Skip compound-assignment operator halves (`+` of `+=`).
            while (l > stmt && !is_ident(t[l - 1]) && t[l - 1].text != ")") --l;
            // Member writes (`report.flag = ...`) carry *derived* state —
            // verdict booleans, counters — not the key bytes themselves;
            // secret-typed fields are already covered by secret_fields.
            const bool member_write =
                l >= stmt + 2 && (t[l - 2].text == "." || t[l - 2].text == "->");
            if (!member_write && l > stmt && is_ident(t[l - 1]) &&
                env.taint.insert(t[l - 1].text).second)
              changed = true;
          }
          break;
        }
      }
      stmt = i + 1;
      continue;
    }
    // Byte copies: memcpy(dst, src, n) / std::copy(first, last, dst).
    if (i + 1 < env.fn->body_end && t[i + 1].text == "(" &&
        (s == "memcpy" || s == "copy" || s == "copy_n")) {
      const auto args = split_args(t, i + 1);
      if (s == "memcpy" && args.size() >= 2 &&
          expr_tainted(prog, env, args[1].first, args[1].second)) {
        const std::string dst = dst_ident(t, args[0].first, args[0].second);
        if (!dst.empty() && env.taint.insert(dst).second) changed = true;
      }
      if (s != "memcpy" && args.size() >= 3 &&
          expr_tainted(prog, env, args[0].first, args[0].second)) {
        const std::string dst = dst_ident(t, args[2].first, args[2].second);
        if (!dst.empty() && env.taint.insert(dst).second) changed = true;
      }
    }
  }
  return changed;
}

void propagate(const Program& prog, FnState& env) {
  for (int pass = 0; pass < 8 && propagate_once(prog, env); ++pass) {
  }
}

std::set<std::string> local_seed(const Function& fn) {
  std::set<std::string> seed;
  auto is_secret_decl = [](const Decl& d) {
    for (const std::string& s : secret_types())
      if (d.type_has(s)) return true;
    return false;
  };
  for (const Decl& p : fn.params)
    if (is_secret_decl(p)) seed.insert(p.name);
  for (const Decl& l : fn.locals)
    if (is_secret_decl(l)) seed.insert(l.name);
  return seed;
}

bool any_return_tainted(const Program& prog, const FnState& env) {
  const auto& t = env.file->lex.tokens;
  for (std::size_t i = env.fn->body_begin + 1; i < env.fn->body_end; ++i) {
    if (t[i].text != "return") continue;
    std::size_t end = i + 1;
    while (end < env.fn->body_end && t[end].text != ";") ++end;
    if (expr_tainted(prog, env, i + 1, end)) return true;
  }
  return false;
}

/// Walk back through a chained-call receiver (`w.u8(a).u8(b)`) to the base
/// identifier; `dot` indexes the '.'/'->' before the method name.
std::string receiver_base(const std::vector<Token>& t, std::size_t dot) {
  std::size_t k = dot;
  while (k > 0) {
    --k;  // token before the dot (or before a method name we just consumed)
    if (t[k].text == ")") {  // chained call: skip to its '(' ...
      int depth = 1;
      while (k > 0 && depth != 0) {
        --k;
        if (t[k].text == ")") ++depth;
        else if (t[k].text == "(") --depth;
      }
      if (k == 0) return {};
      --k;  // ... and the method name before it
      if (k == 0 || !is_ident(t[k])) return {};
      if (t[k - 1].text != "." && t[k - 1].text != "->") return t[k].text;
      --k;  // the next '.': loop continues walking left
      continue;
    }
    if (is_ident(t[k])) {
      if (k > 0 && (t[k - 1].text == "." || t[k - 1].text == "->")) {
        --k;
        continue;
      }
      return t[k].text;
    }
    return {};
  }
  return {};
}

struct SinkScan {
  Report* report = nullptr;
  std::set<std::string> seen_sites;  // file:function:kind dedupe
};

/// Record one sink hit: a declassification marker over the statement turns
/// it into a whitelist Site; otherwise it is an S2 finding.
void emit_sink(SinkScan& scan, const FnState& env, const char* kind, int line,
               int stmt_from, int stmt_to, std::string message) {
  const Lexed& lx = env.file->lex;
  const int marker = tag_line(lx, stmt_from, stmt_to, kDeclassifiedTag);
  if (marker != 0) {
    Site site;
    site.file = env.file->path;
    site.function = env.fn->qualified;
    site.kind = kind;
    site.line = line;
    auto it = lx.marker_comments.find(marker);
    if (it != lx.marker_comments.end()) {
      std::string why = it->second;
      const std::size_t at = why.find("blap-taint:");
      if (at != std::string::npos) why = why.substr(at + 11);
      while (!why.empty() && (why.front() == ' ' || why.front() == '/')) why.erase(0, 1);
      site.why = why;
    }
    const std::string key = site.file + ":" + site.function + ":" + site.kind;
    if (scan.seen_sites.insert(key).second)
      scan.report->declassified.push_back(std::move(site));
    return;
  }
  scan.report->findings.push_back(
      Finding{Rule::kS2SecretFlow, env.file->path, line, std::move(message)});
}

/// The statement line span around token `at`: back to the previous
/// ';'/'{'/'}' and forward to the next one (for marker bubbling, trailing
/// markers included).
std::pair<int, int> stmt_span(const std::vector<Token>& t, std::size_t at) {
  auto is_delim = [](const std::string& s) { return s == ";" || s == "{" || s == "}"; };
  std::size_t first = at;
  while (first > 0 && !is_delim(t[first - 1].text)) --first;
  std::size_t last = at;
  while (last + 1 < t.size() && !is_delim(t[last].text)) ++last;
  return {t[first].line, t[last].line};
}

bool serializer_context(const FnState& env) {
  const std::string& name = env.fn->name;
  if (name.rfind("to_", 0) == 0) return true;
  if (name.find("json") != std::string::npos || name.find("csv") != std::string::npos ||
      name.find("write") != std::string::npos)
    return true;
  return under(*env.file, "src/campaign/") || under(*env.file, "src/analytics/");
}

bool record_builder_context(const SourceFile& file) {
  return under(file, "tests/") || under(file, "bench/") || under(file, "src/analytics/") ||
         under(file, "src/campaign/");
}

void scan_sinks(const Program& prog, const FnState& env, SinkScan& scan) {
  const auto& t = env.file->lex.tokens;
  std::set<std::pair<int, const char*>> flagged;  // one finding per line+kind
  auto emit = [&](const char* kind, std::size_t at, std::size_t call_close,
                  std::string message) {
    auto [from, to] = stmt_span(t, at);
    if (call_close < t.size()) to = std::max(to, t[call_close].line);
    if (!flagged.insert({t[at].line, kind}).second) return;
    emit_sink(scan, env, kind, t[at].line, from, to, std::move(message));
  };

  for (std::size_t i = env.fn->body_begin + 1; i < env.fn->body_end; ++i) {
    // Stream/append serializer sinks don't look like calls; handle the
    // call-shaped sinks first.
    if (is_ident(t[i]) && i + 1 < env.fn->body_end && t[i + 1].text == "(") {
      const std::string& name = t[i].text;
      const std::size_t close = match_close(t, i + 1);

      if (log_macros().count(name) != 0) {
        const std::string atom = tainted_atom(prog, env, i + 2, close);
        if (!atom.empty())
          emit("log", i, close,
               "secret-tainted value '" + atom + "' reaches " + name +
                   "; log key *events*, never key bytes (S2 dataflow)");
        continue;
      }

      const bool dotted = i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
      // The sink boundary is the call INTO the obs layer; the wrappers in
      // src/obs/ would otherwise re-report every caller's pushed taint.
      if (dotted && obs_methods().count(name) != 0 && !under(*env.file, "src/obs/")) {
        const std::string base = receiver_base(t, i - 1);
        std::string lower = base;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
        const bool obs_receiver = lower.find("obs") != std::string::npos ||
                                  lower.find("trace") != std::string::npos ||
                                  lower.find("metric") != std::string::npos;
        const std::string atom = (name != "add" || obs_receiver)
                                     ? tainted_atom(prog, env, i + 2, close)
                                     : std::string();
        if (!atom.empty())
          emit("obs", i, close,
               "secret-tainted value '" + atom + "' reaches obs emission '" + name +
                   "'; traces/metrics must carry key events, not key bytes");
        continue;
      }

      const bool field_kind = dotted && field_kinds().count(name) != 0;
      if (field_kind || (dotted && writer_methods().count(name) != 0)) {
        const std::string base = receiver_base(t, i - 1);
        const Decl* d = base.empty() ? nullptr : decl_of(*env.fn, base);
        const std::string atom = (field_kind || (d != nullptr && d->type_has("StateWriter")))
                                     ? tainted_atom(prog, env, i + 2, close)
                                     : std::string();
        if (!atom.empty())
          emit("snapshot", i, close,
               "secret-tainted value '" + atom + "' serialized via " + name +
                   "() outside the declassified key section");
        continue;
      }

      if (name == "make_event" && record_builder_context(*env.file)) {
        bool key_bearing = false;
        for (std::size_t k = i + 2; k < close; ++k)
          if (key_event_consts().count(t[k].text) != 0) key_bearing = true;
        if (key_bearing)
          emit("record-builder", i, close,
               "hand-built key-bearing HCI record (Return_Link_Keys / "
               "Link_Key_Notification payloads are plaintext key material)");
        continue;
      }
    }

    if (!serializer_context(env)) continue;
    // `out << tainted`, `s += tainted`, `s.append(tainted)` in a serializer.
    const bool stream = t[i].text == "<" && i + 1 < env.fn->body_end &&
                        t[i + 1].text == "<" && t[i + 1].line == t[i].line;
    const bool plus_eq = t[i].text == "+" && i + 1 < env.fn->body_end &&
                         t[i + 1].text == "=";
    const bool append = t[i].text == "append" && i > 0 &&
                        (t[i - 1].text == "." || t[i - 1].text == "->") &&
                        i + 1 < env.fn->body_end && t[i + 1].text == "(";
    if (!stream && !plus_eq && !append) continue;
    std::size_t end = i + 2;
    if (append) {
      end = match_close(t, i + 1);
    } else {
      while (end < env.fn->body_end && t[end].text != ";" && t[end].text != "{") ++end;
    }
    const std::string atom = tainted_atom(prog, env, i + 2, end);
    if (!atom.empty())
      emit("serializer", i, t.size(),
           "secret-tainted value '" + atom + "' flows into serializer output "
           "(JSON/CSV/bt-config writers emit attacker-visible artifacts)");
  }
}

void scan_lifetimes(const FnState& env, Report& report) {
  const auto& t = env.file->lex.tokens;
  const Lexed& lx = env.file->lex;
  for (std::size_t i = env.fn->body_begin + 1; i < env.fn->body_end; ++i) {
    if (scheduler_calls().count(t[i].text) == 0) continue;
    if (i + 1 >= env.fn->body_end || t[i + 1].text != "(") continue;
    const std::size_t close = match_close(t, i + 1);
    const int stmt_from = t[i].line;
    const int stmt_to = close < t.size() ? t[close].line : t[i].line;
    // Lambdas passed directly as arguments: '[' right after '(' or ','.
    for (std::size_t j = i + 2; j < close; ++j) {
      if (t[j].text != "[" || (t[j - 1].text != "(" && t[j - 1].text != ",")) continue;
      const std::size_t cap_close = match_close(t, j);
      if (cap_close >= close) break;
      // Lambda body range (for the revalidation proof).
      std::size_t body_open = cap_close + 1;
      while (body_open < close && t[body_open].text != "{") ++body_open;
      const std::size_t body_close =
          body_open < close ? match_close(t, body_open) : close;
      bool revalidates = false, null_checked = false;
      for (std::size_t k = body_open; k < body_close; ++k) {
        if (t[k].text == "resolve") revalidates = true;
        if (t[k].text == "nullptr" || t[k].text == "!") null_checked = true;
      }

      bool handle_captured = false;
      for (std::size_t k = j + 1; k < cap_close; ++k) {
        if (!is_ident(t[k]) || t[k].text == "this") continue;
        const Decl* d = decl_of(*env.fn, t[k].text);
        if (d == nullptr) continue;
        if (d->type_has("EndpointHandle") ||
            (!d->type.empty() && d->type.back().size() > 6 &&
             d->type.back().find("Handle") != std::string::npos))
          handle_captured = true;
        bool device_ptr = false;
        for (const std::string& dev : device_types())
          if (d->is_pointer_to(dev)) device_ptr = true;
        if (!device_ptr) continue;
        if (suppressed_range(lx, stmt_from, stmt_to, kLifetimeTag)) continue;
        report.findings.push_back(Finding{
            Rule::kD6Lifetime, env.file->path, t[k].line,
            "scheduler callback captures raw device pointer '" + t[k].text +
                "'; capture the EndpointHandle and re-validate via resolve() "
                "+ nullptr check at fire time (D6)"});
      }
      if (handle_captured && revalidates && null_checked) ++report.proven_lifetime_sites;
      j = cap_close;
    }
    i = close < t.size() ? close : i;
  }
}

Program build_program(const std::vector<NamedSource>& sources) {
  Program prog;
  prog.files.reserve(sources.size());
  for (const NamedSource& src : sources) {
    std::string norm = src.path;
    std::replace(norm.begin(), norm.end(), '\\', '/');
    prog.files.push_back(build_ir(std::move(norm), src.content));
    prog.files.back().relative = src.relative;
  }
  for (const SourceFile& f : prog.files) collect_secret_fields(f, prog.secret_fields);
  for (const SourceFile& f : prog.files) {
    for (const Function& fn : f.functions) {
      FnState st;
      st.file = &f;
      st.fn = &fn;
      prog.fns.push_back(st);
    }
  }
  for (std::size_t i = 0; i < prog.fns.size(); ++i)
    prog.by_name[prog.fns[i].fn->name].push_back(i);
  return prog;
}

/// Push caller taint into callee parameters at every call site of `env`.
/// Context-insensitive by design: the union over call sites decides what a
/// callee's *body* may hold — but never what it returns (see header).
bool push_call_args(const Program& prog, const FnState& env,
                    std::vector<FnState>& fns) {
  const auto& t = env.file->lex.tokens;
  bool changed = false;
  for (std::size_t i = env.fn->body_begin + 1; i < env.fn->body_end; ++i) {
    if (!is_ident(t[i]) || i + 1 >= env.fn->body_end || t[i + 1].text != "(") continue;
    auto it = prog.by_name.find(t[i].text);
    if (it == prog.by_name.end()) continue;
    // A field-kind call is a snapshot sink boundary (scan_sinks): pushing
    // through its implementation would hand every caller's taint to each
    // component's field list.
    const bool dotted = t[i - 1].text == "." || t[i - 1].text == "->";
    if (dotted && field_kinds().count(t[i].text) != 0) continue;
    const auto args = split_args(t, i + 1);
    for (std::size_t a = 0; a < args.size(); ++a) {
      // Lambda-valued arguments carry code: a secret referenced in the body
      // must not taint the callback parameter itself.
      if (args[a].first < args[a].second && t[args[a].first].text == "[") continue;
      if (!expr_tainted(prog, env, args[a].first, args[a].second)) continue;
      for (std::size_t fi : it->second) {
        FnState& callee = fns[fi];
        if (a < callee.fn->params.size() &&
            callee.taint.insert(callee.fn->params[a].name).second)
          changed = true;
      }
    }
  }
  return changed;
}

}  // namespace

const char* rule_id(Rule rule) {
  switch (rule) {
    case Rule::kS2SecretFlow: return "S2";
    case Rule::kD6Lifetime: return "D6";
  }
  return "?";
}

Report analyze_sources(const std::vector<NamedSource>& sources) {
  Program prog = build_program(sources);
  Report report;
  report.files_analyzed = static_cast<int>(prog.files.size());
  report.functions_analyzed = static_cast<int>(prog.fns.size());

  // Phase A — returns-secret fixpoint under each function's OWN seeds.
  for (FnState& f : prog.fns) {
    for (const std::string& s : secret_types())
      if (std::find(f.fn->return_type.begin(), f.fn->return_type.end(), s) !=
          f.fn->return_type.end())
        f.returns_secret = true;
  }
  for (int round = 0; round < 10; ++round) {
    bool changed = false;
    for (FnState& f : prog.fns) {
      f.taint = local_seed(*f.fn);
      propagate(prog, f);
      if (!f.returns_secret && any_return_tainted(prog, f)) {
        f.returns_secret = true;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Phase B — push tainted call arguments into callee bodies (sink
  // detection inside shared helpers), then re-propagate, to fixpoint.
  for (int round = 0; round < 10; ++round) {
    bool changed = false;
    for (FnState& f : prog.fns) propagate(prog, f);
    for (const FnState& f : prog.fns)
      if (push_call_args(prog, f, prog.fns)) changed = true;
    if (!changed) break;
  }

  if (const char* dbg = std::getenv("BLAP_TAINT_DEBUG"); dbg != nullptr) {
    for (const FnState& f : prog.fns) {
      if (f.returns_secret)
        std::fprintf(stderr, "returns-secret: %s (%s:%d)\n", f.fn->qualified.c_str(),
                     f.file->path.c_str(), f.fn->line);
      if (dbg[0] != '\0' && f.file->path.find(dbg) != std::string::npos && !f.taint.empty()) {
        std::fprintf(stderr, "env %s:%d %s:", f.file->path.c_str(), f.fn->line,
                     f.fn->qualified.c_str());
        for (const std::string& n : f.taint) std::fprintf(stderr, " %s", n.c_str());
        std::fprintf(stderr, "\n");
      }
    }
  }

  // Sinks (S2) and callback lifetimes (D6).
  SinkScan scan;
  scan.report = &report;
  for (const FnState& f : prog.fns) {
    scan_sinks(prog, f, scan);
    scan_lifetimes(f, report);
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return static_cast<int>(a.rule) < static_cast<int>(b.rule);
            });
  std::sort(report.declassified.begin(), report.declassified.end(),
            [](const Site& a, const Site& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.function != b.function) return a.function < b.function;
              return a.kind < b.kind;
            });
  return report;
}

Report analyze_files(const std::vector<lint::TreeFile>& files) {
  std::vector<NamedSource> sources;
  sources.reserve(files.size());
  for (const lint::TreeFile& f : files) {
    std::ifstream in(f.path, std::ios::binary);
    if (!in) continue;
    std::ostringstream buf;
    buf << in.rdbuf();
    sources.push_back(NamedSource{f.path, buf.str(), f.relative});
  }
  return analyze_sources(sources);
}

std::vector<std::string> compile_commands_files(const std::string& json_path) {
  std::vector<std::string> out;
  std::ifstream in(json_path, std::ios::binary);
  if (!in) return out;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // Deliberately crude: compile_commands.json is machine-written, and the
  // only shape we need is `"file": "<path>"`.
  std::size_t at = 0;
  while ((at = text.find("\"file\"", at)) != std::string::npos) {
    at += 6;
    const std::size_t open = text.find('"', text.find(':', at));
    if (open == std::string::npos) break;
    const std::size_t close = text.find('"', open + 1);
    if (close == std::string::npos) break;
    out.push_back(text.substr(open + 1, close - open - 1));
    at = close + 1;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string to_string(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": [" << rule_id(finding.rule) << "] "
      << finding.message;
  return out.str();
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
  return out;
}
}  // namespace

std::string report_json(const Report& report) {
  std::ostringstream out;
  out << "{\n  \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"rule\": \"" << rule_id(f.rule)
        << "\", \"file\": \"" << json_escape(f.file) << "\", \"line\": " << f.line
        << ", \"message\": \"" << json_escape(f.message) << "\"}";
  }
  out << (report.findings.empty() ? "" : "\n  ") << "],\n  \"declassified_sites\": [";
  for (std::size_t i = 0; i < report.declassified.size(); ++i) {
    const Site& s = report.declassified[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"file\": \"" << json_escape(s.file)
        << "\", \"function\": \"" << json_escape(s.function) << "\", \"kind\": \""
        << s.kind << "\", \"line\": " << s.line << ", \"why\": \"" << json_escape(s.why)
        << "\"}";
  }
  out << (report.declassified.empty() ? "" : "\n  ") << "],\n";
  out << "  \"proven_lifetime_sites\": " << report.proven_lifetime_sites << ",\n";
  out << "  \"files_analyzed\": " << report.files_analyzed << ",\n";
  out << "  \"functions_analyzed\": " << report.functions_analyzed << "\n}\n";
  return out.str();
}

std::vector<std::string> site_lines(const Report& report, const std::string& strip_prefix) {
  std::set<std::string> lines;
  for (const Site& s : report.declassified) {
    std::string file = s.file;
    if (!strip_prefix.empty() && file.rfind(strip_prefix, 0) == 0) {
      file = file.substr(strip_prefix.size());
      while (!file.empty() && file.front() == '/') file.erase(0, 1);
    }
    lines.insert(file + ":" + s.function + ":" + s.kind);
  }
  return {lines.begin(), lines.end()};
}

}  // namespace blap::taint
