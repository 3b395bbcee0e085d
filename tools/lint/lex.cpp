// lex.cpp — shared tokenizer for blap-lint and blap-taint (see lex.hpp).
#include "lex.hpp"

#include <algorithm>
#include <cctype>

namespace blap::lint {
namespace {

/// Pull `<marker> <tag>[, <tag>...]` tags out of one comment's text.
void mine_marker(std::string_view comment, std::string_view marker, int line, Lexed& out) {
  std::size_t at = comment.find(marker);
  if (at == std::string_view::npos) return;
  std::size_t i = at + marker.size();
  while (i < comment.size()) {
    while (i < comment.size() && (comment[i] == ' ' || comment[i] == ',')) ++i;
    std::size_t start = i;
    while (i < comment.size() && (ident_char(comment[i]) || comment[i] == '-')) ++i;
    if (i == start) break;
    out.suppressions[line].insert(std::string(comment.substr(start, i - start)));
  }
  if (out.marker_comments.find(line) == out.marker_comments.end())
    out.marker_comments[line] = std::string(comment);
}

void mine_suppressions(std::string_view comment, int line, Lexed& out) {
  mine_marker(comment, "blap-lint:", line, out);
  mine_marker(comment, "blap-taint:", line, out);
}

}  // namespace

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

Lexed lex(std::string_view src) {
  Lexed out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  auto peek = [&](std::size_t k) { return i + k < n ? src[i + k] : '\0'; };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && peek(1) == '/') {  // line comment
      std::size_t end = src.find('\n', i);
      if (end == std::string_view::npos) end = n;
      mine_suppressions(src.substr(i, end - i), line, out);
      i = end;
      continue;
    }
    if (c == '/' && peek(1) == '*') {  // block comment
      const int start_line = line;
      std::size_t end = src.find("*/", i + 2);
      if (end == std::string_view::npos) end = n;
      mine_suppressions(src.substr(i, end - i), start_line, out);
      for (std::size_t k = i; k < end && k < n; ++k)
        if (src[k] == '\n') ++line;
      i = std::min(end + 2, n);
      continue;
    }
    if (c == '"') {  // string literal (raw strings handled below at 'R')
      ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\') ++i;
        if (i < n && src[i] == '\n') ++line;
        ++i;
      }
      ++i;
      continue;
    }
    if (c == '\'') {  // char literal (digit separators are consumed by the
      ++i;            // number scanner, so a bare ' here is a real literal)
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\') ++i;
        ++i;
      }
      ++i;
      continue;
    }
    if (c == 'R' && peek(1) == '"') {  // raw string literal
      std::size_t d = i + 2;
      while (d < n && src[d] != '(') ++d;
      std::string closer(1, ')');
      closer.append(src.substr(i + 2, d - i - 2)).push_back('"');
      std::size_t end = src.find(closer, d);
      if (end == std::string_view::npos) end = n;
      for (std::size_t k = i; k < end && k < n; ++k)
        if (src[k] == '\n') ++line;
      i = std::min(end + closer.size(), n);
      continue;
    }
    if (ident_start(c)) {
      std::size_t start = i;
      while (i < n && ident_char(src[i])) ++i;
      out.tokens.push_back({std::string(src.substr(start, i - start)), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Numbers swallow digit separators (1'000'000) and suffixes.
      std::size_t start = i;
      while (i < n && (ident_char(src[i]) || src[i] == '\'' || src[i] == '.')) ++i;
      out.tokens.push_back({std::string(src.substr(start, i - start)), line});
      continue;
    }
    // Punctuation: keep the few two-char operators the rules care about.
    static const char* kTwoChar[] = {"->", "::", "==", "!=", "<=", ">=", "&&", "||"};
    std::string two{c, peek(1)};
    bool matched = false;
    for (const char* op : kTwoChar) {
      if (two == op) {
        out.tokens.push_back({two, line});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    out.tokens.push_back({std::string(1, c), line});
    ++i;
  }
  for (const Token& tok : out.tokens) out.code_lines.insert(tok.line);
  return out;
}

bool has_tag(const Lexed& lx, int line, const char* tag) {
  auto it = lx.suppressions.find(line);
  return it != lx.suppressions.end() && it->second.count(tag) != 0;
}

bool suppressed(const Lexed& lx, int line, const char* tag) {
  return tag_line(lx, line, line, tag) != 0;
}

bool suppressed_range(const Lexed& lx, int from, int to, const char* tag) {
  return tag_line(lx, from, to, tag) != 0;
}

int tag_line(const Lexed& lx, int from, int to, const char* tag) {
  if (has_tag(lx, from, tag)) return from;
  for (int l = from - 1; l >= 1 && l >= from - 32; --l) {
    if (has_tag(lx, l, tag)) return l;
    if (lx.code_lines.count(l) != 0) break;  // hit code: stop bubbling
  }
  for (int l = from + 1; l <= to; ++l)
    if (has_tag(lx, l, tag)) return l;
  return 0;
}

std::size_t match_close(const std::vector<Token>& tokens, std::size_t open) {
  const std::string& o = tokens[open].text;
  const std::string c = o == "(" ? ")" : o == "[" ? "]" : o == "{" ? "}" : ">";
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].text == o) ++depth;
    else if (tokens[i].text == c && --depth == 0) return i;
  }
  return tokens.size();
}

}  // namespace blap::lint
