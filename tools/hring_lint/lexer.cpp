#include "lexer.hpp"

#include <array>
#include <cctype>
#include <fstream>
#include <sstream>

namespace hring::lint {
namespace {

[[nodiscard]] bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool ident_cont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Multi-character operators, longest first, so "->*" wins over "->".
constexpr std::array<std::string_view, 22> kMultiOps = {
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=",  "==",  "!=",  "&&", "||", "+=", "-=", "*=", "/=", "%=", ".*"};
constexpr std::array<std::string_view, 3> kMultiOps2 = {"&=", "|=", "^="};

class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  [[nodiscard]] bool done() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::uint32_t line() const { return line_; }
  [[nodiscard]] std::uint32_t col() const {
    return static_cast<std::uint32_t>(pos_ - line_start_ + 1);
  }
  [[nodiscard]] std::string_view slice(std::size_t from) const {
    return text_.substr(from, pos_ - from);
  }

  void advance() {
    if (done()) return;
    if (text_[pos_] == '\n') {
      ++line_;
      line_start_ = pos_ + 1;
    }
    ++pos_;
  }
  void advance_by(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) advance();
  }

  [[nodiscard]] bool starts_with(std::string_view s) const {
    return text_.compare(pos_, s.size(), s) == 0;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::size_t line_start_ = 0;
};

/// Consumes a quoted literal starting at the opening quote.
void skip_quoted(Cursor& c, char quote) {
  c.advance();  // opening quote
  while (!c.done()) {
    const char ch = c.peek();
    if (ch == '\\') {
      c.advance_by(2);
      continue;
    }
    c.advance();
    if (ch == quote) return;
  }
}

/// Consumes a raw string literal starting at the 'R' of R"delim(...)delim".
void skip_raw_string(Cursor& c) {
  c.advance();  // R
  c.advance();  // "
  std::string delim;
  while (!c.done() && c.peek() != '(') {
    delim.push_back(c.peek());
    c.advance();
  }
  c.advance();  // (
  const std::string close = ")" + delim + "\"";
  while (!c.done()) {
    if (c.starts_with(close)) {
      c.advance_by(close.size());
      return;
    }
    c.advance();
  }
}

}  // namespace

void lex(SourceFile& file) {
  file.tokens.clear();
  file.comments.clear();
  Cursor c(file.content);
  bool line_has_token = false;  // anything but whitespace seen on this line

  while (!c.done()) {
    const char ch = c.peek();
    if (ch == '\n') {
      line_has_token = false;
      c.advance();
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(ch)) != 0) {
      c.advance();
      continue;
    }
    // Preprocessor directive: '#' as the first non-whitespace of a line;
    // consume the logical line including backslash continuations.
    if (ch == '#' && !line_has_token) {
      while (!c.done()) {
        if (c.peek() == '\\' && c.peek(1) == '\n') {
          c.advance_by(2);
          continue;
        }
        if (c.peek() == '\n') break;
        c.advance();
      }
      continue;
    }
    line_has_token = true;
    // Comments.
    if (ch == '/' && c.peek(1) == '/') {
      const std::size_t start = c.pos();
      const std::uint32_t line = c.line();
      while (!c.done() && c.peek() != '\n') c.advance();
      file.comments.push_back({c.slice(start), line});
      continue;
    }
    if (ch == '/' && c.peek(1) == '*') {
      const std::size_t start = c.pos();
      const std::uint32_t line = c.line();
      c.advance_by(2);
      while (!c.done() && !(c.peek() == '*' && c.peek(1) == '/')) c.advance();
      c.advance_by(2);
      file.comments.push_back({c.slice(start), line});
      continue;
    }
    // Literals.
    if (ch == 'R' && c.peek(1) == '"') {
      const std::size_t start = c.pos();
      const std::uint32_t line = c.line();
      const std::uint32_t col = c.col();
      skip_raw_string(c);
      file.tokens.push_back({TokKind::kString, c.slice(start), line, col});
      continue;
    }
    if (ch == '"' || ch == '\'') {
      const std::size_t start = c.pos();
      const std::uint32_t line = c.line();
      const std::uint32_t col = c.col();
      skip_quoted(c, ch);
      file.tokens.push_back(
          {ch == '"' ? TokKind::kString : TokKind::kChar, c.slice(start),
           line, col});
      continue;
    }
    // Identifiers and keywords (keywords are just identifiers here).
    if (ident_start(ch)) {
      const std::size_t start = c.pos();
      const std::uint32_t line = c.line();
      const std::uint32_t col = c.col();
      while (!c.done() && ident_cont(c.peek())) c.advance();
      file.tokens.push_back({TokKind::kIdent, c.slice(start), line, col});
      continue;
    }
    // Numbers (pp-number: digits, x/X, ', ., exponent signs).
    if (std::isdigit(static_cast<unsigned char>(ch)) != 0 ||
        (ch == '.' && std::isdigit(static_cast<unsigned char>(c.peek(1))) !=
                          0)) {
      const std::size_t start = c.pos();
      const std::uint32_t line = c.line();
      const std::uint32_t col = c.col();
      while (!c.done()) {
        const char d = c.peek();
        if (ident_cont(d) || d == '\'' || d == '.') {
          c.advance();
          continue;
        }
        if ((d == '+' || d == '-') && !c.done()) {
          const char prev = file.content[c.pos() - 1];
          if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
            c.advance();
            continue;
          }
        }
        break;
      }
      file.tokens.push_back({TokKind::kNumber, c.slice(start), line, col});
      continue;
    }
    // Punctuation: longest-match against the operator tables.
    {
      const std::size_t start = c.pos();
      const std::uint32_t line = c.line();
      const std::uint32_t col = c.col();
      std::size_t len = 1;
      for (const std::string_view op : kMultiOps) {
        if (c.starts_with(op)) {
          len = op.size();
          break;
        }
      }
      if (len == 1) {
        for (const std::string_view op : kMultiOps2) {
          if (c.starts_with(op)) {
            len = op.size();
            break;
          }
        }
      }
      c.advance_by(len);
      file.tokens.push_back({TokKind::kPunct, c.slice(start), line, col});
    }
  }
  file.tokens.push_back({TokKind::kEof, {}, c.line(), 1});
}

bool lex_file(const std::string& path, SourceFile& file) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  file.path = path;
  file.content = buf.str();
  lex(file);
  return true;
}

std::size_t skip_balanced(const std::vector<Token>& t, std::size_t i,
                          std::string_view open, std::string_view close,
                          std::size_t end) {
  std::size_t depth = 0;
  for (; i < end && i < t.size() && t[i].kind != TokKind::kEof; ++i) {
    if (t[i].is(open)) {
      ++depth;
    } else if (t[i].is(close)) {
      if (--depth == 0) return i + 1;
    }
  }
  return i;
}

std::size_t skip_angles(const std::vector<Token>& t, std::size_t i) {
  std::size_t depth = 0;
  for (; i < t.size() && t[i].kind != TokKind::kEof; ++i) {
    if (t[i].is("<")) {
      ++depth;
    } else if (t[i].is(">")) {
      if (--depth == 0) return i + 1;
    } else if (t[i].is(">>")) {
      if (depth <= 2) return i + 1;
      depth -= 2;
    } else if (t[i].is("(")) {
      i = skip_balanced(t, i, "(", ")") - 1;
    } else if (t[i].is(";") || t[i].is("{")) {
      return i;
    }
  }
  return i;
}

std::size_t skip_to_semicolon(const std::vector<Token>& t, std::size_t i,
                              std::size_t end) {
  for (; i < end && i < t.size() && t[i].kind != TokKind::kEof; ++i) {
    if (t[i].is("(")) {
      i = skip_balanced(t, i, "(", ")", end) - 1;
    } else if (t[i].is("{")) {
      i = skip_balanced(t, i, "{", "}", end) - 1;
    } else if (t[i].is(";")) {
      return i + 1;
    }
  }
  return i;
}

const Comment* find_annotation(const SourceFile& file, std::uint32_t line,
                               std::uint32_t above, std::string_view marker) {
  const Comment* best = nullptr;
  for (const Comment& c : file.comments) {
    if (c.line > line || c.line + above < line) continue;
    if (c.text.find(marker) == std::string_view::npos) continue;
    if (best == nullptr || c.line > best->line) best = &c;
  }
  return best;
}

std::string_view after_marker(std::string_view text, std::string_view marker) {
  std::string_view rest = text.substr(text.find(marker) + marker.size());
  while (!rest.empty() &&
         std::isspace(static_cast<unsigned char>(rest.front())) != 0) {
    rest.remove_prefix(1);
  }
  return rest;
}

}  // namespace hring::lint
