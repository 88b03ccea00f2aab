// Token stream for hring-lint (tools/hring_lint/README.md).
//
// A single-pass C++ tokenizer: identifiers, numbers, string/char literals
// (including raw strings), and punctuation with longest-match operators.
// Comments are not tokens — they are collected separately per line so the
// expectation (`hring-expect`), suppression (`hring-nolint`) and hot-path
// annotation comments stay addressable by the checks without cluttering
// the structural parse. Preprocessor directives are skipped wholesale
// (including line continuations): the linter analyses the file as written,
// not the preprocessed translation unit. The token-range and annotation
// helpers below are the one copy the model and every check share.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace hring::lint {

enum class TokKind : std::uint8_t {
  kIdent,
  kNumber,
  kString,
  kChar,
  kPunct,
  kEof,
};

struct Token {
  TokKind kind = TokKind::kEof;
  /// View into SourceFile::content — valid while the file is alive.
  std::string_view text;
  std::uint32_t line = 0;  // 1-based
  std::uint32_t col = 0;   // 1-based

  [[nodiscard]] bool is(std::string_view t) const { return text == t; }
  [[nodiscard]] bool is_ident() const { return kind == TokKind::kIdent; }
};

/// One comment (`//...` or `/*...*/`), with the line it starts on.
struct Comment {
  std::string_view text;  // includes the comment markers
  std::uint32_t line = 0;
};

/// A lexed file. `content` owns the bytes every token/comment views into.
struct SourceFile {
  std::string path;
  std::string content;
  std::vector<Token> tokens;    // terminated by a kEof token
  std::vector<Comment> comments;
};

/// Lexes `content` in place (tokens/comments view into file.content).
void lex(SourceFile& file);

/// Reads `path` from disk and lexes it. Returns false when unreadable.
[[nodiscard]] bool lex_file(const std::string& path, SourceFile& file);

/// Index of the token after the one matching the opener at `i`
/// (tokens[i] must be `open`), looking no further than `end`. Returns the
/// end index when unbalanced.
[[nodiscard]] std::size_t skip_balanced(
    const std::vector<Token>& t, std::size_t i, std::string_view open,
    std::string_view close,
    std::size_t end = std::numeric_limits<std::size_t>::max());

/// Skips a template argument/parameter list starting at `<`; `>>` closes
/// two levels. Returns the index after the closing `>`, or that of a `;`
/// or `{` showing it was not a template list after all.
[[nodiscard]] std::size_t skip_angles(const std::vector<Token>& t,
                                      std::size_t i);

/// Index after the next `;` outside balanced () and {}, looking no
/// further than `end`.
[[nodiscard]] std::size_t skip_to_semicolon(
    const std::vector<Token>& t, std::size_t i,
    std::size_t end = std::numeric_limits<std::size_t>::max());

/// The comment nearest to (and not past) `line` within [line - above, line]
/// whose text contains `marker`; nullptr when absent.
[[nodiscard]] const Comment* find_annotation(const SourceFile& file,
                                             std::uint32_t line,
                                             std::uint32_t above,
                                             std::string_view marker);

/// The text after the first `marker` in `text`, leading whitespace dropped.
[[nodiscard]] std::string_view after_marker(std::string_view text,
                                            std::string_view marker);

}  // namespace hring::lint
