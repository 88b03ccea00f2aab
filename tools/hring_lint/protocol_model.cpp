#include "protocol_model.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "checks.hpp"
#include "support/json.hpp"

namespace hring::lint {
namespace {

using Toks = std::vector<Token>;

std::size_t skip_balanced(const Toks& t, std::size_t i, std::string_view open,
                          std::string_view close) {
  std::size_t depth = 0;
  for (; i < t.size() && t[i].kind != TokKind::kEof; ++i) {
    if (t[i].is(open)) {
      ++depth;
    } else if (t[i].is(close)) {
      if (--depth == 0) return i + 1;
    }
  }
  return i;
}

std::size_t skip_angles(const Toks& t, std::size_t i) {
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
      return i;  // not a template list after all
    }
  }
  return i;
}

std::size_t skip_to_semicolon(const Toks& t, std::size_t i) {
  for (; i < t.size() && t[i].kind != TokKind::kEof; ++i) {
    if (t[i].is("(")) {
      i = skip_balanced(t, i, "(", ")") - 1;
    } else if (t[i].is("{")) {
      i = skip_balanced(t, i, "{", "}") - 1;
    } else if (t[i].is(";")) {
      return i + 1;
    }
  }
  return i;
}

[[nodiscard]] std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Strips the enumerator prefix convention: kToken -> Token.
[[nodiscard]] std::string strip_k(std::string_view enumerator) {
  if (enumerator.size() > 1 && enumerator[0] == 'k' &&
      std::isupper(static_cast<unsigned char>(enumerator[1])) != 0) {
    return std::string(enumerator.substr(1));
  }
  return std::string(enumerator);
}

// ---------------------------------------------------------------------------
// Annotation lookup

/// The comment nearest to (and not past) `line` within [line - above, line]
/// whose text contains `marker`; nullptr when absent.
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

[[nodiscard]] std::string_view after_marker(std::string_view text,
                                            std::string_view marker) {
  const std::size_t at = text.find(marker);
  std::string_view rest = text.substr(at + marker.size());
  while (!rest.empty() &&
         std::isspace(static_cast<unsigned char>(rest.front())) != 0) {
    rest.remove_prefix(1);
  }
  return rest;
}

[[nodiscard]] std::string take_word(std::string_view& rest) {
  std::size_t end = 0;
  while (end < rest.size() &&
         (std::isalnum(static_cast<unsigned char>(rest[end])) != 0 ||
          rest[end] == '_')) {
    ++end;
  }
  const std::string word(rest.substr(0, end));
  rest.remove_prefix(end);
  while (!rest.empty() &&
         std::isspace(static_cast<unsigned char>(rest.front())) != 0) {
    rest.remove_prefix(1);
  }
  return word;
}

struct AlgorithmAnnotation {
  std::string name;
  std::string space;  // empty for baselines
};

std::optional<AlgorithmAnnotation> algorithm_annotation(
    const SourceFile& file, std::uint32_t class_line) {
  const Comment* c = find_annotation(file, class_line, 4, "hring-algorithm:");
  if (c == nullptr) return std::nullopt;
  std::string_view rest = after_marker(c->text, "hring-algorithm:");
  AlgorithmAnnotation ann;
  ann.name = take_word(rest);
  if (ann.name.empty()) return std::nullopt;
  if (rest.rfind("space=", 0) == 0) {
    rest.remove_prefix(6);
    std::size_t end = 0;
    while (end < rest.size() &&
           std::isspace(static_cast<unsigned char>(rest[end])) == 0) {
      ++end;
    }
    ann.space = std::string(rest.substr(0, end));
  }
  return ann;
}

struct StateAnnotation {
  bool excluded = false;
  std::string bits;
  std::string reason;
  bool malformed = false;
};

std::optional<StateAnnotation> state_annotation(const SourceFile& file,
                                                std::uint32_t member_line) {
  // Window of one line: adjacent members must not capture each other's
  // annotations.
  const Comment* c = find_annotation(file, member_line, 1, "hring-state:");
  if (c == nullptr) return std::nullopt;
  std::string_view rest = after_marker(c->text, "hring-state:");
  StateAnnotation ann;
  if (rest.rfind("bits=", 0) == 0) {
    rest.remove_prefix(5);
    std::size_t end = 0;
    while (end < rest.size() &&
           std::isspace(static_cast<unsigned char>(rest[end])) == 0) {
      ++end;
    }
    ann.bits = std::string(rest.substr(0, end));
    if (ann.bits.empty()) ann.malformed = true;
    return ann;
  }
  if (rest.rfind("excluded(", 0) == 0) {
    rest.remove_prefix(9);
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      ann.malformed = true;
      return ann;
    }
    ann.excluded = true;
    ann.reason = std::string(rest.substr(0, close));
    return ann;
  }
  ann.malformed = true;
  return ann;
}

[[nodiscard]] bool cold_atomic_annotated(const SourceFile& file,
                                         std::uint32_t line) {
  return find_annotation(file, line, 1, "hring-lint: cold-atomic") != nullptr;
}

// ---------------------------------------------------------------------------
// Field scanner

struct FieldDecl {
  std::string name;
  std::vector<std::string> type_idents;  // qualifier-filtered, name excluded
  std::uint32_t line = 0;
  bool is_atomic = false;
  bool has_alignas = false;
};

[[nodiscard]] bool is_type_qualifier(std::string_view ident) {
  static const std::set<std::string_view> kQualifiers = {
      "std",   "sim",     "words",    "support",  "core", "election",
      "ring",  "runtime", "hring",    "const",    "mutable",
      "volatile"};
  return kQualifiers.count(ident) > 0;
}

/// Non-function, non-static data members of the class body, in declaration
/// order. A linear token scan: nested types, methods, access labels and
/// using declarations are skipped; template arguments, initializers and
/// attributes do not contribute identifiers.
std::vector<FieldDecl> scan_fields(const ClassInfo& cls) {
  std::vector<FieldDecl> out;
  if (cls.body_file == nullptr) return out;
  const Toks& t = cls.body_file->tokens;
  std::size_t i = cls.body_begin;
  const std::size_t end = cls.body_end;

  std::vector<std::pair<std::string, std::uint32_t>> idents;
  bool is_func = false;
  bool is_static = false;
  bool is_atomic = false;
  bool has_alignas = false;
  const auto reset = [&] {
    idents.clear();
    is_func = is_static = is_atomic = has_alignas = false;
  };
  const auto record = [&] {
    if (!is_func && !is_static && idents.size() >= 2) {
      FieldDecl f;
      f.name = idents.back().first;
      f.line = idents.back().second;
      for (std::size_t j = 0; j + 1 < idents.size(); ++j) {
        if (!is_type_qualifier(idents[j].first)) {
          f.type_idents.push_back(idents[j].first);
        }
      }
      f.is_atomic = is_atomic;
      f.has_alignas = has_alignas;
      out.push_back(std::move(f));
    }
    reset();
  };

  while (i < end && t[i].kind != TokKind::kEof) {
    const Token& tok = t[i];
    if (tok.is_ident()) {
      if ((tok.is("public") || tok.is("protected") || tok.is("private")) &&
          i + 1 < end && t[i + 1].is(":")) {
        i += 2;
        reset();
        continue;
      }
      if (tok.is("using") || tok.is("typedef") || tok.is("friend") ||
          tok.is("static_assert")) {
        i = skip_to_semicolon(t, i);
        reset();
        continue;
      }
      if (tok.is("template")) {
        ++i;
        if (i < end && t[i].is("<")) i = skip_angles(t, i);
        continue;
      }
      if (tok.is("enum") || tok.is("class") || tok.is("struct") ||
          tok.is("union")) {
        while (i < end && !t[i].is("{") && !t[i].is(";")) ++i;
        if (i < end && t[i].is("{")) i = skip_balanced(t, i, "{", "}");
        i = skip_to_semicolon(t, i);
        reset();
        continue;
      }
      if (tok.is("alignas") && i + 1 < end && t[i + 1].is("(")) {
        has_alignas = true;
        i = skip_balanced(t, i + 1, "(", ")");
        continue;
      }
      if (tok.is("static") || tok.is("constexpr") || tok.is("inline")) {
        is_static = true;
        ++i;
        continue;
      }
      if (tok.is("virtual") || tok.is("explicit") || tok.is("noexcept") ||
          tok.is("override") || tok.is("final")) {
        ++i;
        continue;
      }
      if (tok.is("operator")) {
        is_func = true;
        ++i;
        continue;
      }
      if (tok.is("atomic")) is_atomic = true;
      idents.emplace_back(std::string(tok.text), tok.line);
      ++i;
      continue;
    }
    if (tok.is("(")) {
      if (!idents.empty()) is_func = true;
      i = skip_balanced(t, i, "(", ")");
      continue;
    }
    if (tok.is("<")) {
      i = skip_angles(t, i);
      continue;
    }
    if (tok.is("[")) {
      i = skip_balanced(t, i, "[", "]");
      continue;
    }
    if (tok.is("{")) {
      const std::size_t after = skip_balanced(t, i, "{", "}");
      if (after < end && t[after].is(";")) {
        i = after;  // brace-initialized member; the `;` records it
      } else {
        reset();  // function body / ctor-init brace
        i = after;
      }
      continue;
    }
    if (tok.is("=")) {
      record();
      i = skip_to_semicolon(t, i);
      continue;
    }
    if (tok.is(";")) {
      record();
      ++i;
      continue;
    }
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared scanning helpers

/// Message factory name -> tag enumerator (kToken, ...), built from the
/// Message class's static factories.
std::map<std::string, std::string> message_ctors(const Model& model) {
  std::map<std::string, std::string> ctors;
  const auto cit = model.classes.find("Message");
  if (cit == model.classes.end()) return ctors;
  for (const MethodInfo& m : cit->second.methods) {
    if (!m.has_body || m.file == nullptr) continue;
    const Toks& t = m.file->tokens;
    for (std::size_t i = m.body_begin; i + 2 < m.body_end; ++i) {
      if (t[i].is("MsgKind") && t[i + 1].is("::") && t[i + 2].is_ident()) {
        ctors.emplace(m.name, std::string(t[i + 2].text));
        break;
      }
    }
  }
  return ctors;
}

/// Tags sent from `body` via Message factories (`Message::token(...)`).
void collect_sends(const MethodInfo& m,
                   const std::map<std::string, std::string>& ctors,
                   std::set<std::string>& sends) {
  const Toks& t = m.file->tokens;
  for (std::size_t i = m.body_begin; i + 3 < m.body_end; ++i) {
    if (t[i].is("Message") && t[i + 1].is("::") && t[i + 2].is_ident() &&
        t[i + 3].is("(")) {
      const auto it = ctors.find(std::string(t[i + 2].text));
      if (it != ctors.end()) sends.insert(it->second);
    }
  }
}

/// Tag enumerators mentioned anywhere in `body` (`MsgKind::kToken` in a
/// guard, case label or assertion all count as handling the tag).
void collect_handles(const MethodInfo& m, std::set<std::string>& handles) {
  const Toks& t = m.file->tokens;
  for (std::size_t i = m.body_begin; i + 2 < m.body_end; ++i) {
    if (t[i].is("MsgKind") && t[i + 1].is("::") && t[i + 2].is_ident()) {
      handles.insert(std::string(t[i + 2].text));
    }
  }
}

/// note_action("...") labels in source order, deduplicated.
void collect_actions(const MethodInfo& m, std::vector<std::string>& actions) {
  const Toks& t = m.file->tokens;
  for (std::size_t i = m.body_begin; i + 2 < m.body_end; ++i) {
    if (t[i].is("note_action") && t[i + 1].is("(") &&
        t[i + 2].kind == TokKind::kString && t[i + 2].text.size() >= 2) {
      std::string label(t[i + 2].text.substr(1, t[i + 2].text.size() - 2));
      if (std::find(actions.begin(), actions.end(), label) == actions.end()) {
        actions.push_back(std::move(label));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-class state extraction (cached: Process is on every base chain)

struct ClassState {
  std::vector<StateVarIR> vars;
};

/// Extracts the state variables of one class, diagnosing unannotated or
/// malformed members when `diags` is non-null.
ClassState extract_class_state(const Model& model, const ClassInfo& cls,
                               std::vector<Diagnostic>* diags) {
  ClassState state;
  if (cls.body_file == nullptr) return state;
  for (const FieldDecl& f : scan_fields(cls)) {
    StateVarIR var;
    var.name = f.name;
    var.owner = cls.name;
    var.line = f.line;
    const auto ann = state_annotation(*cls.body_file, f.line);
    if (ann.has_value() && !ann->malformed) {
      if (ann->excluded) {
        var.excluded = true;
        var.note = ann->reason;
      } else {
        if (!BitExpr::parse(ann->bits).has_value() && diags != nullptr) {
          emit_diag(*cls.body_file, f.line, 1, "space-bound",
                    "member '" + f.name + "' of '" + cls.name +
                        "' has an unparsable width expression '" + ann->bits +
                        "' (integers, n, k, b, log_k over + - * only)",
                    *diags);
        }
        var.bits = ann->bits;
        var.note = "annotated";
      }
      state.vars.push_back(std::move(var));
      continue;
    }
    if (ann.has_value() && ann->malformed && diags != nullptr) {
      emit_diag(*cls.body_file, f.line, 1, "space-bound",
                "malformed hring-state annotation on '" + f.name +
                    "': use bits=<expr> or excluded(<reason>)",
                *diags);
    }
    // Default widths for the unmistakable cases.
    if (f.type_idents.size() == 1) {
      const std::string& ty = f.type_idents.front();
      if (ty == "bool") {
        var.bits = "1";
        var.note = "default";
        state.vars.push_back(std::move(var));
        continue;
      }
      if (ty == "Label") {
        var.bits = "b";
        var.note = "default";
        state.vars.push_back(std::move(var));
        continue;
      }
      const auto eit = model.enums.find(ty);
      if (eit != model.enums.end()) {
        var.bits = std::to_string(
            ceil_log2(eit->second.enumerators.size()));
        var.note = "default";
        state.vars.push_back(std::move(var));
        continue;
      }
    }
    if (diags != nullptr) {
      emit_diag(*cls.body_file, f.line, 1, "space-bound",
                "member '" + f.name + "' of algorithm class '" + cls.name +
                    "' has no declared bit width; annotate with "
                    "// hring-state: bits=<expr> or excluded(<reason>)",
                *diags);
    }
    var.excluded = true;
    var.note = "unannotated";
    state.vars.push_back(std::move(var));
  }
  return state;
}

/// Base-first inheritance chain (Process, ..., cls) over classes known to
/// the model.
std::vector<const ClassInfo*> base_chain(const Model& model,
                                         const ClassInfo& cls) {
  std::vector<const ClassInfo*> chain;
  std::set<std::string> seen;
  const ClassInfo* cur = &cls;
  while (cur != nullptr && seen.insert(cur->name).second) {
    chain.push_back(cur);
    const ClassInfo* next = nullptr;
    for (const std::string& base : cur->bases) {
      const auto it = model.classes.find(base);
      if (it != model.classes.end()) {
        next = &it->second;
        break;
      }
    }
    cur = next;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace

// ---------------------------------------------------------------------------
// BitExpr

std::uint64_t ceil_log2(std::uint64_t v) {
  std::uint64_t l = 0;
  while ((std::uint64_t{1} << l) < v) ++l;
  return l;
}

std::optional<BitExpr> BitExpr::parse(std::string_view text) {
  BitExpr expr;
  expr.text_ = std::string(text);
  std::size_t pos = 0;
  const auto skip_ws = [&] {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  };
  const auto peek = [&]() -> char {
    return pos < text.size() ? text[pos] : '\0';
  };

  // expr := term (('+'|'-') term)* ; term := factor ('*' factor)* ;
  // factor := number | symbol | '(' expr ')'
  const std::function<int()> parse_expr = [&]() -> int {
    const std::function<int()> parse_factor = [&]() -> int {
      skip_ws();
      if (peek() == '(') {
        ++pos;
        const int inner = parse_expr();
        skip_ws();
        if (inner < 0 || peek() != ')') return -1;
        ++pos;
        return inner;
      }
      if (std::isdigit(static_cast<unsigned char>(peek())) != 0) {
        std::int64_t value = 0;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])) != 0) {
          value = value * 10 + (text[pos] - '0');
          ++pos;
        }
        expr.nodes_.push_back({Op::kConst, value, -1, -1});
        return static_cast<int>(expr.nodes_.size()) - 1;
      }
      if (std::isalpha(static_cast<unsigned char>(peek())) != 0) {
        std::size_t end = pos;
        while (end < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[end])) != 0 ||
                text[end] == '_')) {
          ++end;
        }
        const std::string_view sym = text.substr(pos, end - pos);
        pos = end;
        std::int64_t index = -1;
        if (sym == "n") index = 0;
        if (sym == "k") index = 1;
        if (sym == "b") index = 2;
        if (sym == "log_k") index = 3;
        if (index < 0) return -1;
        expr.nodes_.push_back({Op::kVar, index, -1, -1});
        return static_cast<int>(expr.nodes_.size()) - 1;
      }
      return -1;
    };

    int lhs = parse_factor();
    if (lhs < 0) return -1;
    for (;;) {
      skip_ws();
      if (peek() == '*') {
        ++pos;
        const int rhs = parse_factor();
        if (rhs < 0) return -1;
        expr.nodes_.push_back({Op::kMul, 0, lhs, rhs});
        lhs = static_cast<int>(expr.nodes_.size()) - 1;
        continue;
      }
      if (peek() == '+' || peek() == '-') {
        const Op op = peek() == '+' ? Op::kAdd : Op::kSub;
        ++pos;
        // Right operand binds multiplication first.
        const int first = parse_factor();
        if (first < 0) return -1;
        int rhs = first;
        for (;;) {
          skip_ws();
          if (peek() != '*') break;
          ++pos;
          const int next = parse_factor();
          if (next < 0) return -1;
          expr.nodes_.push_back({Op::kMul, 0, rhs, next});
          rhs = static_cast<int>(expr.nodes_.size()) - 1;
        }
        expr.nodes_.push_back({op, 0, lhs, rhs});
        lhs = static_cast<int>(expr.nodes_.size()) - 1;
        continue;
      }
      return lhs;
    }
  };

  const int root = parse_expr();
  skip_ws();
  if (root < 0 || pos != text.size()) return std::nullopt;
  expr.root_ = root;
  return expr;
}

std::int64_t BitExpr::eval_node(int idx, const std::int64_t* vars) const {
  const Node& node = nodes_[static_cast<std::size_t>(idx)];
  switch (node.op) {
    case Op::kConst:
      return node.value;
    case Op::kVar:
      return vars[node.value];
    case Op::kAdd:
      return eval_node(node.lhs, vars) + eval_node(node.rhs, vars);
    case Op::kSub:
      return eval_node(node.lhs, vars) - eval_node(node.rhs, vars);
    case Op::kMul:
      return eval_node(node.lhs, vars) * eval_node(node.rhs, vars);
  }
  return 0;
}

std::uint64_t BitExpr::eval(const BitEnv& env) const {
  if (root_ < 0) return 0;
  const std::int64_t vars[4] = {
      static_cast<std::int64_t>(env.n), static_cast<std::int64_t>(env.k),
      static_cast<std::int64_t>(env.b),
      static_cast<std::int64_t>(ceil_log2(env.k))};
  const std::int64_t value = eval_node(root_, vars);
  return value > 0 ? static_cast<std::uint64_t>(value) : 0;
}

// ---------------------------------------------------------------------------
// Extraction

ProtocolIR extract_protocol_ir(const Model& model,
                               std::vector<Diagnostic>* diags) {
  ProtocolIR ir;

  // Message alphabet.
  const auto eit = model.enums.find("MsgKind");
  if (eit != model.enums.end()) {
    for (const std::string& e : eit->second.enumerators) {
      ir.message.tags.push_back(strip_k(e));
    }
    ir.message.tag_bits = ceil_log2(ir.message.tags.size());
  }
  const auto mit = model.classes.find("Message");
  if (mit != model.classes.end() && mit->second.body_file != nullptr) {
    for (const FieldDecl& f : scan_fields(mit->second)) {
      MessageFieldIR field;
      field.name = f.name;
      if (f.type_idents.size() == 1) {
        const std::string& ty = f.type_idents.front();
        if (ty == "Label") field.bits = "b";
        const auto fe = model.enums.find(ty);
        if (fe != model.enums.end()) {
          field.bits = std::to_string(
              ceil_log2(fe->second.enumerators.size()));
        }
        if (ty == "bool") field.bits = "1";
      }
      ir.message.fields.push_back(std::move(field));
    }
  }

  const std::map<std::string, std::string> ctors = message_ctors(model);

  // Algorithms: every class carrying an hring-algorithm annotation.
  std::map<std::string, ClassState> state_cache;
  for (const auto& [name, cls] : model.classes) {
    if (name.empty() || cls.body_file == nullptr) continue;
    const auto ann = algorithm_annotation(*cls.body_file, cls.line);
    if (!ann.has_value()) continue;

    AlgorithmIR alg;
    alg.name = ann->name;
    alg.class_name = name;
    alg.file = basename_of(cls.body_file->path);
    alg.line = cls.line;
    alg.space_bound = ann->space;
    if (!ann->space.empty() && !BitExpr::parse(ann->space).has_value() &&
        diags != nullptr) {
      emit_diag(*cls.body_file, cls.line, 1, "space-bound",
                "algorithm '" + ann->name +
                    "' declares an unparsable space budget '" + ann->space +
                    "'",
                *diags);
    }

    for (const ClassInfo* link : base_chain(model, cls)) {
      auto cached = state_cache.find(link->name);
      if (cached == state_cache.end()) {
        cached = state_cache
                     .emplace(link->name,
                              extract_class_state(model, *link, diags))
                     .first;
      }
      for (const StateVarIR& var : cached->second.vars) {
        alg.state.push_back(var);
      }
    }
    for (const StateVarIR& var : alg.state) {
      if (var.excluded) continue;
      if (!alg.state_bits.empty()) alg.state_bits += "+";
      alg.state_bits += var.bits;
    }
    if (alg.state_bits.empty()) alg.state_bits = "0";

    std::set<std::string> sends;
    std::set<std::string> handles;
    for (const MethodInfo* m : model.methods_named(cls, "fire")) {
      if (!m->has_body || m->file == nullptr) continue;
      collect_sends(*m, ctors, sends);
      collect_handles(*m, handles);
      collect_actions(*m, alg.actions);
    }
    for (const MethodInfo* m : model.methods_named(cls, "enabled")) {
      if (!m->has_body || m->file == nullptr) continue;
      collect_handles(*m, handles);
    }
    for (const std::string& s : sends) alg.sends.push_back(strip_k(s));
    for (const std::string& h : handles) alg.handles.push_back(strip_k(h));

    ir.algorithms.push_back(std::move(alg));
  }
  std::sort(ir.algorithms.begin(), ir.algorithms.end(),
            [](const AlgorithmIR& a, const AlgorithmIR& b) {
              return a.name < b.name;
            });
  return ir;
}

void write_protocol_ir(const ProtocolIR& ir, std::ostream& out) {
  support::JsonWriter w(out);
  w.begin_object();
  w.key("schema").value("hring-protocol-ir/1");
  w.key("symbols").begin_object();
  w.key("n").value("ring size");
  w.key("k").value("multiplicity bound of the class K_k");
  w.key("b").value("label bits");
  w.key("log_k").value("smallest l with 2^l >= k");
  w.end_object();

  w.key("message").begin_object();
  w.key("tags").begin_array();
  for (const std::string& tag : ir.message.tags) w.value(tag);
  w.end_array();
  w.key("tag_bits").value(ir.message.tag_bits);
  w.key("fields").begin_array();
  for (const MessageFieldIR& f : ir.message.fields) {
    w.begin_object();
    w.key("name").value(f.name);
    w.key("bits").value(f.bits);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("algorithms").begin_array();
  for (const AlgorithmIR& alg : ir.algorithms) {
    w.begin_object();
    w.key("name").value(alg.name);
    w.key("class").value(alg.class_name);
    w.key("file").value(alg.file);
    w.key("line").value(static_cast<std::uint64_t>(alg.line));
    if (!alg.space_bound.empty()) {
      w.key("space_bound").value(alg.space_bound);
    }
    w.key("state_bits").value(alg.state_bits);
    w.key("state").begin_array();
    for (const StateVarIR& var : alg.state) {
      w.begin_object();
      w.key("name").value(var.name);
      w.key("owner").value(var.owner);
      if (var.excluded) {
        w.key("excluded").value(true);
      } else {
        w.key("bits").value(var.bits);
      }
      w.key("note").value(var.note);
      w.end_object();
    }
    w.end_array();
    w.key("alphabet").begin_object();
    w.key("sends").begin_array();
    for (const std::string& s : alg.sends) w.value(s);
    w.end_array();
    w.key("handles").begin_array();
    for (const std::string& h : alg.handles) w.value(h);
    w.end_array();
    w.end_object();
    w.key("actions").begin_array();
    for (const std::string& a : alg.actions) w.value(a);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// ---------------------------------------------------------------------------
// space-bound

void check_space_bound(const Model& model, std::vector<Diagnostic>& diags) {
  const ProtocolIR ir = extract_protocol_ir(model, &diags);
  for (const AlgorithmIR& alg : ir.algorithms) {
    if (alg.space_bound.empty()) continue;
    const auto bound = BitExpr::parse(alg.space_bound);
    const auto sum = BitExpr::parse(alg.state_bits);
    if (!bound.has_value() || !sum.has_value()) continue;  // diagnosed above
    const auto cit = model.classes.find(alg.class_name);
    if (cit == model.classes.end() || cit->second.body_file == nullptr) {
      continue;
    }
    bool reported = false;
    for (std::uint64_t n = 1; n <= 10 && !reported; ++n) {
      for (std::uint64_t k = 1; k <= 5 && !reported; ++k) {
        for (std::uint64_t b = 1; b <= 12 && !reported; ++b) {
          const BitEnv env{n, k, b};
          const std::uint64_t declared = sum->eval(env);
          const std::uint64_t budget = bound->eval(env);
          if (declared > budget) {
            emit_diag(*cit->second.body_file, alg.line, 1, "space-bound",
                      "declared state of '" + alg.name + "' (" +
                          alg.state_bits + " = " + std::to_string(declared) +
                          " bits) exceeds the space budget " +
                          alg.space_bound + " = " + std::to_string(budget) +
                          " bits at n=" + std::to_string(n) +
                          ", k=" + std::to_string(k) +
                          ", b=" + std::to_string(b),
                      diags);
            reported = true;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// alphabet-closure

void check_alphabet_closure(const Model& model,
                            std::vector<Diagnostic>& diags) {
  const std::map<std::string, std::string> ctors = message_ctors(model);
  const auto eit = model.enums.find("MsgKind");

  for (const auto& [name, cls] : model.classes) {
    if (name.empty() || !model.derives_from(name)) continue;
    std::set<std::string> sends;
    std::set<std::string> handles;
    const MethodInfo* first_fire = nullptr;
    std::vector<const MethodInfo*> bodies;
    for (const MethodInfo* m : model.methods_named(cls, "fire")) {
      if (!m->has_body || m->file == nullptr) continue;
      if (first_fire == nullptr) first_fire = m;
      collect_sends(*m, ctors, sends);
      collect_handles(*m, handles);
      bodies.push_back(m);
    }
    for (const MethodInfo* m : model.methods_named(cls, "enabled")) {
      if (!m->has_body || m->file == nullptr) continue;
      collect_handles(*m, handles);
      bodies.push_back(m);
    }

    if (first_fire != nullptr) {
      for (const std::string& tag : sends) {
        if (handles.count(tag) == 0) {
          emit_diag(*first_fire->file, first_fire->line, 1,
                    "alphabet-closure",
                    "'" + name + "' sends MsgKind::" + tag +
                        " but no enabled()/fire() branch mentions it; the "
                        "tag would arrive with no matching guard",
                    diags);
        }
      }
    }

    // Switch exhaustiveness over the tag enum.
    if (eit == model.enums.end()) continue;
    const std::vector<std::string>& all_tags = eit->second.enumerators;
    for (const MethodInfo* m : bodies) {
      const Toks& t = m->file->tokens;
      for (std::size_t i = m->body_begin; i < m->body_end; ++i) {
        if (!t[i].is("switch") || i + 1 >= m->body_end || !t[i + 1].is("(")) {
          continue;
        }
        const std::size_t cond_end = skip_balanced(t, i + 1, "(", ")");
        bool over_kind = false;
        for (std::size_t j = i + 2; j + 1 < cond_end; ++j) {
          if (t[j].is("kind")) over_kind = true;
        }
        if (!over_kind) {
          i = cond_end - 1;
          continue;
        }
        if (cond_end >= m->body_end || !t[cond_end].is("{")) continue;
        const std::size_t body_close =
            skip_balanced(t, cond_end, "{", "}");
        bool has_default = false;
        std::set<std::string> cases;
        for (std::size_t j = cond_end + 1; j + 1 < body_close; ++j) {
          if (t[j].is("default")) has_default = true;
          if (!t[j].is("case")) continue;
          std::string last_ident;
          std::size_t c = j + 1;
          while (c + 1 < body_close && !t[c].is(":")) {
            if (t[c].is_ident()) last_ident = std::string(t[c].text);
            ++c;
          }
          if (!last_ident.empty()) cases.insert(last_ident);
          j = c;
        }
        if (!has_default) {
          std::string missing;
          for (const std::string& tag : all_tags) {
            if (cases.count(tag) > 0) continue;
            if (!missing.empty()) missing += ", ";
            missing += tag;
          }
          if (!missing.empty()) {
            emit_diag(*m->file, t[i].line, t[i].col, "alphabet-closure",
                      "switch over the message tag in '" + name +
                          "' handles neither " + missing +
                          " nor a default; add the missing branches or a "
                          "defensive default",
                      diags);
          }
        }
        i = body_close - 1;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// atomics-discipline

void check_atomics_discipline(const Model& model,
                              std::vector<Diagnostic>& diags) {
  static const std::set<std::string_view> kOrderedOps = {
      "load",          "store",
      "exchange",      "fetch_add",
      "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",
      "compare_exchange_weak", "compare_exchange_strong",
      "test_and_set"};
  static const std::set<std::string_view> kImplicitOps = {
      "++", "--", "+=", "-=", "&=", "|=", "^="};

  for (const SourceFile* file : model.files) {
    const Toks& t = file->tokens;
    // Names declared std::atomic<...> in this file (members and locals
    // alike). Scoped per file: atomics here are always used where they
    // are declared, and a global set would trip on unrelated plain
    // variables that happen to share a name across files.
    std::set<std::string> atomic_names;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!t[i].is("atomic") || !t[i + 1].is("<")) continue;
      const std::size_t j = skip_angles(t, i + 1);
      if (j < t.size() && t[j].is_ident()) {
        atomic_names.insert(std::string(t[j].text));
      }
    }
    if (atomic_names.empty()) continue;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const Token& tok = t[i];
      if (!tok.is_ident()) continue;
      // Explicit member op: name.(op)(args) must name a memory_order.
      if (kOrderedOps.count(tok.text) > 0 && i + 1 < t.size() &&
          t[i + 1].is("(") && i >= 2 &&
          (t[i - 1].is(".") || t[i - 1].is("->")) && t[i - 2].is_ident() &&
          atomic_names.count(std::string(t[i - 2].text)) > 0) {
        const std::size_t close = skip_balanced(t, i + 1, "(", ")");
        bool has_order = false;
        for (std::size_t j = i + 2; j + 1 < close; ++j) {
          if (t[j].is_ident() &&
              t[j].text.find("memory_order") != std::string_view::npos) {
            has_order = true;
          }
        }
        if (!has_order) {
          emit_diag(*file, tok.line, tok.col, "atomics-discipline",
                    "atomic " + std::string(tok.text) + " on '" +
                        std::string(t[i - 2].text) +
                        "' without an explicit memory_order; spell out the "
                        "ordering the algorithm needs",
                    diags);
        }
        continue;
      }
      // Implicit read-modify-write on an atomic name (++x, x += 1): these
      // are sequentially-consistent by default — make the ordering visible.
      if (atomic_names.count(std::string(tok.text)) == 0) continue;
      if (i > 0 && (t[i - 1].is_ident() || t[i - 1].is(">") ||
                    t[i - 1].is("::"))) {
        continue;  // a declaration or qualified name, not a use
      }
      const bool prefix =
          i > 0 && (t[i - 1].is("++") || t[i - 1].is("--"));
      const bool postfix = i + 1 < t.size() &&
                           kImplicitOps.count(t[i + 1].text) > 0;
      if (prefix || postfix) {
        emit_diag(*file, tok.line, tok.col, "atomics-discipline",
                  "implicit atomic read-modify-write on '" +
                      std::string(tok.text) +
                      "'; use fetch_add/fetch_sub (or store) with an "
                      "explicit memory_order",
                  diags);
      }
    }
  }

  // False-sharing layout: an atomic member adjacent to a non-atomic member
  // shares its cache line with cold data unless separated by alignas.
  for (const auto& [name, cls] : model.classes) {
    if (name.empty() || cls.body_file == nullptr) continue;
    const std::vector<FieldDecl> fields = scan_fields(cls);
    std::set<std::string> reported;
    for (std::size_t i = 0; i + 1 < fields.size(); ++i) {
      const FieldDecl& a = fields[i];
      const FieldDecl& b = fields[i + 1];
      if (a.is_atomic == b.is_atomic) continue;
      const FieldDecl& atom = a.is_atomic ? a : b;
      const FieldDecl& plain = a.is_atomic ? b : a;
      if (a.has_alignas || b.has_alignas) continue;
      if (cold_atomic_annotated(*cls.body_file, atom.line)) continue;
      if (!reported.insert(atom.name).second) continue;
      emit_diag(*cls.body_file, atom.line, 1, "atomics-discipline",
                "atomic member '" + atom.name +
                    "' shares a cache line with non-atomic '" + plain.name +
                    "' in '" + name +
                    "'; separate with alignas(64) or annotate "
                    "// hring-lint: cold-atomic",
                diags);
    }
  }
}

}  // namespace hring::lint
