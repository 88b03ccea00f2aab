#include "checks.hpp"

#include <array>
#include <optional>
#include <set>
#include <string_view>

#include "concurrency_model.hpp"
#include "protocol_model.hpp"

namespace hring::lint {
namespace {

[[nodiscard]] bool is_member_ident(const Token& tok) {
  return tok.is_ident() && tok.text.size() > 1 && tok.text.back() == '_';
}

[[nodiscard]] bool suppressed(const SourceFile& file, std::uint32_t line,
                              const std::string& check) {
  for (const Comment& c : file.comments) {
    if (c.line != line) continue;
    const std::size_t at = c.text.find("hring-nolint");
    if (at == std::string_view::npos) continue;
    const std::size_t paren = c.text.find('(', at);
    if (paren == std::string_view::npos) return true;  // bare: all checks
    if (c.text.find(check, paren) != std::string_view::npos) return true;
  }
  return false;
}

void emit(const SourceFile& file, std::uint32_t line, std::uint32_t col,
          const std::string& check, std::string message,
          std::vector<Diagnostic>& diags) {
  if (suppressed(file, line, check)) return;
  diags.push_back({file.path, line, col, check, std::move(message)});
}

/// True when tokens[i] is the name of a call: `name (`.
[[nodiscard]] bool is_call(const std::vector<Token>& t, std::size_t i) {
  return t[i].is_ident() && i + 1 < t.size() && t[i + 1].is("(");
}

/// True when the call at `i` has an explicit receiver (`x.f(...)`).
[[nodiscard]] bool has_receiver(const std::vector<Token>& t, std::size_t i) {
  return i > 0 && (t[i - 1].is(".") || t[i - 1].is("->"));
}

// ---------------------------------------------------------------------------
// codec-symmetry

void check_codec_symmetry(const Model& model, std::vector<Diagnostic>& diags) {
  for (const auto& [name, cls] : model.classes) {
    if (name.empty() || !model.derives_from(name)) continue;
    const bool has_enc = !model.methods_named(cls, "encode").empty();
    const bool has_dec = !model.methods_named(cls, "decode").empty();
    if (has_enc && !has_dec && cls.file != nullptr) {
      emit(*cls.file, cls.line, 1, "codec-symmetry",
           "class '" + name +
               "' overrides encode() but not decode(); the model checker's "
               "snapshot restore would silently fall back to "
               "Process::decode",
           diags);
    }
    if (has_dec && !has_enc && cls.file != nullptr) {
      emit(*cls.file, cls.line, 1, "codec-symmetry",
           "class '" + name +
               "' overrides decode() but not encode(); snapshots taken via "
               "the inherited encode() cannot carry the state decode() "
               "restores",
           diags);
    }
    for (const MethodInfo* m : model.methods_named(cls, "decode")) {
      if (!m->has_body || m->file == nullptr) continue;
      const std::vector<Token>& t = m->file->tokens;
      std::size_t call_idx = m->body_end;
      for (std::size_t i = m->body_begin; i < m->body_end; ++i) {
        if (is_call(t, i) && t[i].is("decode_spec_vars")) {
          call_idx = i;
          break;
        }
      }
      if (call_idx == m->body_end) {
        emit(*m->file, m->line, 1, "codec-symmetry",
             "decode() must restore the spec variables via "
             "decode_spec_vars before reading its own fields",
             diags);
        continue;
      }
      for (std::size_t i = m->body_begin; i < call_idx; ++i) {
        if (is_member_ident(t[i]) || t[i].is("this")) {
          emit(*m->file, t[i].line, t[i].col, "codec-symmetry",
               "decode() touches '" + std::string(t[i].text) +
                   "' before decode_spec_vars has restored the spec "
                   "variables",
               diags);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// guard-purity

void check_guard_purity(const Model& model, std::vector<Diagnostic>& diags) {
  static const std::set<std::string_view> kContextOps = {"consume", "send",
                                                         "note_action"};
  static const std::set<std::string_view> kSpecMutators = {
      "declare_leader", "set_leader_label", "set_done", "halt_self"};
  static const std::set<std::string_view> kAssignOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};

  for (const auto& [name, cls] : model.classes) {
    if (name.empty() || !model.derives_from(name)) continue;
    std::set<std::pair<std::string, std::uint32_t>> seen;
    for (const MethodInfo* m : model.methods_named(cls, "enabled")) {
      if (m->file == nullptr) continue;
      if (!m->is_const && seen.insert({m->file->path, m->line}).second) {
        emit(*m->file, m->line, 1, "guard-purity",
             "enabled() must be declared const: guards are side-effect "
             "free (model §II)",
             diags);
      }
      if (!m->has_body) continue;
      const std::vector<Token>& t = m->file->tokens;
      for (std::size_t i = m->body_begin; i < m->body_end; ++i) {
        const Token& tok = t[i];
        if (is_call(t, i)) {
          if (kContextOps.count(tok.text) > 0) {
            emit(*m->file, tok.line, tok.col, "guard-purity",
                 "enabled() calls Context::" + std::string(tok.text) +
                     "(); guards may only inspect state, never "
                     "consume/send/label",
                 diags);
          } else if (!has_receiver(t, i) &&
                     kSpecMutators.count(tok.text) > 0) {
            emit(*m->file, tok.line, tok.col, "guard-purity",
                 "enabled() calls the spec mutator " +
                     std::string(tok.text) + "()",
                 diags);
          } else if (!has_receiver(t, i) &&
                     model.has_nonconst_method(cls, std::string(tok.text))) {
            emit(*m->file, tok.line, tok.col, "guard-purity",
                 "enabled() calls the non-const member '" +
                     std::string(tok.text) + "'",
                 diags);
          }
          continue;
        }
        if (tok.is("const_cast")) {
          emit(*m->file, tok.line, tok.col, "guard-purity",
               "enabled() casts away const", diags);
          continue;
        }
        // Member mutation: `x_ = ...`, `this->x = ...`, `x_[i] = ...`,
        // `++x_`, `x_--`, and compound assignments.
        const bool is_assign =
            tok.kind == TokKind::kPunct && kAssignOps.count(tok.text) > 0;
        const bool is_incdec = tok.is("++") || tok.is("--");
        if (!is_assign && !is_incdec) continue;
        std::size_t lhs = i;  // find the mutated operand's identifier
        bool member = false;
        if (lhs > 0 && t[lhs - 1].is("]")) {
          std::size_t depth = 0;
          while (lhs > 0) {
            --lhs;
            if (t[lhs].is("]")) ++depth;
            if (t[lhs].is("[") && --depth == 0) break;
          }
        }
        if (lhs > 0 && is_member_ident(t[lhs - 1])) member = true;
        if (lhs > 2 && t[lhs - 2].is("->") && t[lhs - 3].is("this")) {
          member = true;
        }
        if (is_incdec && i + 1 < m->body_end &&
            (is_member_ident(t[i + 1]) ||
             (t[i + 1].is("this") && i + 3 < m->body_end &&
              t[i + 2].is("->")))) {
          member = true;
        }
        if (member) {
          emit(*m->file, tok.line, tok.col, "guard-purity",
               "enabled() mutates a member; guards are side-effect free",
               diags);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// consume-discipline

class ConsumePathAnalyzer {
 public:
  ConsumePathAnalyzer(const SourceFile& file, std::size_t begin,
                      std::size_t end)
      : t_(file.tokens), end_(end), pos_(begin) {}

  [[nodiscard]] ConsumeSummary run() {
    const Paths p = parse_seq(end_);
    ConsumeSummary s;
    s.in_loop = in_loop_;
    s.max_on_path = static_cast<std::size_t>(
        std::max({p.cont, p.brk, p.ret, 0}));
    return s;
  }

 private:
  /// Max consume() calls along paths that fall through / break-or-continue
  /// out / return out of the construct; -1 = no such path.
  struct Paths {
    int cont = 0;
    int brk = -1;
    int ret = -1;
  };

  [[nodiscard]] bool at(std::string_view s) const {
    return pos_ < end_ && t_[pos_].is(s);
  }

  /// Counts consume() calls in [from, to); flags loop containment.
  int count_consumes(std::size_t from, std::size_t to) {
    int n = 0;
    for (std::size_t i = from; i < to; ++i) {
      if (t_[i].is("consume") && i + 1 < to && t_[i + 1].is("(")) {
        ++n;
        if (loop_depth_ > 0) in_loop_ = true;
      }
    }
    return n;
  }

  std::size_t skip_match(std::size_t i, std::string_view open,
                         std::string_view close) {
    std::size_t depth = 0;
    for (; i < end_; ++i) {
      if (t_[i].is(open)) ++depth;
      if (t_[i].is(close) && --depth == 0) return i + 1;
    }
    return i;
  }

  /// Consumes one statement starting at pos_.
  Paths parse_stmt() {
    if (at("{")) {
      const std::size_t close = skip_match(pos_, "{", "}");
      const std::size_t save = pos_;
      pos_ = save + 1;
      const Paths p = parse_seq(close - 1);
      pos_ = close;
      return p;
    }
    if (at("if")) {
      ++pos_;
      if (at("constexpr")) ++pos_;
      const std::size_t cond_begin = pos_;
      pos_ = skip_match(pos_, "(", ")");
      const int c0 = count_consumes(cond_begin, pos_);
      const Paths a = parse_stmt();
      Paths b{0, -1, -1};
      if (at("else")) {
        ++pos_;
        b = parse_stmt();
      }
      Paths r;
      r.cont = std::max(a.cont, b.cont);
      if (r.cont >= 0) r.cont += c0;
      r.brk = std::max(a.brk, b.brk);
      if (r.brk >= 0) r.brk += c0;
      r.ret = std::max(a.ret, b.ret);
      if (r.ret >= 0) r.ret += c0;
      return r;
    }
    if (at("while") || at("for")) {
      ++pos_;
      const std::size_t head_begin = pos_;
      pos_ = skip_match(pos_, "(", ")");
      ++loop_depth_;
      const int head = count_consumes(head_begin, pos_);
      const Paths body = parse_stmt();
      --loop_depth_;
      Paths r;
      r.cont = head + std::max({body.cont, body.brk, 0});
      if (body.ret >= 0) r.ret = head + body.ret;
      return r;
    }
    if (at("do")) {
      ++pos_;
      ++loop_depth_;
      const Paths body = parse_stmt();
      --loop_depth_;
      if (at("while")) {
        ++pos_;
        const std::size_t head_begin = pos_;
        pos_ = skip_match(pos_, "(", ")");
        count_consumes(head_begin, pos_);
      }
      if (at(";")) ++pos_;
      Paths r;
      r.cont = std::max({body.cont, body.brk, 0});
      r.ret = body.ret;
      return r;
    }
    if (at("switch")) {
      ++pos_;
      const std::size_t cond_begin = pos_;
      pos_ = skip_match(pos_, "(", ")");
      const int c0 = count_consumes(cond_begin, pos_);
      Paths r;
      if (!at("{")) return r;
      const std::size_t close = skip_match(pos_, "{", "}");
      ++pos_;
      // Each case/default label opens a segment; statements within a
      // segment combine sequentially, segments combine as alternatives.
      // `break` exits the switch. Fallthrough between consuming cases is
      // not modeled (§II actions do not rely on it), and a switch whose
      // every segment terminates — with a default present — has no
      // fall-out path at all (Peterson's relay switch ends in
      // `default: HRING_ASSERT(false);`).
      bool has_default = false;
      int best = -1;      // max consumes on a fall-out or break path
      int best_ret = -1;  // max consumes on a return path
      int running = 0;    // current segment; -1 once it terminated
      int seg_stmts = 0;  // adjacent labels share one (empty) segment
      while (pos_ < close - 1) {
        if (at("case") || at("default")) {
          has_default |= at("default");
          if (seg_stmts > 0 && running >= 0) best = std::max(best, running);
          running = 0;
          seg_stmts = 0;
          while (pos_ < close - 1 && !at(":")) ++pos_;
          ++pos_;
          continue;
        }
        const std::size_t before = pos_;
        const std::size_t saved_end = end_;
        end_ = close - 1;
        const Paths s = parse_stmt();
        end_ = saved_end;
        if (pos_ == before) {  // safety: always make progress
          ++pos_;
          continue;
        }
        ++seg_stmts;
        if (running < 0) continue;  // dead code after a terminator
        if (s.ret >= 0) best_ret = std::max(best_ret, running + s.ret);
        if (s.brk >= 0) best = std::max(best, running + s.brk);
        running = s.cont >= 0 ? running + s.cont : -1;
      }
      pos_ = close;
      if (seg_stmts > 0 && running >= 0) best = std::max(best, running);
      if (!has_default) best = std::max(best, 0);  // no-matching-label path
      r.cont = best >= 0 ? c0 + best : -1;
      if (best_ret >= 0) r.ret = c0 + best_ret;
      return r;
    }
    if (at("return")) {
      const std::size_t begin = pos_;
      pos_ = skip_expression_to_semicolon();
      return {-1, -1, count_consumes(begin, pos_)};
    }
    if (at("break") || at("continue")) {
      ++pos_;
      if (at(";")) ++pos_;
      return {-1, 0, -1};
    }
    if (at("else") || at(";")) {  // stray
      ++pos_;
      return {0, -1, -1};
    }
    if (at("throw")) {
      pos_ = skip_expression_to_semicolon();
      return {-1, -1, -1};
    }
    // Expression / declaration statement.
    const std::size_t begin = pos_;
    pos_ = skip_expression_to_semicolon();
    if (is_noreturn_stmt(begin, pos_)) return {-1, -1, -1};
    return {count_consumes(begin, pos_), -1, -1};
  }

  /// True for statements that provably never complete: `HRING_ASSERT(false)`
  /// and friends (always-on, [[noreturn]] on failure — support/assert.hpp),
  /// plain aborts, and unreachable markers. These terminate a control-flow
  /// path exactly like a return does.
  [[nodiscard]] bool is_noreturn_stmt(std::size_t begin,
                                      std::size_t end) const {
    for (std::size_t i = begin; i < end; ++i) {
      const Token& tok = t_[i];
      if (!tok.is_ident()) continue;
      if (tok.is("HRING_ASSERT") || tok.is("HRING_EXPECTS") ||
          tok.is("HRING_ENSURES")) {
        return i + 2 < end && t_[i + 1].is("(") && t_[i + 2].is("false") &&
               i + 3 < end && t_[i + 3].is(")");
      }
      if (tok.is("abort") || tok.is("assert_fail") ||
          tok.is("__builtin_unreachable") || tok.is("unreachable") ||
          tok.is("exit") || tok.is("_Exit") || tok.is("terminate")) {
        return i + 1 < end && t_[i + 1].is("(");
      }
      return false;  // first identifier decides
    }
    return false;
  }

  std::size_t skip_expression_to_semicolon() {
    std::size_t i = pos_;
    while (i < end_) {
      if (t_[i].is("(")) {
        i = skip_match(i, "(", ")");
        continue;
      }
      if (t_[i].is("{")) {
        i = skip_match(i, "{", "}");
        continue;
      }
      if (t_[i].is(";")) return i + 1;
      ++i;
    }
    return i;
  }

  Paths parse_seq(std::size_t end) {
    int running = 0;
    int brk = -1;
    int ret = -1;
    while (pos_ < end) {
      const std::size_t before = pos_;
      const std::size_t saved_end = end_;
      end_ = end;
      const Paths r = parse_stmt();
      end_ = saved_end;
      if (pos_ == before) {  // safety: always make progress
        ++pos_;
        continue;
      }
      if (r.ret >= 0) ret = std::max(ret, running + r.ret);
      if (r.brk >= 0) brk = std::max(brk, running + r.brk);
      if (r.cont >= 0) {
        running += r.cont;
      } else {
        pos_ = end;
        return {-1, brk, ret};
      }
    }
    return {running, brk, ret};
  }

  const std::vector<Token>& t_;
  std::size_t end_;
  std::size_t pos_;
  int loop_depth_ = 0;
  bool in_loop_ = false;
};

void check_consume_discipline(const Model& model,
                              std::vector<Diagnostic>& diags) {
  for (const auto& [name, cls] : model.classes) {
    if (name.empty() || !model.derives_from(name)) continue;
    for (const MethodInfo* m : model.methods_named(cls, "fire")) {
      if (!m->has_body || m->file == nullptr) continue;
      const ConsumeSummary s =
          analyze_consume_paths(*m->file, m->body_begin, m->body_end);
      if (s.in_loop) {
        emit(*m->file, m->line, 1, "consume-discipline",
             "fire() calls consume() inside a loop; an action receives "
             "the head message at most once",
             diags);
      }
      if (s.max_on_path > 1) {
        emit(*m->file, m->line, 1, "consume-discipline",
             "fire() may call consume() " + std::to_string(s.max_on_path) +
                 " times on one path; the model's rcv happens exactly once "
                 "per action",
             diags);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// hot-path-alloc

void scan_body_for_allocations(const MethodInfo& m, const std::string& where,
                               std::vector<Diagnostic>& diags) {
  static const std::set<std::string_view> kAllocatingTypes = {
      "string",        "vector",       "deque",
      "list",          "map",          "multimap",
      "set",           "multiset",     "unordered_map",
      "unordered_set", "function",     "ostringstream",
      "stringstream",  "istringstream", "basic_string",
      "LabelSequence"};
  static const std::set<std::string_view> kAllocatingCalls = {
      "to_string", "make_unique", "make_shared", "substr"};

  const std::vector<Token>& t = m.file->tokens;
  for (std::size_t i = m.body_begin; i < m.body_end; ++i) {
    const Token& tok = t[i];
    if (tok.is("new")) {
      emit(*m.file, tok.line, tok.col, "hot-path-alloc",
           "operator new in " + where +
               "; the firing path must stay allocation-free",
           diags);
      continue;
    }
    if (!tok.is_ident()) continue;
    if (kAllocatingCalls.count(tok.text) > 0 && i + 1 < m.body_end &&
        (t[i + 1].is("(") || t[i + 1].is("<"))) {
      emit(*m.file, tok.line, tok.col, "hot-path-alloc",
           "call to allocating '" + std::string(tok.text) + "' in " + where,
           diags);
      continue;
    }
    if (kAllocatingTypes.count(tok.text) == 0) continue;
    if (i == 0 || !t[i - 1].is("::")) continue;  // qualified uses only
    // Skip template arguments, then decide from the following token
    // whether this names a by-value construction or declaration.
    std::size_t j = i + 1;
    if (j < m.body_end && t[j].is("<")) {
      std::size_t depth = 0;
      for (; j < m.body_end; ++j) {
        if (t[j].is("<")) ++depth;
        if (t[j].is(">") && --depth == 0) {
          ++j;
          break;
        }
        if (t[j].is(">>")) {
          if (depth <= 2) {
            ++j;
            break;
          }
          depth -= 2;
        }
      }
    }
    if (j >= m.body_end) continue;
    if (t[j].is_ident() || t[j].is("(") || t[j].is("{")) {
      emit(*m.file, tok.line, tok.col, "hot-path-alloc",
           "constructs allocating type '" + std::string(tok.text) +
               "' in " + where,
           diags);
    }
  }
}

void check_hot_path_alloc(const Model& model, std::vector<Diagnostic>& diags) {
  for (const auto& [name, cls] : model.classes) {
    const bool guarded = !name.empty() && model.derives_from(name);
    for (const MethodInfo& m : cls.methods) {
      if (m.file == nullptr || !m.has_body) continue;
      const bool action_body =
          guarded && (m.name == "enabled" || m.name == "fire");
      if (action_body) {
        scan_body_for_allocations(
            m, m.name == "enabled" ? "enabled() (guard)" : "fire() (action)",
            diags);
      } else if (m.hot_path) {
        scan_body_for_allocations(m, "'" + m.name + "' (hring-lint: hot-path)",
                                  diags);
      }
    }
  }
}

}  // namespace

void emit_diag(const SourceFile& file, std::uint32_t line, std::uint32_t col,
               const std::string& check, std::string message,
               std::vector<Diagnostic>& diags) {
  emit(file, line, col, check, std::move(message), diags);
}

ConsumeSummary analyze_consume_paths(const SourceFile& file,
                                     std::size_t body_begin,
                                     std::size_t body_end) {
  ConsumePathAnalyzer analyzer(file, body_begin, body_end);
  return analyzer.run();
}

void run_checks(const Model& model, const std::vector<std::string>& checks,
                std::vector<Diagnostic>& diags) {
  for (const std::string& check : checks) {
    if (check == "codec-symmetry") check_codec_symmetry(model, diags);
    if (check == "guard-purity") check_guard_purity(model, diags);
    if (check == "consume-discipline") check_consume_discipline(model, diags);
    if (check == "hot-path-alloc") check_hot_path_alloc(model, diags);
    if (check == "space-bound") check_space_bound(model, diags);
    if (check == "alphabet-closure") check_alphabet_closure(model, diags);
    if (check == "atomics-discipline") check_atomics_discipline(model, diags);
    if (check == "spsc-ownership") check_spsc_ownership(model, diags);
    if (check == "pairing") check_pairing(model, diags);
    if (check == "lost-wakeup") check_lost_wakeup(model, diags);
    if (check == "no-block-in-hot-path") {
      check_no_block_in_hot_path(model, diags);
    }
    if (check == "decode-before-trust") {
      check_decode_before_trust(model, diags);
    }
  }
  sort_diagnostics(diags);
}

}  // namespace hring::lint
