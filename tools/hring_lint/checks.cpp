#include "checks.hpp"

#include <algorithm>
#include <set>
#include <string_view>

#include "concurrency_model.hpp"
#include "protocol_model.hpp"

namespace hring::lint {
namespace {

[[nodiscard]] bool is_member_ident(const Token& tok) {
  return tok.is_ident() && tok.text.size() > 1 && tok.text.back() == '_';
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

std::size_t check_codec_symmetry(const Model& model,
                                 std::vector<Diagnostic>& diags) {
  std::size_t classes = 0;
  for (const auto& [name, cls] : model.classes) {
    if (name.empty() || !model.derives_from(name)) continue;
    ++classes;
    const bool has_enc = !model.methods_named(cls, "encode").empty();
    const bool has_dec = !model.methods_named(cls, "decode").empty();
    if (has_enc && !has_dec && cls.file != nullptr) {
      emit_diag(*cls.file, cls.line, 1, "codec-symmetry",
                "class '" + name +
                    "' overrides encode() but not decode(); the model "
                    "checker's snapshot restore would silently fall back to "
                    "Process::decode",
                diags);
    }
    if (has_dec && !has_enc && cls.file != nullptr) {
      emit_diag(*cls.file, cls.line, 1, "codec-symmetry",
                "class '" + name +
                    "' overrides decode() but not encode(); snapshots taken "
                    "via the inherited encode() cannot carry the state "
                    "decode() restores",
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
        emit_diag(*m->file, m->line, 1, "codec-symmetry",
                  "decode() must restore the spec variables via "
                  "decode_spec_vars before reading its own fields",
                  diags);
        continue;
      }
      for (std::size_t i = m->body_begin; i < call_idx; ++i) {
        if (is_member_ident(t[i]) || t[i].is("this")) {
          emit_diag(*m->file, t[i].line, t[i].col, "codec-symmetry",
                    "decode() touches '" + std::string(t[i].text) +
                        "' before decode_spec_vars has restored the spec "
                        "variables",
                    diags);
        }
      }
    }
  }
  return classes;
}

// ---------------------------------------------------------------------------
// guard-purity

std::size_t check_guard_purity(const Model& model,
                               std::vector<Diagnostic>& diags) {
  static const std::set<std::string_view> kContextOps = {"consume", "send",
                                                         "note_action"};
  static const std::set<std::string_view> kSpecMutators = {
      "declare_leader", "set_leader_label", "set_done", "halt_self"};
  static const std::set<std::string_view> kAssignOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};

  std::size_t bodies = 0;
  for (const auto& [name, cls] : model.classes) {
    if (name.empty() || !model.derives_from(name)) continue;
    std::set<std::pair<std::string, std::uint32_t>> seen;
    for (const MethodInfo* m : model.methods_named(cls, "enabled")) {
      if (m->file == nullptr) continue;
      if (!m->is_const && seen.insert({m->file->path, m->line}).second) {
        emit_diag(*m->file, m->line, 1, "guard-purity",
                  "enabled() must be declared const: guards are side-effect "
                  "free (model §II)",
                  diags);
      }
      if (!m->has_body) continue;
      ++bodies;
      const std::vector<Token>& t = m->file->tokens;
      for (std::size_t i = m->body_begin; i < m->body_end; ++i) {
        const Token& tok = t[i];
        if (is_call(t, i)) {
          if (kContextOps.count(tok.text) > 0) {
            emit_diag(*m->file, tok.line, tok.col, "guard-purity",
                      "enabled() calls Context::" + std::string(tok.text) +
                          "(); guards may only inspect state, never "
                          "consume/send/label",
                      diags);
          } else if (!has_receiver(t, i) &&
                     kSpecMutators.count(tok.text) > 0) {
            emit_diag(*m->file, tok.line, tok.col, "guard-purity",
                      "enabled() calls the spec mutator " +
                          std::string(tok.text) + "()",
                      diags);
          } else if (!has_receiver(t, i) &&
                     model.has_nonconst_method(cls, std::string(tok.text))) {
            emit_diag(*m->file, tok.line, tok.col, "guard-purity",
                      "enabled() calls the non-const member '" +
                          std::string(tok.text) + "'",
                      diags);
          }
          continue;
        }
        if (tok.is("const_cast")) {
          emit_diag(*m->file, tok.line, tok.col, "guard-purity",
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
          emit_diag(*m->file, tok.line, tok.col, "guard-purity",
                    "enabled() mutates a member; guards are side-effect free",
                    diags);
        }
      }
    }
  }
  return bodies;
}

// ---------------------------------------------------------------------------
// consume-discipline

/// Most consume() calls along the paths that fall through, break or
/// continue out, and return out of a statement; -1 = no such path.
struct Paths {
  int cont = 0;
  int brk = -1;
  int ret = -1;
};

/// The consume-path analysis as a fold over build_stmt_tree.
class ConsumeFold {
 public:
  explicit ConsumeFold(const std::vector<Token>& t) : t_(t) {}

  Paths stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::kBlock:
        return block(s);
      case Stmt::Kind::kIf:
        return branch(s);
      case Stmt::Kind::kLoop:
        return loop(s);
      case Stmt::Kind::kSwitch:
        return cases(s);
      case Stmt::Kind::kReturn:
        return {-1, -1, scan(s.begin, s.end)};
      case Stmt::Kind::kJump:
        if (t_[s.begin].is("throw")) return {-1, -1, -1};
        if (!t_[s.begin].is("goto")) return {-1, 0, -1};
        break;  // goto counts as an expression
      case Stmt::Kind::kExpr:
      case Stmt::Kind::kLabel:
        break;
    }
    if (is_noreturn_stmt(s.begin, s.end)) return {-1, -1, -1};
    return {scan(s.begin, s.end), -1, -1};
  }

  bool in_loop = false;

 private:
  /// Counts consume() calls in [from, to); flags loop containment.
  int scan(std::size_t from, std::size_t to) {
    int n = 0;
    for (std::size_t i = from; i < to; ++i) {
      if (t_[i].is("consume") && i + 1 < to && t_[i + 1].is("(")) {
        ++n;
        if (loop_depth_ > 0) in_loop = true;
      }
    }
    return n;
  }

  /// Statements in sequence; those after a terminator are dead, unscanned.
  Paths block(const Stmt& s) {
    Paths r;
    for (const Stmt& child : s.children) {
      const Paths p = stmt(child);
      if (p.ret >= 0) r.ret = std::max(r.ret, r.cont + p.ret);
      if (p.brk >= 0) r.brk = std::max(r.brk, r.cont + p.brk);
      if (p.cont < 0) return {-1, r.brk, r.ret};
      r.cont += p.cont;
    }
    return r;
  }

  Paths branch(const Stmt& s) {
    const int c0 = scan(s.cond_begin, s.cond_end);
    const Paths a = stmt(s.children[0]);
    const Paths b = s.children.size() > 1 ? stmt(s.children[1]) : Paths{};
    const auto join = [c0](int x, int y) {
      const int m = std::max(x, y);
      return m >= 0 ? m + c0 : m;
    };
    return {join(a.cont, b.cont), join(a.brk, b.brk), join(a.ret, b.ret)};
  }

  /// A do-while condition is scanned outside the loop and never counted.
  Paths loop(const Stmt& s) {
    const bool is_do = t_[s.begin].is("do");
    ++loop_depth_;
    const int head = is_do ? 0 : scan(s.cond_begin, s.cond_end);
    const Paths body = stmt(s.children[0]);
    --loop_depth_;
    if (is_do) scan(s.cond_begin, s.cond_end);
    return {head + std::max({body.cont, body.brk, 0}), -1,
            body.ret >= 0 ? head + body.ret : -1};
  }

  /// Each case/default label opens a segment; statements within a segment
  /// combine sequentially, segments combine as alternatives, and `break`
  /// exits the switch. Fallthrough between consuming cases is not modeled
  /// (§II actions do not rely on it), and a switch whose every segment
  /// terminates — with a default present — has no fall-out path at all
  /// (Peterson's relay switch ends in `default: HRING_ASSERT(false);`).
  /// Dead statements after a terminator are still scanned.
  Paths cases(const Stmt& s) {
    const int c0 = scan(s.cond_begin, s.cond_end);
    if (s.end == s.cond_end) return {};  // no braced body
    bool has_default = false;
    int best = -1;      // max consumes on a fall-out or break path
    int best_ret = -1;  // max consumes on a return path
    int running = 0;    // current segment; -1 once it terminated
    int seg_stmts = 0;  // adjacent labels share one (empty) segment
    for (const Stmt& child : s.children) {
      if (child.kind == Stmt::Kind::kLabel) {
        has_default |= t_[child.begin].is("default");
        if (seg_stmts > 0 && running >= 0) best = std::max(best, running);
        running = 0;
        seg_stmts = 0;
        continue;
      }
      const Paths p = stmt(child);
      ++seg_stmts;
      if (running < 0) continue;
      if (p.ret >= 0) best_ret = std::max(best_ret, running + p.ret);
      if (p.brk >= 0) best = std::max(best, running + p.brk);
      running = p.cont >= 0 ? running + p.cont : -1;
    }
    if (seg_stmts > 0 && running >= 0) best = std::max(best, running);
    if (!has_default) best = std::max(best, 0);  // no-matching-label path
    return {best >= 0 ? c0 + best : -1, -1,
            best_ret >= 0 ? c0 + best_ret : -1};
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

  const std::vector<Token>& t_;
  int loop_depth_ = 0;
};

std::size_t check_consume_discipline(const Model& model,
                                     std::vector<Diagnostic>& diags) {
  std::size_t bodies = 0;
  for (const auto& [name, cls] : model.classes) {
    if (name.empty() || !model.derives_from(name)) continue;
    for (const MethodInfo* m : model.methods_named(cls, "fire")) {
      if (!m->has_body || m->file == nullptr) continue;
      ++bodies;
      const ConsumeSummary s =
          analyze_consume_paths(*m->file, m->body_begin, m->body_end);
      if (s.in_loop) {
        emit_diag(*m->file, m->line, 1, "consume-discipline",
                  "fire() calls consume() inside a loop; an action receives "
                  "the head message at most once",
                  diags);
      }
      if (s.max_on_path > 1) {
        emit_diag(*m->file, m->line, 1, "consume-discipline",
                  "fire() may call consume() " +
                      std::to_string(s.max_on_path) +
                      " times on one path; the model's rcv happens exactly "
                      "once per action",
                  diags);
      }
    }
  }
  return bodies;
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
      emit_diag(*m.file, tok.line, tok.col, "hot-path-alloc",
                "operator new in " + where +
                    "; the firing path must stay allocation-free",
                diags);
      continue;
    }
    if (!tok.is_ident()) continue;
    if (kAllocatingCalls.count(tok.text) > 0 && i + 1 < m.body_end &&
        (t[i + 1].is("(") || t[i + 1].is("<"))) {
      emit_diag(*m.file, tok.line, tok.col, "hot-path-alloc",
                "call to allocating '" + std::string(tok.text) + "' in " +
                    where,
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
      emit_diag(*m.file, tok.line, tok.col, "hot-path-alloc",
                "constructs allocating type '" + std::string(tok.text) +
                    "' in " + where,
                diags);
    }
  }
}

std::size_t check_hot_path_alloc(const Model& model,
                                 std::vector<Diagnostic>& diags) {
  std::size_t roots = 0;
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
      roots += action_body || m.hot_path ? 1 : 0;
    }
  }
  return roots;
}

}  // namespace

bool suppressed(const SourceFile& file, std::uint32_t line,
                std::string_view check) {
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

void emit_diag(const SourceFile& file, std::uint32_t line, std::uint32_t col,
               const std::string& check, std::string message,
               std::vector<Diagnostic>& diags) {
  if (suppressed(file, line, check)) return;
  diags.push_back({file.path, line, col, check, std::move(message)});
}

ConsumeSummary analyze_consume_paths(const SourceFile& file,
                                     std::size_t body_begin,
                                     std::size_t body_end) {
  ConsumeFold fold(file.tokens);
  const Paths p = fold.stmt(build_stmt_tree(file, body_begin, body_end));
  return {static_cast<std::size_t>(std::max({p.cont, p.brk, p.ret, 0})),
          fold.in_loop};
}

namespace {

using Check = std::size_t (*)(const Model&, std::vector<Diagnostic>&);

const std::vector<std::pair<std::string, Check>>& check_table() {
  static const std::vector<std::pair<std::string, Check>> kChecks = {
      {"codec-symmetry", check_codec_symmetry},
      {"guard-purity", check_guard_purity},
      {"consume-discipline", check_consume_discipline},
      {"hot-path-alloc", check_hot_path_alloc},
      {"space-bound", check_space_bound},
      {"alphabet-closure", check_alphabet_closure},
      {"atomics-discipline", check_atomics_discipline},
      {"spsc-ownership", check_spsc_ownership},
      {"pairing", check_pairing},
      {"lost-wakeup", check_lost_wakeup},
      {"no-block-in-hot-path", check_no_block_in_hot_path},
      {"decode-before-trust", check_decode_before_trust}};
  return kChecks;
}

}  // namespace

const std::vector<std::string>& all_check_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& [name, check] : check_table()) names.push_back(name);
    return names;
  }();
  return kNames;
}

std::map<std::string, std::size_t> run_checks(
    const Model& model, const std::vector<std::string>& checks,
    std::vector<Diagnostic>& diags) {
  std::map<std::string, std::size_t> examined;
  for (const std::string& name : checks) {
    for (const auto& [known, check] : check_table()) {
      if (known == name) examined[name] = check(model, diags);
    }
  }
  sort_diagnostics(diags);
  return examined;
}

}  // namespace hring::lint
