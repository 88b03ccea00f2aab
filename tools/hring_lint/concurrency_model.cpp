#include "concurrency_model.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string_view>

#include "checks.hpp"

namespace hring::lint {
namespace {

using Toks = std::vector<Token>;

/// Trims a comment tail to the annotation's own text: stops at a block
/// comment terminator and trailing whitespace.
[[nodiscard]] std::string_view trim_spec(std::string_view spec) {
  const std::size_t close = spec.find("*/");
  if (close != std::string_view::npos) spec = spec.substr(0, close);
  while (!spec.empty() &&
         std::isspace(static_cast<unsigned char>(spec.back())) != 0) {
    spec.remove_suffix(1);
  }
  return spec;
}

/// Parses a comma-separated role list into `out`. False on any unknown
/// word or an empty list.
[[nodiscard]] bool parse_role_list(std::string_view list, RoleSet& out) {
  bool any = false;
  while (!list.empty()) {
    std::size_t comma = list.find(',');
    std::string_view word = list.substr(0, comma);
    while (!word.empty() &&
           std::isspace(static_cast<unsigned char>(word.front())) != 0) {
      word.remove_prefix(1);
    }
    while (!word.empty() &&
           std::isspace(static_cast<unsigned char>(word.back())) != 0) {
      word.remove_suffix(1);
    }
    const std::optional<Role> role = parse_role(word);
    if (!role.has_value()) return false;
    out.add(*role);
    any = true;
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  return any;
}

/// The declarator name on `line`: the last identifier directly followed
/// by `{`, `=`, `;` or `[` — the shape of every member declaration in
/// this codebase (`std::atomic<std::uint64_t> head_{0};`).
[[nodiscard]] std::string declarator_on_line(const SourceFile& file,
                                             std::uint32_t line) {
  const Toks& t = file.tokens;
  std::string name;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].line != line || !t[i].is_ident()) continue;
    if (t[i + 1].is("{") || t[i + 1].is("=") || t[i + 1].is(";") ||
        t[i + 1].is("[")) {
      name = std::string(t[i].text);
    }
  }
  return name;
}

}  // namespace

// ---------------------------------------------------------------------------
// Roles and annotations

std::optional<Role> parse_role(std::string_view word) {
  if (word == "producer") return Role::kProducer;
  if (word == "consumer") return Role::kConsumer;
  if (word == "coordinator") return Role::kCoordinator;
  if (word == "watchdog") return Role::kWatchdog;
  return std::nullopt;
}

std::string_view role_name(Role role) {
  switch (role) {
    case Role::kProducer: return "producer";
    case Role::kConsumer: return "consumer";
    case Role::kCoordinator: return "coordinator";
    case Role::kWatchdog: return "watchdog";
  }
  return "?";
}

std::string RoleSet::render() const {
  std::string out;
  for (std::size_t i = 0; i < kNumRoles; ++i) {
    const Role r = static_cast<Role>(i);
    if (!contains(r)) continue;
    if (!out.empty()) out += ",";
    out += role_name(r);
  }
  return out;
}

std::optional<Role> function_role(const SourceFile& file,
                                  std::uint32_t line) {
  const Comment* c = find_annotation(file, line, 4, "hring-role:");
  if (c == nullptr) return std::nullopt;
  std::string_view spec = trim_spec(after_marker(c->text, "hring-role:"));
  return parse_role(spec);
}

std::vector<SharedDecl> shared_decls(const SourceFile& file) {
  std::vector<SharedDecl> out;
  for (const Comment& c : file.comments) {
    if (c.text.find("hring-shared:") == std::string_view::npos) continue;
    SharedDecl decl;
    decl.line = c.line;
    decl.member = declarator_on_line(file, c.line);
    if (decl.member.empty()) {
      decl.line = c.line + 1;
      decl.member = declarator_on_line(file, c.line + 1);
    }
    const std::string_view spec =
        trim_spec(after_marker(c.text, "hring-shared:"));
    const std::size_t arrow = spec.find("->");
    if (arrow != std::string_view::npos) {
      decl.has_arrow = true;
      decl.malformed = !parse_role_list(spec.substr(0, arrow), decl.writers) ||
                       !parse_role_list(spec.substr(arrow + 2), decl.readers);
    } else {
      decl.malformed = !parse_role_list(spec, decl.writers);
    }
    if (decl.member.empty()) decl.malformed = true;
    out.push_back(std::move(decl));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statement-path builder

namespace {

class StmtBuilder {
 public:
  StmtBuilder(const SourceFile& file, std::size_t begin, std::size_t end)
      : t_(file.tokens), end_(end), pos_(begin) {}

  [[nodiscard]] Stmt run(std::size_t begin, std::size_t end) {
    Stmt root;
    root.kind = Stmt::Kind::kBlock;
    root.begin = begin;
    root.end = end;
    parse_children(root, end);
    return root;
  }

 private:
  [[nodiscard]] bool at(std::string_view s) const {
    return pos_ < end_ && t_[pos_].is(s);
  }

  /// Parses statements into `parent.children` until `end` (exclusive).
  void parse_children(Stmt& parent, std::size_t end) {
    const std::size_t saved_end = end_;
    end_ = end;
    while (pos_ < end) {
      const std::size_t before = pos_;
      parent.children.push_back(parse_stmt());
      if (pos_ == before) {  // safety: always make progress
        parent.children.pop_back();
        ++pos_;
      }
    }
    end_ = saved_end;
  }

  Stmt parse_stmt() {
    Stmt s;
    s.begin = pos_;
    if (at("{")) {
      const std::size_t close = skip_balanced(t_, pos_, "{", "}", end_);
      s.kind = Stmt::Kind::kBlock;
      ++pos_;
      parse_children(s, close - 1);
      pos_ = close;
      s.end = pos_;
      return s;
    }
    if (at("if")) {
      s.kind = Stmt::Kind::kIf;
      ++pos_;
      if (at("constexpr")) ++pos_;
      s.cond_begin = pos_;
      pos_ = skip_balanced(t_, pos_, "(", ")", end_);
      s.cond_end = pos_;
      s.children.push_back(parse_stmt());
      if (at("else")) {
        ++pos_;
        s.children.push_back(parse_stmt());
      }
      s.end = pos_;
      return s;
    }
    if (at("while") || at("for")) {
      s.kind = Stmt::Kind::kLoop;
      ++pos_;
      s.cond_begin = pos_;
      pos_ = skip_balanced(t_, pos_, "(", ")", end_);
      s.cond_end = pos_;
      s.children.push_back(parse_stmt());
      s.end = pos_;
      return s;
    }
    if (at("do")) {
      s.kind = Stmt::Kind::kLoop;
      ++pos_;
      s.children.push_back(parse_stmt());
      if (at("while")) {
        ++pos_;
        s.cond_begin = pos_;
        pos_ = skip_balanced(t_, pos_, "(", ")", end_);
        s.cond_end = pos_;
      }
      if (at(";")) ++pos_;
      s.end = pos_;
      return s;
    }
    if (at("switch")) {
      s.kind = Stmt::Kind::kSwitch;
      ++pos_;
      s.cond_begin = pos_;
      pos_ = skip_balanced(t_, pos_, "(", ")", end_);
      s.cond_end = pos_;
      if (!at("{")) {
        s.end = pos_;
        return s;
      }
      const std::size_t close = skip_balanced(t_, pos_, "{", "}", end_);
      const std::size_t saved_end = end_;
      end_ = close - 1;
      ++pos_;
      while (pos_ < close - 1) {
        if (at("case") || at("default")) {
          Stmt& label = s.children.emplace_back();
          label.kind = Stmt::Kind::kLabel;
          label.begin = pos_;
          while (pos_ < close - 1 && !at(":")) ++pos_;
          label.end = ++pos_;
          continue;
        }
        const std::size_t before = pos_;
        s.children.push_back(parse_stmt());
        if (pos_ == before) {
          s.children.pop_back();
          ++pos_;
        }
      }
      end_ = saved_end;
      pos_ = close;
      s.end = pos_;
      return s;
    }
    if (at("return")) {
      s.kind = Stmt::Kind::kReturn;
      pos_ = skip_to_semicolon(t_, pos_, end_);
      s.end = pos_;
      return s;
    }
    if (at("break") || at("continue") || at("goto") || at("throw")) {
      s.kind = Stmt::Kind::kJump;
      pos_ = skip_to_semicolon(t_, pos_, end_);
      s.end = pos_;
      return s;
    }
    if (at("else") || at(";")) {  // stray
      s.kind = Stmt::Kind::kExpr;
      ++pos_;
      s.end = pos_;
      return s;
    }
    s.kind = Stmt::Kind::kExpr;
    pos_ = skip_to_semicolon(t_, pos_, end_);
    s.end = pos_;
    return s;
  }

  const Toks& t_;
  std::size_t end_;
  std::size_t pos_;
};

[[nodiscard]] bool stmt_contains(const Stmt& s, std::size_t tok) {
  return tok >= s.begin && tok < s.end;
}

/// Token ranges guaranteed to execute given that `s` begins executing:
/// whole expression/return/jump statements, every child of a block (a
/// child that exits abnormally makes anything sequenced after `s`
/// unreachable, which is exactly the context dominance is queried in),
/// and only the condition of if/loop/switch.
void collect_guaranteed(const Stmt& s,
                        std::vector<std::pair<std::size_t, std::size_t>>& out) {
  switch (s.kind) {
    case Stmt::Kind::kExpr:
    case Stmt::Kind::kReturn:
    case Stmt::Kind::kJump:
      out.emplace_back(s.begin, s.end);
      return;
    case Stmt::Kind::kBlock:
      for (const Stmt& child : s.children) collect_guaranteed(child, out);
      return;
    case Stmt::Kind::kIf:
    case Stmt::Kind::kLoop:
    case Stmt::Kind::kSwitch:
    case Stmt::Kind::kLabel:
      if (s.cond_end > s.cond_begin) {
        out.emplace_back(s.cond_begin, s.cond_end);
      }
      return;
  }
}

[[nodiscard]] bool ranges_intersect(
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
    std::size_t from, std::size_t to) {
  for (const auto& [b, e] : ranges) {
    if (b < to && from < e) return true;
  }
  return false;
}

}  // namespace

Stmt build_stmt_tree(const SourceFile& file, std::size_t begin,
                     std::size_t end) {
  StmtBuilder builder(file, begin, end);
  return builder.run(begin, end);
}

bool loop_enclosed(const Stmt& root, std::size_t tok) {
  if (!stmt_contains(root, tok)) return false;
  if (root.kind == Stmt::Kind::kLoop) return true;
  for (const Stmt& child : root.children) {
    if (stmt_contains(child, tok)) return loop_enclosed(child, tok);
  }
  return false;
}

bool dominated_by_range(const Stmt& root, std::size_t tok, std::size_t from,
                        std::size_t to) {
  if (!stmt_contains(root, tok)) return false;
  std::vector<std::pair<std::size_t, std::size_t>> guaranteed;
  const Stmt* node = &root;
  for (;;) {
    // Conditions evaluate before any branch or body they guard.
    if (node->cond_end > node->cond_begin && tok >= node->cond_end) {
      guaranteed.emplace_back(node->cond_begin, node->cond_end);
    }
    const Stmt* next = nullptr;
    for (const Stmt& child : node->children) {
      if (child.kind != Stmt::Kind::kLabel && stmt_contains(child, tok)) {
        next = &child;
        break;
      }
      // Sequential siblings run to completion before `tok`'s statement
      // begins — but only in a block; if/switch children are alternatives.
      if (node->kind == Stmt::Kind::kBlock) collect_guaranteed(child, guaranteed);
    }
    if (next == nullptr) break;
    node = next;
  }
  // Earlier tokens of the statement (or condition) containing `tok`.
  guaranteed.emplace_back(node->begin, tok);
  return ranges_intersect(guaranteed, from, to);
}

// ---------------------------------------------------------------------------
// Shared scan machinery for the checks

namespace {

[[nodiscard]] std::optional<MemberOp::Kind> op_kind(std::string_view name) {
  if (name == "load") return MemberOp::Kind::kLoad;
  if (name == "store") return MemberOp::Kind::kStore;
  if (name == "exchange" || name == "fetch_add" || name == "fetch_sub" ||
      name == "fetch_and" || name == "fetch_or" || name == "fetch_xor" ||
      name == "compare_exchange_weak" || name == "compare_exchange_strong" ||
      name == "test_and_set") {
    return MemberOp::Kind::kRmw;
  }
  if (name == "wait") return MemberOp::Kind::kWait;
  if (name == "notify_one" || name == "notify_all") {
    return MemberOp::Kind::kNotify;
  }
  return std::nullopt;
}

/// Extracts the memory_order spelled in the argument list [open+1, close).
[[nodiscard]] std::string order_in_args(const Toks& t, std::size_t open,
                                        std::size_t close) {
  for (std::size_t i = open + 1; i + 1 < close; ++i) {
    if (!t[i].is_ident()) continue;
    if (t[i].text == "memory_order" && i + 2 < close && t[i + 1].is("::")) {
      return std::string(t[i + 2].text);
    }
    if (t[i].text.rfind("memory_order_", 0) == 0) {
      return std::string(t[i].text.substr(13));
    }
  }
  return {};
}

/// Names declared std::condition_variable in this file.
[[nodiscard]] std::set<std::string> cv_names_of(const SourceFile& file) {
  const Toks& t = file.tokens;
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].is("condition_variable") && !t[i].is("condition_variable_any")) {
      continue;
    }
    if (t[i + 1].is_ident() && i + 2 < t.size() &&
        (t[i + 2].is(";") || t[i + 2].is("{"))) {
      names.insert(std::string(t[i + 1].text));
    }
  }
  return names;
}

/// Every method body in `model` that lives in `file`.
[[nodiscard]] std::vector<const MethodInfo*> bodies_in_file(
    const Model& model, const SourceFile& file) {
  std::vector<const MethodInfo*> out;
  for (const auto& [name, cls] : model.classes) {
    for (const MethodInfo& m : cls.methods) {
      if (m.has_body && m.file == &file) out.push_back(&m);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MethodInfo* a, const MethodInfo* b) {
              return a->body_begin < b->body_begin;
            });
  return out;
}

}  // namespace

std::set<std::string> atomic_names_of(const SourceFile& file) {
  const Toks& t = file.tokens;
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].is("atomic") || !t[i + 1].is("<")) continue;
    const std::size_t j = skip_angles(t, i + 1);
    if (j < t.size() && t[j].is_ident()) {
      names.insert(std::string(t[j].text));
    }
  }
  return names;
}

void scan_member_ops(const SourceFile& file, std::size_t begin,
                     std::size_t end, const std::set<std::string>& names,
                     std::vector<MemberOp>& out) {
  const Toks& t = file.tokens;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (!t[i].is_ident() || !t[i + 1].is("(")) continue;
    if (i < 2 || (!t[i - 1].is(".") && !t[i - 1].is("->"))) continue;
    if (!t[i - 2].is_ident() ||
        names.count(std::string(t[i - 2].text)) == 0) {
      continue;
    }
    const std::optional<MemberOp::Kind> kind = op_kind(t[i].text);
    if (!kind.has_value()) continue;
    MemberOp op;
    op.kind = *kind;
    op.recv = std::string(t[i - 2].text);
    op.order = order_in_args(t, i + 1, skip_balanced(t, i + 1, "(", ")"));
    op.tok = i;
    op.line = t[i].line;
    op.col = t[i].col;
    out.push_back(std::move(op));
  }
}

// ---------------------------------------------------------------------------
// spsc-ownership

std::size_t check_spsc_ownership(const Model& model,
                                 std::vector<Diagnostic>& diags) {
  std::size_t members = 0;
  for (const SourceFile* file : model.files) {
    // Malformed annotations are findings in their own right: a wrong role
    // word silently disabling enforcement would be worse than a bug.
    for (const Comment& c : file->comments) {
      if (c.text.find("hring-role:") == std::string_view::npos) continue;
      const std::string_view spec =
          trim_spec(after_marker(c.text, "hring-role:"));
      if (!parse_role(spec).has_value()) {
        emit_diag(*file, c.line, 1, "spsc-ownership",
                  "unknown thread role '" + std::string(spec) +
                      "' in hring-role annotation (expected "
                      "producer|consumer|coordinator|watchdog)",
                  diags);
      }
    }
    std::map<std::string, SharedDecl> shared;
    for (SharedDecl& decl : shared_decls(*file)) {
      ++members;
      if (decl.malformed) {
        emit_diag(*file, decl.line, 1, "spsc-ownership",
                  "malformed hring-shared annotation (expected a role list "
                  "or <writers>-><readers> naming "
                  "producer|consumer|coordinator|watchdog, on the member's "
                  "line or the line above)",
                  diags);
        continue;
      }
      shared.emplace(decl.member, std::move(decl));
    }
    if (shared.empty()) continue;
    std::set<std::string> names;
    for (const auto& [member, decl] : shared) names.insert(member);

    for (const MethodInfo* m : bodies_in_file(model, *file)) {
      std::vector<MemberOp> ops;
      scan_member_ops(*file, m->body_begin, m->body_end, names, ops);
      if (ops.empty()) continue;
      const std::optional<Role> role = function_role(*file, m->line);
      for (const MemberOp& op : ops) {
        const SharedDecl& decl = shared.at(op.recv);
        if (!role.has_value()) {
          emit_diag(*file, op.line, op.col, "spsc-ownership",
                    "'" + m->name + "' accesses role-annotated member '" +
                        op.recv +
                        "' but carries no hring-role annotation; ownership "
                        "cannot be attributed",
                    diags);
          continue;
        }
        const std::string rname(role_name(*role));
        if (!decl.has_arrow) {
          // List form: access control only (mutex- or RMW-mediated).
          if (!decl.writers.contains(*role)) {
            emit_diag(*file, op.line, op.col, "spsc-ownership",
                      "role '" + rname + "' may not access '" + op.recv +
                          "' (shared among " + decl.writers.render() + ")",
                      diags);
          }
          continue;
        }
        const bool owner = decl.writers.contains(*role);
        const bool reader = decl.readers.contains(*role);
        switch (op.kind) {
          case MemberOp::Kind::kStore:
            if (!owner) {
              emit_diag(*file, op.line, op.col, "spsc-ownership",
                        "role '" + rname + "' may not store '" + op.recv +
                            "' (owned by " + decl.writers.render() + ")",
                        diags);
            } else if (!op.order.empty() && op.order != "release") {
              emit_diag(*file, op.line, op.col, "spsc-ownership",
                        "publishing store to '" + op.recv +
                            "' must use memory_order_release (got " +
                            op.order + "); the buffer write must "
                            "happen-before the index publication",
                        diags);
            }
            break;
          case MemberOp::Kind::kLoad:
            if (owner) {
              if (!op.order.empty() && op.order != "relaxed") {
                emit_diag(*file, op.line, op.col, "spsc-ownership",
                          "role '" + rname + "' owns '" + op.recv +
                              "'; it reads its own cursor with "
                              "memory_order_relaxed (got " +
                              op.order + ")",
                          diags);
              }
            } else if (reader) {
              if (!op.order.empty() && op.order != "acquire") {
                emit_diag(*file, op.line, op.col, "spsc-ownership",
                          "role '" + rname + "' must load '" + op.recv +
                              "' with memory_order_acquire (got " +
                              op.order + "); it observes " +
                              decl.writers.render() + "'s publication",
                          diags);
              }
            } else {
              emit_diag(*file, op.line, op.col, "spsc-ownership",
                        "role '" + rname + "' may not access '" + op.recv +
                            "' (shared " + decl.writers.render() + "->" +
                            decl.readers.render() + ")",
                        diags);
            }
            break;
          case MemberOp::Kind::kRmw:
            if (!owner) {
              emit_diag(*file, op.line, op.col, "spsc-ownership",
                        "role '" + rname + "' may not modify '" + op.recv +
                            "' (owned by " + decl.writers.render() + ")",
                        diags);
            } else if (!op.order.empty() && op.order != "release" &&
                       op.order != "acq_rel") {
              emit_diag(*file, op.line, op.col, "spsc-ownership",
                        "publishing read-modify-write of '" + op.recv +
                            "' must use memory_order_release or acq_rel "
                            "(got " + op.order + ")",
                        diags);
            }
            break;
          case MemberOp::Kind::kWait:
            if (!reader) {
              emit_diag(*file, op.line, op.col, "spsc-ownership",
                        "role '" + rname + "' may not wait on '" + op.recv +
                            "' (only its readers " + decl.readers.render() +
                            " park)",
                        diags);
            } else if (!op.order.empty() && op.order != "acquire") {
              emit_diag(*file, op.line, op.col, "spsc-ownership",
                        "wait on '" + op.recv +
                            "' must use memory_order_acquire (got " +
                            op.order + ")",
                        diags);
            }
            break;
          case MemberOp::Kind::kNotify:
            if (!owner) {
              emit_diag(*file, op.line, op.col, "spsc-ownership",
                        "role '" + rname + "' may not notify '" + op.recv +
                            "' (only its writers " + decl.writers.render() +
                            " wake observers)",
                        diags);
            }
            break;
        }
      }
    }
  }
  return members;
}

// ---------------------------------------------------------------------------
// pairing

std::size_t check_pairing(const Model& model,
                          std::vector<Diagnostic>& diags) {
  std::size_t examined = 0;
  for (const SourceFile* file : model.files) {
    const std::set<std::string> names = atomic_names_of(*file);
    const Toks& t = file->tokens;
    if (!names.empty()) {
      std::vector<MemberOp> ops;
      scan_member_ops(*file, 0, t.size(), names, ops);
      examined += ops.size();
      // Classify per member. A release-ordered RMW forms a release
      // sequence with the RMWs it reads from, so an acq_rel RMW is its
      // own acquire counterpart across threads.
      struct Sides {
        const MemberOp* release = nullptr;
        const MemberOp* acquire = nullptr;
      };
      std::map<std::string, Sides> members;
      for (const MemberOp& op : ops) {
        Sides& s = members[op.recv];
        const bool rel_order = op.order == "release" ||
                               op.order == "acq_rel" || op.order == "seq_cst";
        const bool acq_order = op.order == "acquire" ||
                               op.order == "acq_rel" || op.order == "seq_cst";
        switch (op.kind) {
          case MemberOp::Kind::kStore:
            if (rel_order && s.release == nullptr) s.release = &op;
            break;
          case MemberOp::Kind::kLoad:
          case MemberOp::Kind::kWait:
            if (acq_order && s.acquire == nullptr) s.acquire = &op;
            break;
          case MemberOp::Kind::kRmw:
            if (rel_order && s.release == nullptr) s.release = &op;
            if (acq_order && s.acquire == nullptr) s.acquire = &op;
            break;
          case MemberOp::Kind::kNotify:
            break;
        }
      }
      for (const auto& [member, s] : members) {
        if (s.release != nullptr && s.acquire == nullptr) {
          emit_diag(*file, s.release->line, s.release->col, "pairing",
                    "release publication of '" + member +
                        "' has no acquire-side observer in this file; "
                        "nothing can synchronize with it (load/wait it "
                        "with memory_order_acquire somewhere, or relax "
                        "the store)",
                    diags);
        }
        if (s.acquire != nullptr && s.release == nullptr) {
          emit_diag(*file, s.acquire->line, s.acquire->col, "pairing",
                    "acquire-side read of '" + member +
                        "' has no release publication in this file; the "
                        "acquire synchronizes with nothing (publish with "
                        "memory_order_release, or relax the load)",
                    diags);
        }
      }
    }
    // Orphaned fences: a standalone release fence needs an acquire fence
    // (or acquire op) on the other thread; one-sided fence use in a file
    // is the smell this diagnoses.
    const MemberOp* rel_fence = nullptr;
    const MemberOp* acq_fence = nullptr;
    std::vector<MemberOp> fence_storage;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!t[i].is("atomic_thread_fence") || !t[i + 1].is("(")) continue;
      MemberOp op;
      op.order = order_in_args(t, i + 1, skip_balanced(t, i + 1, "(", ")"));
      op.line = t[i].line;
      op.col = t[i].col;
      fence_storage.push_back(op);
    }
    examined += fence_storage.size();
    for (const MemberOp& f : fence_storage) {
      if ((f.order == "release" || f.order == "acq_rel" ||
           f.order == "seq_cst") &&
          rel_fence == nullptr) {
        rel_fence = &f;
      }
      if ((f.order == "acquire" || f.order == "acq_rel" ||
           f.order == "seq_cst") &&
          acq_fence == nullptr) {
        acq_fence = &f;
      }
    }
    if (rel_fence != nullptr && acq_fence == nullptr) {
      emit_diag(*file, rel_fence->line, rel_fence->col, "pairing",
                "orphaned release fence: no acquire-side fence in this "
                "file pairs with it",
                diags);
    }
    if (acq_fence != nullptr && rel_fence == nullptr) {
      emit_diag(*file, acq_fence->line, acq_fence->col, "pairing",
                "orphaned acquire fence: no release-side fence in this "
                "file pairs with it",
                diags);
    }
  }
  return examined;
}

// ---------------------------------------------------------------------------
// lost-wakeup

namespace {

[[nodiscard]] bool name_suggests_park(const std::string& name) {
  return name.find("wait") != std::string::npos ||
         name.find("park") != std::string::npos;
}

/// Top-level comma count of the argument list [open+1, close-1].
[[nodiscard]] std::size_t count_top_commas(const Toks& t, std::size_t open,
                                           std::size_t close) {
  std::size_t commas = 0;
  std::size_t depth = 0;
  for (std::size_t i = open + 1; i + 1 < close; ++i) {
    if (t[i].is("(") || t[i].is("[") || t[i].is("{")) ++depth;
    if (t[i].is(")") || t[i].is("]") || t[i].is("}")) --depth;
    if (depth == 0 && t[i].is(",")) ++commas;
  }
  return commas;
}

}  // namespace

std::size_t check_lost_wakeup(const Model& model,
                              std::vector<Diagnostic>& diags) {
  // Pass 1: per-body rules; collect park primitives (methods whose name
  // says wait/park and whose body holds a bare futex wait — the re-check
  // obligation transfers to their callers).
  std::set<std::string> park_primitives;
  std::size_t examined = 0;
  for (const SourceFile* file : model.files) {
    const std::set<std::string> atomics = atomic_names_of(*file);
    const std::set<std::string> cvs = cv_names_of(*file);
    if (atomics.empty() && cvs.empty()) continue;
    const Toks& t = file->tokens;
    for (const MethodInfo* m : bodies_in_file(model, *file)) {
      Stmt tree;
      bool have_tree = false;
      std::vector<MemberOp> ops;
      if (!atomics.empty()) {
        scan_member_ops(*file, m->body_begin, m->body_end, atomics, ops);
      }
      for (const MemberOp& op : ops) {
        if (op.kind == MemberOp::Kind::kWait ||
            op.kind == MemberOp::Kind::kNotify) {
          ++examined;
        }
        if (op.kind == MemberOp::Kind::kWait) {
          if (!have_tree) {
            tree = build_stmt_tree(*file, m->body_begin, m->body_end);
            have_tree = true;
          }
          if (loop_enclosed(tree, op.tok)) continue;
          if (name_suggests_park(m->name)) {
            // A named park primitive: the futex compares against a
            // ticket, not the guard predicate — only callers can
            // re-check, so the loop obligation moves to every call site.
            park_primitives.insert(m->name);
            continue;
          }
          emit_diag(*file, op.line, op.col, "lost-wakeup",
                    "futex wait on '" + op.recv +
                        "' outside a re-check loop; a wakeup between "
                        "predicate check and wait is lost forever",
                    diags);
        }
        if (op.kind == MemberOp::Kind::kNotify) {
          if (!have_tree) {
            tree = build_stmt_tree(*file, m->body_begin, m->body_end);
            have_tree = true;
          }
          bool dominated = false;
          for (const MemberOp& pub : ops) {
            if (pub.recv != op.recv) continue;
            if (pub.kind != MemberOp::Kind::kStore &&
                pub.kind != MemberOp::Kind::kRmw) {
              continue;
            }
            if (dominated_by_range(tree, op.tok, pub.tok, pub.tok + 1)) {
              dominated = true;
              break;
            }
          }
          if (!dominated) {
            emit_diag(*file, op.line, op.col, "lost-wakeup",
                      "doorbell notify on '" + op.recv +
                          "' is not preceded by its publication store on "
                          "every path; a woken consumer would re-check, "
                          "see nothing, and park again",
                      diags);
          }
        }
      }
      // Condition-variable waits must carry a predicate: the two-argument
      // form re-checks after every wakeup by construction.
      for (std::size_t i = m->body_begin; i + 1 < m->body_end; ++i) {
        if (!t[i].is("wait") || !t[i + 1].is("(")) continue;
        if (i < 2 || (!t[i - 1].is(".") && !t[i - 1].is("->"))) continue;
        if (!t[i - 2].is_ident() ||
            cvs.count(std::string(t[i - 2].text)) == 0) {
          continue;
        }
        ++examined;
        const std::size_t close = skip_balanced(t, i + 1, "(", ")");
        if (count_top_commas(t, i + 1, close) == 0) {
          emit_diag(*file, t[i].line, t[i].col, "lost-wakeup",
                    "condition-variable wait without a predicate; spurious "
                    "wakeups and missed notifies require the two-argument "
                    "re-checking form",
                    diags);
        }
      }
    }
  }
  // Pass 2: every call to a park primitive sits inside a re-check loop
  // (unless the caller is itself a park primitive and defers again).
  if (park_primitives.empty()) return examined;
  for (const SourceFile* file : model.files) {
    const Toks& t = file->tokens;
    for (const MethodInfo* m : bodies_in_file(model, *file)) {
      if (name_suggests_park(m->name)) continue;
      Stmt tree;
      bool have_tree = false;
      for (std::size_t i = m->body_begin; i + 1 < m->body_end; ++i) {
        if (!t[i].is_ident() || !t[i + 1].is("(")) continue;
        if (park_primitives.count(std::string(t[i].text)) == 0) continue;
        ++examined;
        if (!have_tree) {
          tree = build_stmt_tree(*file, m->body_begin, m->body_end);
          have_tree = true;
        }
        if (loop_enclosed(tree, i)) continue;
        emit_diag(*file, t[i].line, t[i].col, "lost-wakeup",
                  "call to park primitive '" + std::string(t[i].text) +
                      "' outside a re-check loop; the futex ticket protocol "
                      "requires callers to re-check the predicate and loop",
                  diags);
      }
    }
  }
  return examined;
}

// ---------------------------------------------------------------------------
// no-block-in-hot-path

namespace {

/// Blocking sinks by name: scheduler handoffs, parking syscalls and the
/// C++20 waits (std::latch, std::counting_semaphore, std::thread::join).
[[nodiscard]] bool is_blocking_sink(std::string_view name) {
  static const std::set<std::string_view> kSinks = {
      "sleep_for",       "sleep_until",     "yield",      "usleep",
      "nanosleep",       "sleep",           "futex",      "syscall",
      "poll",            "select",          "epoll_wait", "ppoll",
      "pselect",         "wait",            "wait_for",   "wait_until",
      "arrive_and_wait", "acquire",         "join",       "try_acquire_for",
      "try_acquire_until"};
  return kSinks.count(name) > 0;
}

/// Keywords and call-shaped non-calls excluded from the call graph.
[[nodiscard]] bool is_call_keyword(std::string_view name) {
  static const std::set<std::string_view> kKeywords = {
      "if",           "while",       "for",         "switch",
      "return",       "sizeof",      "alignof",     "alignas",
      "decltype",     "static_cast", "const_cast",  "reinterpret_cast",
      "dynamic_cast", "catch",       "noexcept",    "static_assert",
      "HRING_ASSERT", "HRING_EXPECTS", "HRING_ENSURES"};
  return kKeywords.count(name) > 0;
}

struct CallSite {
  std::string name;
  std::uint32_t line = 0;
  std::uint32_t col = 0;
};

/// Where a method's blocking descent bottoms out, for the diagnostic.
struct SinkInfo {
  std::string chain;  // "send > send_cancelable > sleep_for"
  std::string at;     // "file:line" of the sink call
};

class BlockReach {
 public:
  explicit BlockReach(const Model& model) {
    for (const auto& [cname, cls] : model.classes) {
      for (const MethodInfo& m : cls.methods) {
        if (!m.has_body || m.file == nullptr) continue;
        bodies_[m.name].push_back(&m);
      }
    }
  }

  /// The first blocking sink reachable from `m`'s body, if any. Edges
  /// whose call-site line carries hring-nolint(no-block-in-hot-path) are
  /// by-design blocking and pruned here (with their justification
  /// comments at the call site).
  [[nodiscard]] const std::optional<SinkInfo>& reach(const MethodInfo* m) {
    const auto it = memo_.find(m);
    if (it != memo_.end()) return it->second;
    auto [slot, inserted] =
        memo_.emplace(m, std::nullopt);  // cycle-breaker: in-progress = clean
    std::optional<SinkInfo> found;
    for (const CallSite& call : call_sites(m)) {
      if (suppressed(*m->file, call.line, "no-block-in-hot-path")) continue;
      const auto targets = bodies_.find(call.name);
      // A sink name that resolves to a project-defined body is that body,
      // not the syscall (an engine's select() is algorithm selection);
      // the recursion below judges it by what it actually calls.
      if (targets == bodies_.end()) {
        if (is_blocking_sink(call.name)) {
          SinkInfo info;
          info.chain = call.name;
          info.at = m->file->path + ":" + std::to_string(call.line);
          found = std::move(info);
          break;
        }
        continue;
      }
      bool hit = false;
      for (const MethodInfo* callee : targets->second) {
        if (callee == m) continue;
        const std::optional<SinkInfo>& sub = reach(callee);
        if (sub.has_value()) {
          SinkInfo info;
          info.chain = call.name + " > " + sub->chain;
          info.at = sub->at;
          found = std::move(info);
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
    // Re-find: recursive reach() calls may have rehashed the map.
    memo_[m] = std::move(found);
    (void)slot;
    (void)inserted;
    return memo_[m];
  }

 private:
  [[nodiscard]] std::vector<CallSite> call_sites(const MethodInfo* m) const {
    std::vector<CallSite> out;
    const Toks& t = m->file->tokens;
    for (std::size_t i = m->body_begin; i + 1 < m->body_end; ++i) {
      if (!t[i].is_ident() || !t[i + 1].is("(")) continue;
      if (is_call_keyword(t[i].text)) continue;
      out.push_back({std::string(t[i].text), t[i].line, t[i].col});
    }
    return out;
  }

  std::map<std::string, std::vector<const MethodInfo*>> bodies_;
  std::map<const MethodInfo*, std::optional<SinkInfo>> memo_;
};

}  // namespace

std::size_t check_no_block_in_hot_path(const Model& model,
                                       std::vector<Diagnostic>& diags) {
  BlockReach reach(model);
  std::size_t roots = 0;
  for (const auto& [name, cls] : model.classes) {
    const bool guarded = !name.empty() && model.derives_from(name);
    for (const MethodInfo& m : cls.methods) {
      if (!m.has_body || m.file == nullptr) continue;
      const bool action_root =
          guarded && (m.name == "enabled" || m.name == "fire");
      if (!action_root && !m.hot_path) continue;
      ++roots;
      const std::optional<SinkInfo>& sink = reach.reach(&m);
      if (!sink.has_value()) continue;
      const std::string where =
          action_root ? (m.name == "enabled" ? "enabled() (guard)"
                                             : "fire() (action)")
                      : "'" + m.name + "' (hring-lint: hot-path)";
      emit_diag(*m.file, m.line, 1, "no-block-in-hot-path",
                where + " can reach the blocking call '" + sink->chain +
                    "' (sink at " + sink->at +
                    "); hot paths must stay on-CPU — park via the doorbell "
                    "protocol instead, or justify with "
                    "hring-nolint(no-block-in-hot-path) at the call site",
                diags);
    }
  }
  return roots;
}

// ---------------------------------------------------------------------------
// decode-before-trust

std::size_t check_decode_before_trust(const Model& model,
                                      std::vector<Diagnostic>& diags) {
  // Calls that may receive raw bytes: the trust gate itself plus byte
  // movers that never interpret content.
  static const std::set<std::string_view> kLaundering = {
      "decode",   "encode", "try_peek", "try_read", "try_write",
      "poke_raw", "discard", "memcpy",  "memcmp",   "fill"};
  // Members of the raw buffer that expose size/iterators, not content.
  static const std::set<std::string_view> kShapeMembers = {
      "data", "size", "begin", "end", "max_size", "fill"};

  std::size_t locals = 0;
  for (const SourceFile* file : model.files) {
    const Toks& t = file->tokens;
    for (const MethodInfo* m : bodies_in_file(model, *file)) {
      // The codec is the trust boundary: decode/encode bodies are where
      // raw bytes legitimately become (or came from) structured state.
      if (m->name == "decode" || m->name == "encode") continue;
      // Taint sources: wire::Frame locals and raw byte-buffer locals.
      std::set<std::string> tainted;
      std::set<std::size_t> decl_sites;
      for (std::size_t i = m->body_begin; i + 2 < m->body_end; ++i) {
        if (t[i].is("Frame") && t[i + 1].is_ident() &&
            (t[i + 2].is(";") || t[i + 2].is("{") || t[i + 2].is("="))) {
          tainted.insert(std::string(t[i + 1].text));
          decl_sites.insert(i + 1);
        }
        if (t[i].is("uint8_t")) {
          if (t[i + 1].is_ident() && t[i + 2].is("[")) {
            tainted.insert(std::string(t[i + 1].text));
            decl_sites.insert(i + 1);
          }
          if (t[i + 1].is("*") && t[i + 2].is_ident() &&
              i + 3 < m->body_end && t[i + 3].is("=")) {
            tainted.insert(std::string(t[i + 2].text));
            decl_sites.insert(i + 2);
          }
        }
      }
      locals += decl_sites.size();
      if (tainted.empty()) continue;
      // Sanctioned argument ranges: laundering calls may see raw bytes.
      std::vector<std::pair<std::size_t, std::size_t>> sanctioned;
      for (std::size_t i = m->body_begin; i + 1 < m->body_end; ++i) {
        if (!t[i].is_ident() || !t[i + 1].is("(")) continue;
        if (kLaundering.count(t[i].text) == 0) continue;
        sanctioned.emplace_back(i + 1,
                                skip_balanced(t, i + 1, "(", ")"));
      }
      const auto in_sanctioned = [&](std::size_t i) {
        for (const auto& [b, e] : sanctioned) {
          if (i > b && i < e) return true;
        }
        return false;
      };
      for (std::size_t i = m->body_begin; i < m->body_end; ++i) {
        if (!t[i].is_ident() || tainted.count(std::string(t[i].text)) == 0) {
          continue;
        }
        if (decl_sites.count(i) > 0) continue;
        if (in_sanctioned(i)) continue;
        // Shape queries expose no content.
        if (i + 2 < m->body_end && t[i + 1].is(".") &&
            kShapeMembers.count(t[i + 2].text) > 0) {
          continue;
        }
        // Writes INTO the buffer are fills, not reads: `x = ...`,
        // `x[i] = ...`.
        if (i + 1 < m->body_end && t[i + 1].is("=")) continue;
        if (i + 1 < m->body_end && t[i + 1].is("[")) {
          const std::size_t close = skip_balanced(t, i + 1, "[", "]");
          if (close < m->body_end &&
              (t[close].is("=") || t[close].is("+=") || t[close].is("-=") ||
               t[close].is("|=") || t[close].is("&=") ||
               t[close].is("^="))) {
            continue;
          }
        }
        emit_diag(*file, t[i].line, t[i].col, "decode-before-trust",
                  "raw wire bytes '" + std::string(t[i].text) +
                      "' are read without passing through wire::decode; "
                      "undecoded bytes carry no authority over protocol or "
                      "runtime state",
                  diags);
      }
    }
  }
  return locals;
}

}  // namespace hring::lint
