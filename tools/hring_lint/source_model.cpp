#include "source_model.hpp"

#include <set>

namespace hring::lint {
namespace {

using Toks = std::vector<Token>;

/// Expression contexts in which `ident (` is a call, not a declarator.
bool prev_blocks_declarator(const Token& prev) {
  static const std::set<std::string_view> kDeny = {
      "=",  "(",  ",",  "+",  "-",  "/",  "%",  "!",  "?",  "<",
      ">",  "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", ".",
      "->", "return"};
  return kDeny.count(prev.text) > 0;
}

class Parser {
 public:
  Parser(const SourceFile& file, Model& model)
      : file_(file), t_(file.tokens), model_(model) {}

  void run() { parse_scope(0, t_.size(), nullptr); }

 private:
  ClassInfo& class_entry(const std::string& name, std::uint32_t line) {
    ClassInfo& cls = model_.classes[name];
    if (cls.name.empty()) {
      cls.name = name;
      cls.line = line;
      cls.file = &file_;
    }
    return cls;
  }

  /// Parses the base-specifier list between `:` and `{`; returns the index
  /// of the `{`.
  std::size_t parse_bases(std::size_t i, ClassInfo& cls) {
    std::string last_ident;
    for (; i < t_.size() && t_[i].kind != TokKind::kEof; ++i) {
      const Token& tok = t_[i];
      if (tok.is("{")) break;
      if (tok.is(",")) {
        if (!last_ident.empty()) cls.bases.push_back(last_ident);
        last_ident.clear();
        continue;
      }
      if (tok.is("<")) {
        i = skip_angles(t_, i) - 1;
        continue;
      }
      if (tok.is_ident() && !tok.is("public") && !tok.is("protected") &&
          !tok.is("private") && !tok.is("virtual")) {
        last_ident = std::string(tok.text);
      }
    }
    if (!last_ident.empty()) cls.bases.push_back(last_ident);
    return i;
  }

  /// Parses a member-function candidate anchored at `ident (`; returns the
  /// index to resume from, or `name_idx + 1` when it is not a function.
  std::size_t parse_function(std::size_t name_idx, ClassInfo* cls) {
    const Token& name_tok = t_[name_idx];
    std::string name(name_tok.text);
    std::string owner;  // out-of-line: Cls::name(...)
    if (name_idx >= 2 && t_[name_idx - 1].is("::") &&
        t_[name_idx - 2].is_ident()) {
      owner = std::string(t_[name_idx - 2].text);
    } else if (name_idx >= 1 && t_[name_idx - 1].is("~")) {
      name = "~" + name;
    }
    if (name_idx >= 1 && owner.empty() &&
        prev_blocks_declarator(t_[name_idx - 1])) {
      return name_idx + 1;
    }

    MethodInfo method;
    method.name = name;
    method.line = name_tok.line;
    method.file = &file_;

    std::size_t i = skip_balanced(t_, name_idx + 1, "(", ")");
    // Trailing specifiers: const/noexcept/override/final/ref-qualifiers,
    // then one of `;` (declaration), `{` (body), `:` (ctor-init list),
    // `=` (pure/defaulted/deleted).
    for (;;) {
      const Token& tok = t_[i];
      if (tok.is("const")) {
        method.is_const = true;
        ++i;
      } else if (tok.is("noexcept")) {
        ++i;
        if (t_[i].is("(")) i = skip_balanced(t_, i, "(", ")");
      } else if (tok.is("override")) {
        method.is_override = true;
        ++i;
      } else if (tok.is("final") || tok.is("&") || tok.is("&&") ||
                 tok.is("volatile")) {
        ++i;
      } else if (tok.is("->")) {
        // Trailing return type: runs to the body/terminator.
        ++i;
        while (i < t_.size() && !t_[i].is("{") && !t_[i].is(";") &&
               !t_[i].is("=") && t_[i].kind != TokKind::kEof) {
          if (t_[i].is("<")) {
            i = skip_angles(t_, i);
          } else if (t_[i].is("(")) {
            i = skip_balanced(t_, i, "(", ")");
          } else {
            ++i;
          }
        }
      } else {
        break;
      }
    }
    if (t_[i].is(":")) {
      // Constructor initializer list: `name(args)` or `name{args}` items
      // separated by commas, then the body brace.
      ++i;
      for (;;) {
        while (i < t_.size() && t_[i].kind != TokKind::kEof &&
               !t_[i].is("(") && !t_[i].is("{")) {
          if (t_[i].is("<")) {
            i = skip_angles(t_, i);
            continue;
          }
          ++i;
        }
        if (t_[i].is("(")) {
          i = skip_balanced(t_, i, "(", ")");
        } else if (t_[i].is("{")) {
          // `{` directly after the initializer name is a brace-init item;
          // after `)`/`}` it is the body.
          i = skip_balanced(t_, i, "{", "}");
        } else {
          return i;  // malformed; bail
        }
        if (t_[i].is(",")) {
          ++i;
          continue;
        }
        break;
      }
      // The body brace follows the last initializer.
      if (!t_[i].is("{")) return i;
    }
    if (t_[i].is(";")) {
      record(method, owner, cls);
      return i + 1;
    }
    if (t_[i].is("=")) {  // = 0; / = default; / = delete;
      i = skip_to_semicolon(t_, i);
      record(method, owner, cls);
      return i;
    }
    if (t_[i].is("{")) {
      const std::size_t body_end_excl = skip_balanced(t_, i, "{", "}");
      method.has_body = true;
      method.body_begin = i + 1;
      method.body_end = body_end_excl > 0 ? body_end_excl - 1 : i + 1;
      method.hot_path =
          find_annotation(file_, method.line, 4, "hring-lint: hot-path") !=
          nullptr;
      record(method, owner, cls);
      return body_end_excl;
    }
    return name_idx + 1;  // not a function after all
  }

  void record(MethodInfo& method, const std::string& owner, ClassInfo* cls) {
    if (!owner.empty()) {
      ClassInfo& target = class_entry(owner, method.line);
      target.methods.push_back(std::move(method));
    } else if (cls != nullptr) {
      cls->methods.push_back(std::move(method));
    }
    // Free functions with bodies keep hot-path annotations honored via a
    // synthetic "" class bucket.
    else if (method.has_body) {
      ClassInfo& target = model_.classes[""];
      target.file = &file_;
      target.methods.push_back(std::move(method));
    }
  }

  void parse_scope(std::size_t i, std::size_t end, ClassInfo* cls) {
    while (i < end && t_[i].kind != TokKind::kEof) {
      const Token& tok = t_[i];
      if (tok.is("namespace")) {
        ++i;
        while (i < end && !t_[i].is("{") && !t_[i].is(";")) ++i;
        if (t_[i].is("{")) {
          const std::size_t after = skip_balanced(t_, i, "{", "}");
          parse_scope(i + 1, after - 1, cls);
          i = after;
        } else {
          ++i;
        }
        continue;
      }
      if (tok.is("template")) {
        ++i;
        if (t_[i].is("<")) i = skip_angles(t_, i);
        continue;
      }
      if (tok.is("using") || tok.is("typedef") || tok.is("static_assert") ||
          tok.is("friend")) {
        i = skip_to_semicolon(t_, i);
        continue;
      }
      if (tok.is("enum")) {
        ++i;
        if (t_[i].is("class") || t_[i].is("struct")) ++i;
        std::string enum_name;
        std::uint32_t enum_line = 0;
        if (t_[i].is_ident()) {
          enum_name = std::string(t_[i].text);
          enum_line = t_[i].line;
        }
        while (i < end && !t_[i].is("{") && !t_[i].is(";")) ++i;
        if (t_[i].is("{")) {
          const std::size_t body_end_excl = skip_balanced(t_, i, "{", "}");
          if (!enum_name.empty() && model_.enums.count(enum_name) == 0) {
            EnumInfo info;
            info.name = enum_name;
            info.line = enum_line;
            info.file = &file_;
            // Enumerators are the idents in "expect one" position: right
            // after `{` or a depth-0 `,`. Initializer expressions (after
            // `=`) are skipped to the next depth-0 comma.
            bool expect = true;
            for (std::size_t j = i + 1; j + 1 < body_end_excl; ++j) {
              const Token& et = t_[j];
              if (et.is("(")) {
                j = skip_balanced(t_, j, "(", ")") - 1;
              } else if (et.is("{")) {
                j = skip_balanced(t_, j, "{", "}") - 1;
              } else if (et.is(",")) {
                expect = true;
              } else if (expect && et.is_ident()) {
                info.enumerators.push_back(std::string(et.text));
                expect = false;
              } else {
                expect = false;
              }
            }
            model_.enums.emplace(enum_name, std::move(info));
          }
          i = body_end_excl;
        }
        i = skip_to_semicolon(t_, i);
        continue;
      }
      if (tok.is("class") || tok.is("struct")) {
        ++i;
        while (t_[i].is("[")) {  // attributes
          while (i < end && !t_[i].is("]")) ++i;
          ++i;
        }
        if (!t_[i].is_ident()) {  // anonymous aggregate
          continue;
        }
        // Possibly qualified (`class ExecutionCore::FireContext`): the
        // terminal component names the class.
        std::size_t name_idx = i;
        ++i;
        while (t_[i].is("::") && t_[i + 1].is_ident()) {
          name_idx = i + 1;
          i += 2;
        }
        const Token& name_tok = t_[name_idx];
        if (t_[i].is("final")) ++i;
        if (t_[i].is(";")) {  // forward declaration
          ++i;
          continue;
        }
        if (!t_[i].is(":") && !t_[i].is("{")) {
          continue;  // `class Foo` used as an elaborated type specifier
        }
        ClassInfo& entry =
            class_entry(std::string(name_tok.text), name_tok.line);
        if (t_[i].is(":")) i = parse_bases(i + 1, entry);
        if (t_[i].is("{")) {
          const std::size_t after = skip_balanced(t_, i, "{", "}");
          if (entry.body_file == nullptr) {  // first definition site wins
            entry.body_file = &file_;
            entry.body_begin = i + 1;
            entry.body_end = after > 0 ? after - 1 : i + 1;
            entry.line = name_tok.line;
            entry.file = &file_;
          }
          parse_scope(i + 1, after - 1, &entry);
          i = skip_to_semicolon(t_, after - 1);
        }
        continue;
      }
      if (tok.is_ident() && i + 1 < end && t_[i + 1].is("(")) {
        i = parse_function(i, cls);
        continue;
      }
      if (tok.is("(")) {
        i = skip_balanced(t_, i, "(", ")");
        continue;
      }
      if (tok.is("{")) {
        i = skip_balanced(t_, i, "{", "}");
        continue;
      }
      ++i;
    }
  }

  const SourceFile& file_;
  const Toks& t_;
  Model& model_;
};

}  // namespace

bool Model::derives_from(const std::string& name,
                         const std::string& root) const {
  std::set<std::string> visited;
  std::vector<const std::string*> stack = {&name};
  while (!stack.empty()) {
    const std::string& cur = *stack.back();
    stack.pop_back();
    if (!visited.insert(cur).second) continue;
    const auto it = classes.find(cur);
    if (it == classes.end()) continue;
    for (const std::string& base : it->second.bases) {
      if (base == root) return true;
      stack.push_back(&base);
    }
  }
  return false;
}

std::vector<const MethodInfo*> Model::methods_named(
    const ClassInfo& cls, const std::string& name) const {
  std::vector<const MethodInfo*> out;
  for (const MethodInfo& m : cls.methods) {
    if (m.name == name) out.push_back(&m);
  }
  return out;
}

bool Model::has_nonconst_method(const ClassInfo& cls,
                                const std::string& name) const {
  for (const MethodInfo& m : cls.methods) {
    if (m.name == name && !m.is_const) return true;
  }
  return false;
}

void parse_file(const SourceFile& file, Model& model) {
  model.files.push_back(&file);
  Parser parser(file, model);
  parser.run();
}

}  // namespace hring::lint
