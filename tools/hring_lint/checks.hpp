// The four protocol checks (see docs/STATIC_ANALYSIS.md for the contract
// each one enforces and the bug class it targets):
//
//   codec-symmetry     encode()/decode() overrides must come in pairs, and
//                      decode() must restore the spec variables (via
//                      decode_spec_vars) before touching its own fields.
//   guard-purity       enabled() must be side-effect free (§II): const,
//                      no Context ops, no member mutation, no non-const
//                      same-class calls.
//   consume-discipline fire() consumes the head message at most once on
//                      any path and never inside a loop.
//   hot-path-alloc     enabled()/fire() and `// hring-lint: hot-path`
//                      annotated functions must not allocate.
//
// The three IR-level checks (space-bound, alphabet-closure,
// atomics-discipline) live in protocol_model.hpp, and the five
// concurrency-discipline checks (spsc-ownership, pairing, lost-wakeup,
// no-block-in-hot-path, decode-before-trust) live in
// concurrency_model.hpp; both sets are dispatched from run_checks
// alongside the token-level ones.
//
// Suppression: a `// hring-nolint(<check>)` (or bare `// hring-nolint`)
// comment on the diagnosed line.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "diagnostics.hpp"
#include "source_model.hpp"

namespace hring::lint {

/// Every check, in roster order.
[[nodiscard]] const std::vector<std::string>& all_check_names();

/// Runs `checks` (names from all_check_names()) over the model and appends
/// findings. Suppressed findings (hring-nolint) are dropped here. Returns
/// the number of sites each check examined, in that check's own unit
/// (docs/STATIC_ANALYSIS.md).
std::map<std::string, std::size_t> run_checks(
    const Model& model, const std::vector<std::string>& checks,
    std::vector<Diagnostic>& diags);

/// True when an `hring-nolint` comment on `line` names `check`, or no
/// check at all.
[[nodiscard]] bool suppressed(const SourceFile& file, std::uint32_t line,
                              std::string_view check);

/// Appends a diagnostic unless suppressed() holds for the diagnosed line.
/// Shared by every check.
void emit_diag(const SourceFile& file, std::uint32_t line, std::uint32_t col,
               const std::string& check, std::string message,
               std::vector<Diagnostic>& diags);

/// Exposed for the unit tests: the maximum number of consume() calls on
/// any control-flow path through the body token range, with loop-carried
/// consumes reported via `in_loop`. A fold over build_stmt_tree
/// (concurrency_model.hpp).
struct ConsumeSummary {
  std::size_t max_on_path = 0;
  bool in_loop = false;
};
[[nodiscard]] ConsumeSummary analyze_consume_paths(const SourceFile& file,
                                                   std::size_t body_begin,
                                                   std::size_t body_end);

}  // namespace hring::lint
