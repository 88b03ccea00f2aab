// Protocol-IR extraction and the IR-level checks (tools/hring_lint).
//
// Layer 4 of the static-analysis stack (docs/STATIC_ANALYSIS.md): a pass
// over the cross-file SourceModel that rebuilds each algorithm's
// guarded-action model as data — state variables with declared bit widths,
// the message-tag alphabet with encode/decode widths, and the guard→fire
// action list — and proves protocol properties over *all* paths that the
// dynamic auditor (core/spec_audit.hpp) can only sample on executed ones.
//
// Annotation grammar (comments read by the extractor):
//
//   // hring-algorithm: <Name> [space=<expr>]
//       Up to four lines above a class definition. Marks the class as an
//       election algorithm named <Name>; the optional space= budget is the
//       paper's closed-form space bound for the algorithm (Theorem 2/4).
//   // hring-state: bits=<expr>
//   // hring-state: excluded(<reason>)
//       On a data member's line or the line directly above it. Declares the
//       member's width in bits, or excludes it from the space accounting
//       (a-priori knowledge, recomputable accelerators, instrumentation).
//   // hring-lint: cold-atomic
//       On an atomic member's line or the line directly above it: the member
//       is not on a worker hot path, so the false-sharing alignas rule of
//       the atomics-discipline check does not apply.
//
// Width expressions are whitespace-free integer expressions over + - * ( )
// and the symbols n (ring size), k (multiplicity bound), b (label bits)
// and log_k (smallest l with 2^l >= k — spec_audit's convention).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "diagnostics.hpp"
#include "source_model.hpp"

namespace hring::lint {

/// Evaluation point for width expressions. log_k is derived from k.
struct BitEnv {
  std::uint64_t n = 1;
  std::uint64_t k = 1;
  std::uint64_t b = 1;
};

/// Smallest l with 2^l >= v (0 for v <= 1) — the convention both
/// spec_audit's log k and the tag-width accounting use.
[[nodiscard]] std::uint64_t ceil_log2(std::uint64_t v);

/// A parsed symbolic bit-width expression over n, k, b, log_k.
class BitExpr {
 public:
  /// Parses `text` (whitespace tolerated); nullopt on any syntax error or
  /// unknown symbol.
  [[nodiscard]] static std::optional<BitExpr> parse(std::string_view text);

  /// Evaluates at `env`. Subtraction saturates at zero (widths are never
  /// negative); arithmetic runs in signed 64-bit internally.
  [[nodiscard]] std::uint64_t eval(const BitEnv& env) const;

  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  enum class Op : std::uint8_t { kConst, kVar, kAdd, kSub, kMul };
  struct Node {
    Op op = Op::kConst;
    std::int64_t value = 0;  // constant, or var index (n=0,k=1,b=2,log_k=3)
    int lhs = -1;
    int rhs = -1;
  };

  [[nodiscard]] std::int64_t eval_node(int idx, const std::int64_t* vars) const;

  std::vector<Node> nodes_;
  int root_ = -1;
  std::string text_;
};

/// One per-process state variable with its declared width.
struct StateVarIR {
  std::string name;
  std::string owner;  // class that declares it (base-chain classes differ)
  std::string bits;   // width expression; empty when excluded
  bool excluded = false;
  std::string note;  // exclusion reason, or "annotated"/"default"
  std::uint32_t line = 0;
};

struct MessageFieldIR {
  std::string name;
  std::string bits;
};

/// The message alphabet: tag enum plus the struct's field widths.
struct MessageIR {
  std::vector<std::string> tags;  // enum order, leading 'k' stripped
  std::uint64_t tag_bits = 0;     // ceil_log2(|tags|)
  std::vector<MessageFieldIR> fields;
};

/// One algorithm's guarded-action model as extracted from source.
struct AlgorithmIR {
  std::string name;        // hring-algorithm annotation name
  std::string class_name;  // the annotated C++ class
  std::string file;        // basename of the defining file
  std::uint32_t line = 0;
  std::vector<StateVarIR> state;  // base-chain first, declaration order
  std::string state_bits;         // "+"-join of the non-excluded widths
  std::string space_bound;        // paper budget; empty for baselines
  std::vector<std::string> sends;    // tags built via Message factories
  std::vector<std::string> handles;  // tags matched in enabled()/fire()
  std::vector<std::string> actions;  // note_action labels, source order
};

struct ProtocolIR {
  MessageIR message;
  std::vector<AlgorithmIR> algorithms;  // sorted by name
};

/// Builds the IR from an already-parsed model. Extraction problems
/// (unannotated members of annotated classes, unparsable width
/// expressions) are reported into `diags` when non-null, under the
/// space-bound check name.
[[nodiscard]] ProtocolIR extract_protocol_ir(const Model& model,
                                             std::vector<Diagnostic>* diags);

/// Serializes the IR as deterministic JSON (schema "hring-protocol-ir/1",
/// documented in docs/STATIC_ANALYSIS.md).
void write_protocol_ir(const ProtocolIR& ir, std::ostream& out);

// The three IR-level checks (dispatched by run_checks, which reports the
// sites each returns as examined).
std::size_t check_space_bound(const Model& model,
                              std::vector<Diagnostic>& diags);
std::size_t check_alphabet_closure(const Model& model,
                                   std::vector<Diagnostic>& diags);
std::size_t check_atomics_discipline(const Model& model,
                                     std::vector<Diagnostic>& diags);

}  // namespace hring::lint
