// Concurrency-discipline model and checks (tools/hring_lint).
//
// Layer 5 of the static-analysis stack (docs/STATIC_ANALYSIS.md): the
// paper's unidirectional FIFO links make every cross-thread edge in the
// runtime a producer→consumer pair with a fixed ownership story, so the
// discipline the in-host runtime follows by convention — own cursor
// relaxed, opposite cursor acquire, publish with release, publish before
// ringing the doorbell, re-check after waking, decode before trusting
// wire bytes — can be stated as source-level rules and enforced on every
// path, not just the schedules TSan happens to observe.
//
// Annotation grammar (comments read by this model):
//
//   // hring-role: producer|consumer|coordinator|watchdog
//       Up to four lines above a function. Attributes every access in the
//       body to that thread role.
//   // hring-shared: <writers>-><readers>
//   // hring-shared: <role-list>
//       On a member's line or the line directly above. The arrow form
//       declares single-owner publication: roles left of `->` own (write)
//       the member, roles right of it observe it. The list form declares
//       mutex- or RMW-mediated sharing among the listed roles with no
//       single owner; only access control applies. Role lists are
//       comma-separated.
//
// The checks (dispatched from run_checks alongside the token and IR
// levels):
//
//   spsc-ownership        a role stores only its own cursor; owner loads
//                         are relaxed, opposite-role loads acquire, the
//                         publishing store release (Lamport SPSC, as in
//                         runtime/inhost/spsc_queue.hpp).
//   pairing               every release publication of an atomic member
//                         has an acquire-side observer reachable from a
//                         different role, and vice versa; one-sided
//                         std::atomic_thread_fence use is diagnosed.
//   lost-wakeup           a doorbell notify is dominated by its
//                         publication store; futex waits sit inside
//                         re-check loops (directly or at every call site
//                         of a named park primitive); condition-variable
//                         waits carry a predicate.
//   no-block-in-hot-path  no sleep/yield/futex/blocking-syscall sink is
//                         reachable in the call graph from enabled(),
//                         fire(), or a hot-path-annotated root.
//   decode-before-trust   raw wire bytes (wire::Frame locals, byte-buffer
//                         locals) reach protocol state only through
//                         wire::decode; any other read of undecoded bytes
//                         is diagnosed.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "diagnostics.hpp"
#include "source_model.hpp"

namespace hring::lint {

// ---------------------------------------------------------------------------
// Thread roles

enum class Role : std::uint8_t {
  kProducer = 0,
  kConsumer = 1,
  kCoordinator = 2,
  kWatchdog = 3,
};
inline constexpr std::size_t kNumRoles = 4;

/// Role name as spelled in annotations; nullopt for unknown words.
[[nodiscard]] std::optional<Role> parse_role(std::string_view word);
[[nodiscard]] std::string_view role_name(Role role);

/// A set of roles (bitmask over Role).
struct RoleSet {
  std::uint8_t bits = 0;

  void add(Role r) { bits = static_cast<std::uint8_t>(bits | (1u << static_cast<unsigned>(r))); }
  [[nodiscard]] bool contains(Role r) const {
    return (bits & (1u << static_cast<unsigned>(r))) != 0;
  }
  [[nodiscard]] bool empty() const { return bits == 0; }
  /// Comma-joined role names, annotation order.
  [[nodiscard]] std::string render() const;
};

/// The `// hring-role:` annotation nearest above `line` (within four
/// lines), or nullopt. `malformed` reporting is the caller's job: an
/// hring-role comment with an unknown role word yields nullopt here and a
/// diagnostic from the spsc-ownership check.
[[nodiscard]] std::optional<Role> function_role(const SourceFile& file,
                                                std::uint32_t line);

/// A member's `// hring-shared:` declaration.
struct SharedDecl {
  std::string member;
  RoleSet writers;      // arrow form: owners; list form: the whole set
  RoleSet readers;      // arrow form only; empty in list form
  bool has_arrow = false;
  std::uint32_t line = 0;  // member declaration line
  bool malformed = false;
};

/// All hring-shared declarations of `file`, resolved to the member name
/// declared on the annotation's line (or the line below a standalone
/// comment). Used per-file, matching the atomics-discipline receiver
/// resolution.
[[nodiscard]] std::vector<SharedDecl> shared_decls(const SourceFile& file);

// ---------------------------------------------------------------------------
// Atomic member operations

/// One atomic (or condition-variable) member operation: `recv.op(args)`.
struct MemberOp {
  enum class Kind : std::uint8_t {
    kLoad,
    kStore,
    kRmw,
    kWait,
    kNotify,
  };
  Kind kind = Kind::kLoad;
  std::string recv;
  std::string order;  // "relaxed", "acquire", ... ; empty when implicit
  std::size_t tok = 0;
  std::uint32_t line = 0;
  std::uint32_t col = 0;
};

/// Names declared std::atomic<...> in `file` (receiver resolution is
/// per-file and declaration-site driven).
[[nodiscard]] std::set<std::string> atomic_names_of(const SourceFile& file);

/// Appends the member ops in [begin, end) whose receiver is in `names`.
void scan_member_ops(const SourceFile& file, std::size_t begin,
                     std::size_t end, const std::set<std::string>& names,
                     std::vector<MemberOp>& out);

// ---------------------------------------------------------------------------
// Statement-path model
//
// A per-function statement tree: every body is parsed once into nested
// statements with token ranges. The consume-discipline check folds over
// it, and the concurrency checks query structural facts (loop enclosure,
// guaranteed-before ordering) instead of re-walking tokens.

struct Stmt {
  enum class Kind : std::uint8_t {
    kExpr,    ///< expression / declaration statement
    kBlock,   ///< `{ ... }`
    kIf,      ///< children: then[, else]
    kLoop,    ///< while/for/do body
    kSwitch,  ///< children: its labels and statements, in order
    kReturn,
    kJump,    ///< break / continue / goto / throw
    kLabel,   ///< `case ...:` or `default:`; the structural queries skip it
  };
  Kind kind = Kind::kExpr;
  /// Token range of the whole statement, including any condition.
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Condition range for if/loop/switch ([cond_begin, cond_end)).
  std::size_t cond_begin = 0;
  std::size_t cond_end = 0;
  std::vector<Stmt> children;
};

/// Parses the body token range [begin, end) into a statement tree rooted
/// at a kBlock.
[[nodiscard]] Stmt build_stmt_tree(const SourceFile& file, std::size_t begin,
                                   std::size_t end);

/// True when token index `tok` lies inside a loop statement of `root`
/// (body or condition).
[[nodiscard]] bool loop_enclosed(const Stmt& root, std::size_t tok);

/// True when some token in [from, to) is guaranteed to execute before
/// token `tok` on every path through the tree: the range intersects a
/// preceding sibling (or earlier tokens of the same statement) on the
/// ancestor chain of `tok`. Conditional branches that merely *may* run
/// do not count.
[[nodiscard]] bool dominated_by_range(const Stmt& root, std::size_t tok,
                                      std::size_t from, std::size_t to);

// ---------------------------------------------------------------------------
// The five concurrency checks (dispatched by run_checks, which reports the
// sites each returns as examined)

std::size_t check_spsc_ownership(const Model& model,
                                 std::vector<Diagnostic>& diags);
std::size_t check_pairing(const Model& model, std::vector<Diagnostic>& diags);
std::size_t check_lost_wakeup(const Model& model,
                              std::vector<Diagnostic>& diags);
std::size_t check_no_block_in_hot_path(const Model& model,
                                       std::vector<Diagnostic>& diags);
std::size_t check_decode_before_trust(const Model& model,
                                      std::vector<Diagnostic>& diags);

}  // namespace hring::lint
