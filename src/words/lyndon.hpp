// Lyndon words and rotations (§IV, "True Leader").
//
// The true leader of an asymmetric ring R is the process L whose
// counter-clockwise label sequence LLabels(L)^n is a Lyndon word — a
// non-empty sequence strictly smaller, in lexicographic order, than all of
// its non-trivial rotations [Lyndon 1954]. LW(σ) denotes the rotation of σ
// that is a Lyndon word; it exists and is unique exactly when σ is
// rotationally aperiodic (which §IV guarantees, since R is asymmetric).
#pragma once

#include <cstddef>
#include <vector>

#include "words/label.hpp"

namespace hring::words {

/// Index of the lexicographically least rotation of `seq` (Booth's
/// algorithm, O(n)). Among tied minimal rotations, returns the smallest
/// starting index. Requires a non-empty sequence.
[[nodiscard]] std::size_t least_rotation_index(const LabelSequence& seq);

/// Same, on a raw label range — lets callers test a prefix of a larger
/// sequence without copying it (IncrementalPeriod::srp_least_rotation).
/// Requires n > 0.
[[nodiscard]] std::size_t least_rotation_index(const Label* seq,
                                               std::size_t n);

/// Reference O(n^2) least rotation index, for cross-checking.
[[nodiscard]] std::size_t least_rotation_index_naive(const LabelSequence& seq);

/// The rotation of `seq` starting at `start` (cyclic copy).
[[nodiscard]] LabelSequence rotate(const LabelSequence& seq,
                                   std::size_t start);

/// True iff `seq` has a non-trivial rotational symmetry, i.e. some rotation
/// by d in (0, n) maps it to itself. (A labeled ring is *symmetric* exactly
/// when its label sequence has this property.)
[[nodiscard]] bool has_rotational_symmetry(const LabelSequence& seq);

/// True iff `seq` is a Lyndon word: non-empty and strictly smaller than
/// every non-trivial rotation of itself.
[[nodiscard]] bool is_lyndon(const LabelSequence& seq);

/// Reference definitional is_lyndon (compares against all n-1 rotations).
[[nodiscard]] bool is_lyndon_naive(const LabelSequence& seq);

/// The paper's LW(σ): the unique rotation of σ that is a Lyndon word.
/// Requires σ non-empty and rotationally aperiodic.
[[nodiscard]] LabelSequence lyndon_rotation(const LabelSequence& seq);

/// First label of LW(σ) without materializing the rotation; this is the
/// quantity A_k's action A4 assigns to p.leader: LW(srp(p.string))[1].
/// Requires a non-empty sequence.
[[nodiscard]] Label lyndon_rotation_first(const LabelSequence& seq);

/// Chen–Fox–Lyndon factorization via Duval's algorithm: σ = w1 w2 … wm with
/// each wi Lyndon and w1 >= w2 >= … >= wm. Returned as the list of factor
/// lengths (sums to |σ|). Requires a non-empty sequence.
[[nodiscard]] std::vector<std::size_t> duval_factorization(
    const LabelSequence& seq);

/// Lexicographic comparison of two rotations of the same sequence, by
/// cyclic scan over at most n positions; used by the naive references and
/// the ring ground-truth cross-checks.
[[nodiscard]] std::strong_ordering compare_rotations(const LabelSequence& seq,
                                                     std::size_t a,
                                                     std::size_t b);

}  // namespace hring::words
