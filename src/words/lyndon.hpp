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

/// True iff `seq` has a non-trivial rotational symmetry, i.e. some rotation
/// by d in (0, n) maps it to itself. (A labeled ring is *symmetric* exactly
/// when its label sequence has this property.)
[[nodiscard]] bool has_rotational_symmetry(const LabelSequence& seq);

/// True iff `seq` is a Lyndon word: non-empty and strictly smaller than
/// every non-trivial rotation of itself.
[[nodiscard]] bool is_lyndon(const LabelSequence& seq);

}  // namespace hring::words
