// References for the word algebra in src/words, for tests and bench_micro's
// ablation rows only: the quadratic, straight-from-the-definition versions
// that Booth's least rotation and the border-array period are checked
// against, and LW(σ) materialized as a rotation.
#pragma once

#include <compare>
#include <cstddef>

#include "support/assert.hpp"
#include "words/label.hpp"
#include "words/lyndon.hpp"

namespace hring::words {

/// Lexicographic comparison of two rotations of the same sequence, by
/// cyclic scan over at most n positions.
[[nodiscard]] inline std::strong_ordering compare_rotations(
    const LabelSequence& seq, std::size_t a, std::size_t b) {
  const std::size_t n = seq.size();
  HRING_EXPECTS(a < n && b < n);
  for (std::size_t t = 0; t < n; ++t) {
    const auto cmp = seq[(a + t) % n] <=> seq[(b + t) % n];
    if (cmp != std::strong_ordering::equal) return cmp;
  }
  return std::strong_ordering::equal;
}

/// O(n^2) least rotation index; among tied minimal rotations, the smallest
/// starting index. Requires a non-empty sequence.
[[nodiscard]] inline std::size_t least_rotation_index_naive(
    const LabelSequence& seq) {
  HRING_EXPECTS(!seq.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    if (compare_rotations(seq, i, best) == std::strong_ordering::less) {
      best = i;
    }
  }
  return best;
}

/// Definitional is_lyndon: non-empty and strictly smaller than each of its
/// n-1 non-trivial rotations.
[[nodiscard]] inline bool is_lyndon_naive(const LabelSequence& seq) {
  if (seq.empty()) return false;
  for (std::size_t d = 1; d < seq.size(); ++d) {
    if (compare_rotations(seq, 0, d) != std::strong_ordering::less) {
      return false;
    }
  }
  return true;
}

/// The rotation of `seq` starting at `start` (cyclic copy).
[[nodiscard]] inline LabelSequence rotate(const LabelSequence& seq,
                                          std::size_t start) {
  const std::size_t n = seq.size();
  HRING_EXPECTS(start < n || (n == 0 && start == 0));
  LabelSequence out;
  out.reserve(n);
  for (std::size_t t = 0; t < n; ++t) out.push_back(seq[(start + t) % n]);
  return out;
}

/// The paper's LW(σ), materialized: the rotation of σ at Booth's least
/// rotation index. Requires σ non-empty and rotationally aperiodic.
[[nodiscard]] inline LabelSequence lyndon_rotation(const LabelSequence& seq) {
  HRING_EXPECTS(!seq.empty());
  HRING_EXPECTS(!has_rotational_symmetry(seq));
  return rotate(seq, least_rotation_index(seq));
}

/// LW(σ)[1] without materializing the rotation: the label A_k's action A4
/// assigns to p.leader. Requires a non-empty sequence.
[[nodiscard]] inline Label lyndon_rotation_first(const LabelSequence& seq) {
  return seq[least_rotation_index(seq)];
}

/// True iff `period` is a period of `seq`: seq[i] = seq[i - period]
/// wherever both exist. Requires 1 <= period.
[[nodiscard]] inline bool is_period(const LabelSequence& seq,
                                    std::size_t period) {
  HRING_EXPECTS(period >= 1);
  for (std::size_t i = period; i < seq.size(); ++i) {
    if (!(seq[i] == seq[i - period])) return false;
  }
  return true;
}

/// O(n^2) smallest period (= |srp(seq)|): the first m = 1..n with
/// is_period(seq, m). Requires a non-empty sequence.
[[nodiscard]] inline std::size_t smallest_period_naive(
    const LabelSequence& seq) {
  HRING_EXPECTS(!seq.empty());
  for (std::size_t m = 1; m < seq.size(); ++m) {
    if (is_period(seq, m)) return m;
  }
  return seq.size();
}

}  // namespace hring::words
