#include "words/lyndon.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "words/periodicity.hpp"

namespace hring::words {

std::size_t least_rotation_index(const LabelSequence& seq) {
  return least_rotation_index(seq.data(), seq.size());
}

std::size_t least_rotation_index(const Label* seq, std::size_t n) {
  HRING_EXPECTS(n > 0);
  // Booth's least-rotation algorithm: candidates i and j race with a shared
  // match length k; a mismatch eliminates the candidate holding the larger
  // label together with the k positions behind it. Indices i+k and j+k lie
  // in [0, 2n), so one conditional subtraction replaces the modulo.
  std::size_t i = 0;
  std::size_t j = 1;
  std::size_t k = 0;
  while (i < n && j < n && k < n) {
    std::size_t ia = i + k;
    if (ia >= n) ia -= n;
    std::size_t jb = j + k;
    if (jb >= n) jb -= n;
    const Label a = seq[ia];
    const Label b = seq[jb];
    if (a == b) {
      ++k;
      continue;
    }
    if (a > b) {
      i = i + k + 1;
      if (i == j) ++i;
    } else {
      j = j + k + 1;
      if (j == i) ++j;
    }
    k = 0;
  }
  return std::min(i, j);
}

bool has_rotational_symmetry(const LabelSequence& seq) {
  if (seq.empty()) return false;
  const std::size_t n = seq.size();
  // A rotation by d fixes the sequence iff gcd(d, n) does, so it suffices to
  // test proper divisors of n; d is a cyclic period iff it is a linear
  // period that divides n.
  const std::size_t p = smallest_period(seq);
  return p < n && n % p == 0;
}

bool is_lyndon(const LabelSequence& seq) {
  if (seq.empty()) return false;
  if (has_rotational_symmetry(seq)) return false;  // some rotation ties it
  return least_rotation_index(seq) == 0;
}

}  // namespace hring::words
