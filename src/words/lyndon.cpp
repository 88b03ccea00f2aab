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

std::strong_ordering compare_rotations(const LabelSequence& seq,
                                       std::size_t a, std::size_t b) {
  const std::size_t n = seq.size();
  HRING_EXPECTS(a < n && b < n);
  for (std::size_t t = 0; t < n; ++t) {
    const Label x = seq[(a + t) % n];
    const Label y = seq[(b + t) % n];
    const auto cmp = x <=> y;
    if (cmp != std::strong_ordering::equal) return cmp;
  }
  return std::strong_ordering::equal;
}

std::size_t least_rotation_index_naive(const LabelSequence& seq) {
  HRING_EXPECTS(!seq.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    if (compare_rotations(seq, i, best) == std::strong_ordering::less) {
      best = i;
    }
  }
  return best;
}

LabelSequence rotate(const LabelSequence& seq, std::size_t start) {
  const std::size_t n = seq.size();
  HRING_EXPECTS(start < n || (n == 0 && start == 0));
  LabelSequence out;
  out.reserve(n);
  for (std::size_t t = 0; t < n; ++t) out.push_back(seq[(start + t) % n]);
  return out;
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

bool is_lyndon_naive(const LabelSequence& seq) {
  if (seq.empty()) return false;
  for (std::size_t d = 1; d < seq.size(); ++d) {
    if (compare_rotations(seq, 0, d) != std::strong_ordering::less) {
      return false;
    }
  }
  return true;
}

LabelSequence lyndon_rotation(const LabelSequence& seq) {
  HRING_EXPECTS(!seq.empty());
  HRING_EXPECTS(!has_rotational_symmetry(seq));
  return rotate(seq, least_rotation_index(seq));
}

Label lyndon_rotation_first(const LabelSequence& seq) {
  return seq[least_rotation_index(seq)];
}

std::vector<std::size_t> duval_factorization(const LabelSequence& seq) {
  HRING_EXPECTS(!seq.empty());
  const std::size_t n = seq.size();
  std::vector<std::size_t> lengths;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    std::size_t k = i;
    while (j < n && !(seq[j] < seq[k])) {
      if (seq[k] < seq[j]) {
        k = i;  // strictly growing: restart the period scan
      } else {
        ++k;  // equal: continue the periodic run
      }
      ++j;
    }
    // The run seq[i..j) is (j-k) - periodic; emit whole Lyndon factors.
    const std::size_t factor = j - k;
    while (i + factor <= j) {
      lengths.push_back(factor);
      i += factor;
    }
  }
  HRING_ENSURES(!lengths.empty());
  return lengths;
}

}  // namespace hring::words
