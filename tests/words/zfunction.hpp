// Z-function: an independent periodicity primitive, for tests and
// bench_micro's ablation rows.
//
// z[i] = length of the longest common prefix of σ and σ[i..). The Z array
// yields the smallest period as min{ p >= 1 : p + z[p] == n } (or n if
// none) — a derivation independent of the KMP border array, used as a
// cross-check of the srp machinery A_k's correctness rides on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "support/assert.hpp"
#include "words/label.hpp"

namespace hring::words {

/// Z array of `seq`; z[0] = n by convention. Empty for empty input. O(n).
[[nodiscard]] inline std::vector<std::size_t> z_array(
    const LabelSequence& seq) {
  const std::size_t n = seq.size();
  std::vector<std::size_t> z(n, 0);
  if (n == 0) return z;
  z[0] = n;
  // [l, r) is the rightmost Z-box seen so far.
  std::size_t l = 0;
  std::size_t r = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (i < r) z[i] = std::min(r - i, z[i - l]);
    while (i + z[i] < n && seq[z[i]] == seq[i + z[i]]) ++z[i];
    if (i + z[i] > r) {
      l = i;
      r = i + z[i];
    }
  }
  return z;
}

/// Reference O(n^2) Z computation.
[[nodiscard]] inline std::vector<std::size_t> z_array_naive(
    const LabelSequence& seq) {
  const std::size_t n = seq.size();
  std::vector<std::size_t> z(n, 0);
  if (n == 0) return z;
  z[0] = n;
  for (std::size_t i = 1; i < n; ++i) {
    while (i + z[i] < n && seq[z[i]] == seq[i + z[i]]) ++z[i];
  }
  return z;
}

/// All periods of `seq` (ascending, ends with |seq|), from the Z array.
/// Requires a non-empty sequence.
[[nodiscard]] inline std::vector<std::size_t> all_periods(
    const LabelSequence& seq) {
  HRING_EXPECTS(!seq.empty());
  const auto z = z_array(seq);
  const std::size_t n = seq.size();
  std::vector<std::size_t> periods;
  for (std::size_t p = 1; p < n; ++p) {
    if (p + z[p] == n) periods.push_back(p);
  }
  periods.push_back(n);
  return periods;
}

/// Smallest period computed from the Z array; must equal periodicity.hpp's
/// smallest_period. Requires a non-empty sequence.
[[nodiscard]] inline std::size_t smallest_period_z(const LabelSequence& seq) {
  return all_periods(seq).front();
}

}  // namespace hring::words
