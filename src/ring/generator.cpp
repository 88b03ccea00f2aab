#include "ring/generator.hpp"

#include <algorithm>

#include "ring/classes.hpp"
#include "support/assert.hpp"
#include "words/lyndon.hpp"

namespace hring::ring {
namespace {

/// Draws a label multiset of size n with per-label count <= k over
/// {1..alphabet}, then shuffles it into a clockwise order.
LabelSequence bounded_multiset(std::size_t n, std::size_t k,
                               std::size_t alphabet, Rng& rng) {
  HRING_EXPECTS(alphabet * k >= n);
  std::vector<std::size_t> remaining(alphabet, k);
  LabelSequence seq;
  seq.reserve(n);
  // Draw labels uniformly among those with remaining budget. A simple
  // resample loop suffices: the acceptance probability is at least 1/n per
  // draw even in the saturated case.
  std::size_t drawn = 0;
  while (drawn < n) {
    const std::size_t v = rng.below(alphabet);
    if (remaining[v] == 0) continue;
    --remaining[v];
    seq.emplace_back(v + 1);
    ++drawn;
  }
  support::shuffle(seq, rng);
  return seq;
}

}  // namespace

LabeledRing distinct_ring(std::size_t n, Rng& rng) {
  HRING_EXPECTS(n >= 2);
  LabelSequence seq;
  seq.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    seq.emplace_back(i + 1);
  }
  support::shuffle(seq, rng);
  return LabeledRing(std::move(seq));
}

LabeledRing sequential_ring(std::size_t n) {
  HRING_EXPECTS(n >= 2);
  LabelSequence seq;
  seq.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    seq.emplace_back(i + 1);
  }
  return LabeledRing(std::move(seq));
}

LabeledRing uniform_random_ring(std::size_t n, std::size_t alphabet,
                                Rng& rng) {
  HRING_EXPECTS(n >= 2 && alphabet >= 1);
  LabelSequence seq;
  seq.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    seq.emplace_back(rng.below(alphabet) + 1);
  }
  return LabeledRing(std::move(seq));
}

std::optional<LabeledRing> random_asymmetric_ring(std::size_t n,
                                                  std::size_t k,
                                                  std::size_t alphabet,
                                                  Rng& rng,
                                                  std::size_t max_tries) {
  HRING_EXPECTS(n >= 2 && k >= 1 && alphabet * k >= n);
  for (std::size_t attempt = 0; attempt < max_tries; ++attempt) {
    LabelSequence seq = bounded_multiset(n, k, alphabet, rng);
    if (!words::has_rotational_symmetry(seq)) {
      return LabeledRing(std::move(seq));
    }
  }
  return std::nullopt;
}

std::optional<LabeledRing> saturated_multiplicity_ring(std::size_t n,
                                                       std::size_t k,
                                                       Rng& rng,
                                                       std::size_t max_tries) {
  HRING_EXPECTS(n >= k + 1 && k >= 1);
  // Label 1 occurs exactly k times; the rest are drawn with counts <= k
  // from a fresh alphabet starting at 2, sized to always fit.
  const std::size_t rest = n - k;
  const std::size_t alphabet = (rest + k - 1) / k + 2;
  for (std::size_t attempt = 0; attempt < max_tries; ++attempt) {
    LabelSequence seq;
    seq.reserve(n);
    for (std::size_t i = 0; i < k; ++i) seq.emplace_back(1);
    std::vector<std::size_t> remaining(alphabet, k);
    std::size_t drawn = 0;
    while (drawn < rest) {
      const std::size_t v = rng.below(alphabet);
      if (remaining[v] == 0) continue;
      --remaining[v];
      seq.emplace_back(v + 2);
      ++drawn;
    }
    support::shuffle(seq, rng);
    if (!words::has_rotational_symmetry(seq)) {
      LabeledRing ring(std::move(seq));
      HRING_ENSURES(ring.multiplicity(Label(1)) == k);
      HRING_ENSURES(in_class_Kk(ring, k));
      return ring;
    }
  }
  return std::nullopt;
}

LabeledRing unique_label_ring(std::size_t n, std::size_t k, Rng& rng) {
  HRING_EXPECTS(n >= 2 && k >= 1);
  // Labels >= 2 fill n-1 slots with multiplicity <= k; label 1 is unique.
  const std::size_t rest = n - 1;
  const std::size_t alphabet = std::max<std::size_t>(1, (rest + k - 1) / k);
  LabelSequence seq;
  seq.reserve(n);
  seq.emplace_back(1);
  std::vector<std::size_t> remaining(alphabet, k);
  std::size_t drawn = 0;
  while (drawn < rest) {
    const std::size_t v = rng.below(alphabet);
    if (remaining[v] == 0) continue;
    --remaining[v];
    seq.emplace_back(v + 2);
    ++drawn;
  }
  support::shuffle(seq, rng);
  LabeledRing ring(std::move(seq));
  HRING_ENSURES(in_class_Ustar(ring));
  HRING_ENSURES(in_class_Kk(ring, k));
  return ring;
}

std::vector<LabeledRing> enumerate_rings(std::size_t n, std::size_t alphabet,
                                         bool asymmetric_only,
                                         bool canonical_only) {
  HRING_EXPECTS(n >= 2 && alphabet >= 1);
  // Guard against runaway enumeration: alphabet^n must stay small.
  double estimate = 1;
  for (std::size_t i = 0; i < n; ++i) estimate *= static_cast<double>(alphabet);
  HRING_EXPECTS(estimate <= 4e6);

  std::vector<LabeledRing> out;
  LabelSequence current(n, Label(1));
  std::vector<std::size_t> digits(n, 0);
  for (;;) {
    for (std::size_t i = 0; i < n; ++i) {
      current[i] = Label(digits[i] + 1);
    }
    const bool symmetric = words::has_rotational_symmetry(current);
    if (!(asymmetric_only && symmetric)) {
      const bool canonical =
          !canonical_only || words::least_rotation_index(current) == 0;
      if (canonical) out.emplace_back(current);
    }
    // Odometer increment.
    std::size_t pos = n;
    while (pos > 0) {
      --pos;
      if (++digits[pos] < alphabet) break;
      digits[pos] = 0;
      if (pos == 0) return out;
    }
  }
}

}  // namespace hring::ring
