// Ring instance generators for tests and experiments.
//
// Every generator is deterministic given its Rng, so each experiment row is
// reproducible from its printed seed. Rejection-sampling generators enforce
// their class constraints by construction plus post-check.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "ring/labeled_ring.hpp"
#include "support/rng.hpp"

namespace hring::ring {

using support::Rng;

/// K_1 ring: a random permutation of the distinct labels 1..n.
[[nodiscard]] LabeledRing distinct_ring(std::size_t n, Rng& rng);

/// K_1 ring with the fixed clockwise labels 1..n (no randomness); used by
/// the lower-bound bench where only the label *set* matters.
[[nodiscard]] LabeledRing sequential_ring(std::size_t n);

/// Uniform random labels over {1..alphabet}; may be symmetric and may
/// exceed any multiplicity bound. Requires alphabet >= 1.
[[nodiscard]] LabeledRing uniform_random_ring(std::size_t n,
                                              std::size_t alphabet, Rng& rng);

/// Random ring of A ∩ K_k: every label occurs at most k times and the ring
/// is asymmetric. Labels are drawn from {1..alphabet}; alphabet must satisfy
/// alphabet*k >= n. Returns nullopt if `max_tries` rejection rounds fail
/// (only plausible for tiny n with alphabet*k == n and heavy symmetry).
[[nodiscard]] std::optional<LabeledRing> random_asymmetric_ring(
    std::size_t n, std::size_t k, std::size_t alphabet, Rng& rng,
    std::size_t max_tries = 1000);

/// Random ring of A ∩ K_k biased to *saturate* the multiplicity bound: some
/// label occurs exactly k times. Exercises the worst-case branch of the
/// 2k+1 detection threshold. Requires n >= k + 1 (so asymmetry is possible
/// with a saturated label).
[[nodiscard]] std::optional<LabeledRing> saturated_multiplicity_ring(
    std::size_t n, std::size_t k, Rng& rng, std::size_t max_tries = 1000);

/// Random ring of U* ∩ K_k: one distinguished unique label, all others with
/// multiplicity <= k. A unique label implies asymmetry.
[[nodiscard]] LabeledRing unique_label_ring(std::size_t n, std::size_t k,
                                            Rng& rng);

/// All label sequences of length n over alphabet {1..alphabet}, as rings.
/// If `asymmetric_only`, symmetric labelings are skipped. If
/// `canonical_only`, only sequences that are the least rotation of their
/// rotation class are kept (one representative per ring up to renaming of
/// process indices). Intended for exhaustive small-n tests: the result has
/// at most alphabet^n entries.
[[nodiscard]] std::vector<LabeledRing> enumerate_rings(std::size_t n,
                                                       std::size_t alphabet,
                                                       bool asymmetric_only,
                                                       bool canonical_only);

}  // namespace hring::ring
