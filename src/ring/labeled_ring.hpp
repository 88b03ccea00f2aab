// The labeled unidirectional ring of §II.
//
// Processes p_0 … p_{n-1} are arranged clockwise: p_i sends to p_{i+1} and
// receives from p_{i-1} (indices mod n). Each process carries a label that
// need not be unique (homonyms). The ring is a pure value type; the
// simulator instantiates processes and links from it. It holds only its
// label buffer: the multiplicity queries count on demand, so a campaign's
// per-cell ring costs no allocation beyond the labels it was built from.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "words/label.hpp"

namespace hring::ring {

using words::Label;
using words::LabelSequence;

/// Index of a process within the ring, in [0, n).
using ProcessIndex = std::size_t;

/// Clockwise successor / counter-clockwise predecessor of process i < n on
/// a ring of n processes: p_i sends to right(i, n) and receives from
/// left(i, n). Branches, not modulo: the engines call these on every
/// firing.
[[nodiscard]] constexpr ProcessIndex right(ProcessIndex i, std::size_t n) {
  return i + 1 == n ? 0 : i + 1;
}
[[nodiscard]] constexpr ProcessIndex left(ProcessIndex i, std::size_t n) {
  return i == 0 ? n - 1 : i - 1;
}

class LabeledRing {
 public:
  /// Builds a ring from clockwise labels. Requires n >= 2 (the model's
  /// minimum ring size).
  explicit LabeledRing(LabelSequence labels);

  /// Convenience constructor from raw label values.
  static LabeledRing from_values(
      std::initializer_list<Label::rep_type> values);

  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] const LabelSequence& labels() const { return labels_; }
  [[nodiscard]] Label label(ProcessIndex i) const;

  /// Clockwise successor / counter-clockwise predecessor of process i.
  [[nodiscard]] ProcessIndex right(ProcessIndex i) const;
  [[nodiscard]] ProcessIndex left(ProcessIndex i) const;

  /// mlty[l]: the number of processes carrying label l (0 if absent).
  /// O(n).
  [[nodiscard]] std::size_t multiplicity(Label label) const;

  /// Each label of the ring with its multiplicity, in increasing label
  /// order. O(n log n).
  [[nodiscard]] std::vector<std::pair<Label, std::size_t>> label_counts()
      const;

  /// max over labels of multiplicity — the M of Theorem 2's proof.
  /// O(n log n).
  [[nodiscard]] std::size_t max_multiplicity() const;

  /// Number of distinct labels |L|. O(n log n).
  [[nodiscard]] std::size_t distinct_labels() const;

  /// The prefix LLabels(p_i)_m: labels read counter-clockwise from p_i,
  /// i.e. p_i.id, p_{i-1}.id, …, of length m (m may exceed n; the sequence
  /// wraps).
  [[nodiscard]] LabelSequence llabels(ProcessIndex i, std::size_t m) const;

  /// The paper's b: bits required to store any label of this ring.
  [[nodiscard]] std::size_t label_bits() const;

  /// True leader (§IV): the process L whose LLabels(L)^n is a Lyndon word.
  /// Requires the ring to be asymmetric (otherwise no such process exists).
  [[nodiscard]] ProcessIndex true_leader() const;

  /// Reference implementation comparing all LLabels(p)^n directly.
  [[nodiscard]] ProcessIndex true_leader_naive() const;

  /// "1.3.1.3.2.2.1.2" — clockwise rendering for logs and tables.
  [[nodiscard]] std::string to_string() const;

 private:
  LabelSequence labels_;
};

}  // namespace hring::ring
