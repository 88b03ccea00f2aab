#include "ring/labeled_ring.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "words/lyndon.hpp"

namespace hring::ring {

LabeledRing::LabeledRing(LabelSequence labels) : labels_(std::move(labels)) {
  HRING_EXPECTS(labels_.size() >= 2);
}

LabeledRing LabeledRing::from_values(
    std::initializer_list<Label::rep_type> values) {
  LabelSequence seq;
  seq.reserve(values.size());
  for (const auto v : values) seq.emplace_back(v);
  return LabeledRing(std::move(seq));
}

Label LabeledRing::label(ProcessIndex i) const {
  HRING_EXPECTS(i < labels_.size());
  return labels_[i];
}

ProcessIndex LabeledRing::right(ProcessIndex i) const {
  HRING_EXPECTS(i < labels_.size());
  return ring::right(i, labels_.size());
}

ProcessIndex LabeledRing::left(ProcessIndex i) const {
  HRING_EXPECTS(i < labels_.size());
  return ring::left(i, labels_.size());
}

std::size_t LabeledRing::multiplicity(Label label) const {
  return static_cast<std::size_t>(
      std::count(labels_.begin(), labels_.end(), label));
}

std::vector<std::pair<Label, std::size_t>> LabeledRing::label_counts()
    const {
  LabelSequence sorted = labels_;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<Label, std::size_t>> counts;
  for (auto run = sorted.begin(); run != sorted.end();) {
    const auto next = std::upper_bound(run, sorted.end(), *run);
    counts.emplace_back(*run, static_cast<std::size_t>(next - run));
    run = next;
  }
  return counts;
}

std::size_t LabeledRing::max_multiplicity() const {
  std::size_t best = 0;
  for (const auto& [label, count] : label_counts()) {
    best = std::max(best, count);
  }
  return best;
}

std::size_t LabeledRing::distinct_labels() const {
  return label_counts().size();
}

LabelSequence LabeledRing::llabels(ProcessIndex i, std::size_t m) const {
  HRING_EXPECTS(i < labels_.size());
  const std::size_t n = labels_.size();
  LabelSequence out;
  out.reserve(m);
  for (std::size_t t = 0; t < m; ++t) {
    out.push_back(labels_[(i + n - (t % n)) % n]);
  }
  return out;
}

std::size_t LabeledRing::label_bits() const {
  return words::label_bits(labels_);
}

ProcessIndex LabeledRing::true_leader() const {
  const std::size_t n = labels_.size();
  HRING_EXPECTS(!words::has_rotational_symmetry(labels_));
  // LLabels(p_i)^n is the rotation, starting at index (n - i) mod n, of the
  // "counter-clockwise unrolling" s[j] = labels[(n - j) mod n]. Minimizing
  // over i therefore reduces to Booth's least rotation of s.
  LabelSequence ccw;
  ccw.reserve(n);
  for (std::size_t j = 0; j < n; ++j) ccw.push_back(labels_[(n - j) % n]);
  const std::size_t start = words::least_rotation_index(ccw);
  return (n - start) % n;
}

ProcessIndex LabeledRing::true_leader_naive() const {
  const std::size_t n = labels_.size();
  HRING_EXPECTS(!words::has_rotational_symmetry(labels_));
  ProcessIndex best = 0;
  LabelSequence best_seq = llabels(0, n);
  for (ProcessIndex i = 1; i < n; ++i) {
    LabelSequence cand = llabels(i, n);
    if (std::lexicographical_compare(cand.begin(), cand.end(),
                                     best_seq.begin(), best_seq.end())) {
      best = i;
      best_seq = std::move(cand);
    }
  }
  return best;
}

std::string LabeledRing::to_string() const {
  return words::to_string(labels_);
}

}  // namespace hring::ring
