#include "ring/classes.hpp"

#include "support/assert.hpp"
#include "words/lyndon.hpp"

namespace hring::ring {

bool in_class_Kk(const LabeledRing& ring, std::size_t k) {
  HRING_EXPECTS(k >= 1);
  return ring.max_multiplicity() <= k;
}

bool in_class_A(const LabeledRing& ring) {
  return !words::has_rotational_symmetry(ring.labels());
}

bool in_class_Ustar(const LabeledRing& ring) {
  return !unique_labels(ring).empty();
}

bool in_class_K1(const LabeledRing& ring) { return in_class_Kk(ring, 1); }

std::vector<Label> unique_labels(const LabeledRing& ring) {
  std::vector<Label> out;
  for (const auto& [label, count] : ring.label_counts()) {
    if (count == 1) out.push_back(label);
  }
  return out;
}

std::string RingClassReport::to_string() const {
  std::string out = "n=" + std::to_string(n);
  out += " |L|=" + std::to_string(distinct_labels);
  out += " max_mlty=" + std::to_string(max_multiplicity);
  out += asymmetric ? " A" : " symmetric";
  if (has_unique_label) out += " U*";
  return out;
}

RingClassReport classify(const LabeledRing& ring) {
  RingClassReport report;
  report.n = ring.size();
  report.distinct_labels = ring.distinct_labels();
  report.max_multiplicity = ring.max_multiplicity();
  report.asymmetric = in_class_A(ring);
  report.has_unique_label = in_class_Ustar(ring);
  return report;
}

}  // namespace hring::ring
