#include "words/periodicity.hpp"

#include "support/assert.hpp"
#include "words/lyndon.hpp"

namespace hring::words {

std::vector<std::size_t> border_array(const LabelSequence& seq) {
  const std::size_t n = seq.size();
  std::vector<std::size_t> border(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t len = border[i - 1];
    while (len > 0 && !(seq[i] == seq[len])) len = border[len - 1];
    if (seq[i] == seq[len]) ++len;
    border[i] = len;
  }
  return border;
}

std::size_t smallest_period(const LabelSequence& seq) {
  HRING_EXPECTS(!seq.empty());
  const auto border = border_array(seq);
  return seq.size() - border.back();
}

LabelSequence srp(const LabelSequence& seq) {
  const std::size_t m = smallest_period(seq);
  return LabelSequence(seq.begin(),
                       seq.begin() + static_cast<std::ptrdiff_t>(m));
}

void IncrementalPeriod::push_back(Label label) {
  seq_.push_back(label);
  if (seq_.size() == 1) {
    border_.push_back(0);
    return;
  }
  std::size_t len = border_.back();
  while (len > 0 && !(label == seq_[len])) len = border_[len - 1];
  if (label == seq_[len]) ++len;
  border_.push_back(len);
}

std::size_t IncrementalPeriod::period() const {
  HRING_EXPECTS(!seq_.empty());
  return seq_.size() - border_.back();
}

// hring-lint: hot-path
std::size_t IncrementalPeriod::srp_least_rotation() {
  const std::size_t p = period();
  if (p != cached_period_) {
    const std::size_t root = prefix_period(p);
    HRING_ASSERT(root == p || p % root != 0);  // srp is primitive
    cached_rotation_ = least_rotation_index(seq_.data(), p);
    cached_period_ = p;
  }
  return cached_rotation_;
}

}  // namespace hring::words
