#include "sim/link.hpp"

#include <utility>

#include "support/assert.hpp"

namespace hring::sim {

void Link::grow() {
  const std::size_t old_cap = buf_.size();
  const std::size_t new_cap = old_cap == 0 ? 8 : old_cap * 2;
  std::vector<InFlight> next(new_cap);
  for (std::size_t i = 0; i < count_; ++i) next[i] = buf_[slot(i)];
  buf_ = std::move(next);
  head_ = 0;
}

double Link::head_ready_time() const {
  HRING_EXPECTS(count_ > 0);
  return buf_[head_].ready_time;
}

void Link::swap_last_two_payloads() {
  HRING_EXPECTS(count_ >= 2);
  using std::swap;
  swap(buf_[slot(count_ - 1)].msg, buf_[slot(count_ - 2)].msg);
}

void Link::reset() {
  head_ = 0;
  count_ = 0;
  high_water_ = 0;
  last_ready_time_ = 0.0;
}

}  // namespace hring::sim
