#include "words/label.hpp"

#include <algorithm>
#include <bit>

namespace hring::words {

constinit thread_local std::uint64_t Label::comparison_count_ = 0;

std::string to_string(Label label) { return std::to_string(label.value()); }

std::string to_string(const LabelSequence& seq) {
  std::string out;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i != 0) out += '.';
    out += to_string(seq[i]);
  }
  return out;
}

LabelSequence make_sequence(std::initializer_list<Label::rep_type> values) {
  LabelSequence seq;
  seq.reserve(values.size());
  for (const auto v : values) seq.emplace_back(v);
  return seq;
}

std::size_t count_occurrences(const LabelSequence& seq, Label label) {
  return static_cast<std::size_t>(
      std::count(seq.begin(), seq.end(), label));
}

std::size_t label_bits(const LabelSequence& seq) {
  Label::rep_type max_value = 0;
  for (const Label l : seq) max_value = std::max(max_value, l.value());
  return std::max<std::size_t>(1, std::bit_width(max_value));
}

}  // namespace hring::words
