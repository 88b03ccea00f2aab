// Process labels (the paper's homonym identifiers).
//
// The model of §II permits exactly two operations on labels: equality and
// order comparison. Label is a strong type enforcing that discipline: it has
// no arithmetic, and every comparison is routed through compare() so the
// benches can report the number of label comparisons an algorithm performs.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace hring::words {

class Label {
 public:
  using rep_type = std::uint64_t;

  constexpr Label() = default;
  explicit constexpr Label(rep_type value) : value_(value) {}

  /// Raw representation; for hashing, printing and space accounting only —
  /// algorithm code must restrict itself to comparisons.
  [[nodiscard]] constexpr rep_type value() const { return value_; }

  friend std::strong_ordering operator<=>(Label a, Label b) {
    ++comparison_count_;
    return a.value_ <=> b.value_;
  }
  friend bool operator==(Label a, Label b) {
    ++comparison_count_;
    return a.value_ == b.value_;
  }

  /// Comparisons performed since the last reset_comparison_count(). The
  /// counter is thread-local: concurrent experiment sweeps do not interfere.
  [[nodiscard]] static std::uint64_t comparison_count() {
    return comparison_count_;
  }
  static void reset_comparison_count() { comparison_count_ = 0; }

 private:
  rep_type value_ = 0;
  static constinit thread_local std::uint64_t comparison_count_;
};

/// A finite word over labels. LLabels(p) prefixes, ring label sequences and
/// A_k's `string` variable are all LabelSequences.
using LabelSequence = std::vector<Label>;

/// Renders a label ("7") for traces and error messages.
[[nodiscard]] std::string to_string(Label label);

/// Renders a sequence ("1.3.1.2") for traces and error messages.
[[nodiscard]] std::string to_string(const LabelSequence& seq);

/// Builds a sequence from raw values; test/bench convenience.
[[nodiscard]] LabelSequence make_sequence(
    std::initializer_list<Label::rep_type> values);

/// Number of occurrences of `label` in `seq`.
[[nodiscard]] std::size_t count_occurrences(const LabelSequence& seq,
                                            Label label);

/// Smallest number of bits sufficient to store any label of `seq` by its raw
/// representation: max(1, bit_width(max value)). This is the paper's `b`.
[[nodiscard]] std::size_t label_bits(const LabelSequence& seq);

}  // namespace hring::words
