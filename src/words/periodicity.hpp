// Periods and repeating prefixes of label sequences (§IV, "Sequences of
// Labels").
//
// The paper defines: π = σ_m (the length-m prefix) is a *repeating prefix*
// of σ if σ[i] = π[1 + (i-1) mod m] for all i, i.e. σ is a truncation of the
// infinite repetition πππ…  srp(σ) is the repeating prefix of minimum
// length. A prefix of length m is repeating exactly when m is a *period* of
// σ in the classical string sense (σ[i] = σ[i+m] whenever both sides exist),
// so |srp(σ)| is the smallest period, computable from the KMP border array
// as |σ| − border(σ).
//
// IncrementalPeriod also caches Booth's least-rotation index of srp for
// A_k's Lyndon test, so that test scans once per period, not once per
// received token.
#pragma once

#include <cstddef>
#include <vector>

#include "support/assert.hpp"
#include "words/label.hpp"

namespace hring::words {

/// KMP border (failure-function) array: out[i] = length of the longest
/// proper border of the prefix of length i+1, for i in [0, n).
[[nodiscard]] std::vector<std::size_t> border_array(const LabelSequence& seq);

/// Smallest period of `seq` (= |srp(seq)|). Requires a non-empty sequence.
[[nodiscard]] std::size_t smallest_period(const LabelSequence& seq);

/// The paper's srp(σ): the shortest repeating prefix, as a copy.
/// Requires a non-empty sequence.
[[nodiscard]] LabelSequence srp(const LabelSequence& seq);

/// Maintains the smallest period of a growing sequence online. push_back is
/// amortized O(1); A_k consults period() after every received token, so the
/// naive per-message recomputation would cost O(|σ|) each (ablated in
/// bench_micro).
///
/// It also caches srp_least_rotation(), keyed on the period it was computed
/// for. srp is the length-period() prefix and pushes never change a prefix,
/// so the cached index is exact whenever period() equals the cached period,
/// until truncate() cuts below that period or clear() runs.
class IncrementalPeriod {
 public:
  IncrementalPeriod() = default;

  /// Appends one label, updating the border array incrementally.
  void push_back(Label label);

  /// Rewinds to the empty sequence, keeping both buffers' capacity
  /// (AkProcess::decode rebuilds strings into a recycled process).
  void clear() {
    seq_.clear();
    border_.clear();
    cached_period_ = 0;
  }

  /// Rewinds to the length-`len` prefix, keeping both buffers' capacity.
  /// A prefix's border array is the prefix of the border array, so this
  /// is O(1) (AkProcess::decode undoes appended labels with it). The
  /// cached rotation survives when the cut keeps its srp. Requires
  /// len <= size().
  void truncate(std::size_t len) {
    HRING_EXPECTS(len <= seq_.size());
    seq_.resize(len);
    border_.resize(len);
    if (len < cached_period_) cached_period_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return seq_.size(); }
  [[nodiscard]] const LabelSequence& sequence() const { return seq_; }

  /// Smallest period of the current sequence. Requires size() > 0.
  [[nodiscard]] std::size_t period() const;

  /// Smallest period of the length-`len` prefix — the border array stores
  /// every prefix border, so this is a lookup, not a recomputation.
  /// Requires 0 < len <= size().
  [[nodiscard]] std::size_t prefix_period(std::size_t len) const {
    HRING_EXPECTS(0 < len && len <= border_.size());
    return len - border_[len - 1];
  }

  /// Border length of the whole current sequence (0 for empty).
  [[nodiscard]] std::size_t border() const {
    return border_.empty() ? 0 : border_.back();
  }

  /// Least-rotation index (Booth) of srp, the length-period() prefix. srp
  /// is primitive (a proper root of it would be a smaller period), so srp
  /// is a Lyndon word iff this is 0, and sequence()[srp_least_rotation()]
  /// is LW(srp)[1]. Runs Booth's scan only when period() differs from the
  /// cached period. Requires size() > 0.
  [[nodiscard]] std::size_t srp_least_rotation();

 private:
  LabelSequence seq_;
  std::vector<std::size_t> border_;
  /// Period the cached rotation belongs to; 0 when nothing is cached.
  std::size_t cached_period_ = 0;
  std::size_t cached_rotation_ = 0;
};

}  // namespace hring::words
