// Lock-free cell queue for campaign workers.
//
// A campaign is an indexed set of independent cells [0, cells). Workers
// claim contiguous spans with one atomic fetch_add — wait-free, no locks,
// no per-cell allocation — and run every cell of a claimed span before
// claiming again.
//
// Claims are small. A campaign ends when its last claim does, and while
// one worker runs that claim the others have nothing left to take, so the
// tail costs up to one claim's worth of time on every other worker. The
// automatic grain gives each worker about 64 claims and caps a claim at 64
// cells: sweep-ak's 4,096 cells on two workers claim 32 at a time, and the
// final claim is that small. At a few microseconds per election, one
// fetch_add per few dozen cells still keeps the atomic off the
// per-election path.
//
// Because cells are identified by index and every cell derives its
// randomness from (campaign seed, index) alone (derive_cell_seeds), the
// partition produced by any interleaving of pop() calls yields the same
// per-cell results — worker-count invariance, enforced by
// tests/integration/cell_queue_test and campaign_test.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>

#include "support/assert.hpp"

namespace hring::core {

class CellQueue {
 public:
  /// Half-open range of claimed cell indices.
  struct Span {
    std::size_t begin = 0;
    std::size_t end = 0;
    [[nodiscard]] bool empty() const { return begin == end; }
  };

  /// Largest automatic grain.
  static constexpr std::size_t kMaxAutoGrain = 64;

  /// Queue over [0, cells). `grain` is the number of cells per claim; 0
  /// picks cells / (64 · workers), clamped to [1, kMaxAutoGrain]: about
  /// 64 claims per worker, so the last claim of a campaign is at most a
  /// sixty-fourth of a worker's share (see the header comment).
  CellQueue(std::size_t cells, std::size_t workers, std::size_t grain = 0)
      : cells_(cells), grain_(grain) {
    if (grain_ == 0) {
      const std::size_t per_claim =
          cells_ / (std::max<std::size_t>(workers, 1) * 64);
      grain_ = std::clamp<std::size_t>(per_claim, 1, kMaxAutoGrain);
    }
    HRING_ENSURES(grain_ >= 1);
  }

  /// Claims the next span; empty() once the queue is exhausted. Wait-free:
  /// one fetch_add per claim.
  // hring-role: consumer
  [[nodiscard]] Span pop() {
    const std::size_t begin =
        next_.fetch_add(grain_, std::memory_order_relaxed);
    if (begin >= cells_) return Span{cells_, cells_};
    return Span{begin, std::min(begin + grain_, cells_)};
  }

  [[nodiscard]] std::size_t cells() const { return cells_; }
  [[nodiscard]] std::size_t grain() const { return grain_; }

 private:
  std::size_t cells_;
  std::size_t grain_;
  // Every worker fetch_adds this cursor; keep it off the cache line that
  // holds the read-only cells_/grain_ configuration.
  // hring-shared: consumer
  alignas(64) std::atomic<std::size_t> next_{0};
};

}  // namespace hring::core
