// Lock-free cell queue for campaign workers.
//
// A campaign is an indexed set of independent cells [0, cells). Workers
// claim contiguous spans with one atomic fetch_add — wait-free, no locks,
// no per-cell allocation — and run every cell of a claimed span before
// claiming again. Spans rather than single indices: at a million
// elections per second, claiming a cache line of cells at a time keeps the
// atomic off the per-election path while preserving dynamic load balance.
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

  /// Queue over [0, cells). `grain` is the number of cells per claim; 0
  /// picks a grain that gives each worker several claims (dynamic load
  /// balance) without contending on every cell.
  CellQueue(std::size_t cells, std::size_t workers, std::size_t grain = 0)
      : cells_(cells), grain_(grain) {
    if (grain_ == 0) {
      const std::size_t per_worker =
          cells_ / (std::max<std::size_t>(workers, 1) * 8);
      grain_ = std::clamp<std::size_t>(per_worker, 1, 1024);
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
