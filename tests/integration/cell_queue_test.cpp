// CellQueue: the lock-free span dispenser feeding campaign workers. The
// contract is exactly-once partition of [0, cells) into half-open spans,
// under any interleaving of concurrent pops.
#include "core/cell_queue.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace hring::core {
namespace {

TEST(CellQueue, SequentialPopsPartitionTheRange) {
  CellQueue queue(100, /*workers=*/1, /*grain=*/7);
  EXPECT_EQ(queue.grain(), 7u);

  std::vector<bool> claimed(100, false);
  std::size_t spans = 0;
  for (auto span = queue.pop(); !span.empty(); span = queue.pop()) {
    ++spans;
    EXPECT_LE(span.end - span.begin, 7u);
    for (std::size_t i = span.begin; i < span.end; ++i) {
      EXPECT_LT(i, claimed.size());
      EXPECT_FALSE(claimed[i]);
      claimed[i] = true;
    }
  }
  EXPECT_EQ(spans, (100 + 6) / 7);
  for (const bool c : claimed) EXPECT_TRUE(c);
  EXPECT_TRUE(queue.pop().empty());  // drained queues stay drained
}

TEST(CellQueue, ConcurrentPopsClaimEveryCellExactlyOnce) {
  constexpr std::size_t kCells = 20'000;
  CellQueue queue(kCells, /*workers=*/4, /*grain=*/3);

  std::vector<std::atomic<std::uint32_t>> claims(kCells);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&queue, &claims] {
      for (auto span = queue.pop(); !span.empty(); span = queue.pop()) {
        for (std::size_t i = span.begin; i < span.end; ++i) {
          claims[i].fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kCells; ++i) {
    ASSERT_EQ(claims[i].load(), 1u) << "cell " << i;
  }
}

TEST(CellQueue, AutoGrainScalesWithCellsPerWorker) {
  // grain 0 = auto: cells / (64 * workers), clamped to [1, 64].
  EXPECT_EQ(CellQueue(16, 4, 0).grain(), 1u);
  EXPECT_EQ(CellQueue(1'000'000, 2, 0).grain(), 64u);
  EXPECT_EQ(CellQueue(6'400, 4, 0).grain(), 25u);
  EXPECT_EQ(CellQueue(4'096, 2, 0).grain(), 32u);
}

TEST(CellQueue, AutoGrainKeepsTheLastClaimSmall) {
  // While one worker runs a campaign's last claim the others idle, so the
  // automatic grain promises a last claim of at most a sixty-fourth of a
  // worker's share (at least one cell), and never more than 64 cells.
  for (const std::size_t workers : {1u, 2u, 3u, 4u, 16u}) {
    for (const std::size_t cells :
         {1u, 63u, 64u, 1'000u, 2'048u, 4'096u, 10'007u, 1'000'000u}) {
      CellQueue queue(cells, workers, 0);
      const std::size_t bound = std::min<std::size_t>(
          CellQueue::kMaxAutoGrain,
          std::max<std::size_t>(1, cells / (64 * workers)));
      CellQueue::Span last;
      for (auto span = queue.pop(); !span.empty(); span = queue.pop()) {
        last = span;
      }
      EXPECT_EQ(last.end, cells);
      EXPECT_GE(last.end - last.begin, 1u);
      EXPECT_LE(last.end - last.begin, bound)
          << cells << " cells, " << workers << " workers";
    }
  }
}

TEST(CellQueue, EmptyQueueYieldsEmptySpans) {
  CellQueue queue(0, 4, 0);
  EXPECT_TRUE(queue.pop().empty());
  EXPECT_TRUE(queue.pop().empty());
}

}  // namespace
}  // namespace hring::core
