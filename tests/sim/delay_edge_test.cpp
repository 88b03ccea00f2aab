// Event-engine edge cases: FIFO clamping under decreasing raw delays,
// the delay kinds' contracts, and wake handling.
#include <gtest/gtest.h>

#include <memory>

#include "ring/labeled_ring.hpp"
#include "sim/delay_model.hpp"
#include "sim/event_engine.hpp"
#include "tests/sim/test_processes.hpp"

namespace hring::sim {
namespace {

/// Sends a burst of three tokens at init; the consumer records order.
class BurstSender final : public Process {
 public:
  BurstSender(ProcessId pid, Label id) : Process(pid, id) {}

  [[nodiscard]] bool enabled(const Message* head) const override {
    return init_ || head != nullptr;
  }

  void fire(const Message* head, Context& ctx) override {
    if (init_) {
      init_ = false;
      if (pid() == 0) {
        ctx.send(Message::token(Label(1)));
        ctx.send(Message::token(Label(2)));
        ctx.send(Message::token(Label(3)));
      }
      set_leader_label(id());
      set_done();
      if (pid() == 0) declare_leader();
      return;
    }
    static_cast<void>(head);
    received_.push_back(ctx.consume().label);
    if (received_.size() == 3) halt_self();
  }

  [[nodiscard]] std::size_t space_bits(std::size_t b) const override {
    return b;
  }
  [[nodiscard]] std::string debug_state() const override { return "B"; }
  [[nodiscard]] const words::LabelSequence& received() const {
    return received_;
  }

 private:
  bool init_ = true;
  words::LabelSequence received_;
};

TEST(DelayEdgeTest, FifoPreservedWhenRawDelaysWouldInvert) {
  // p0 sends 1, 2, 3 at time 0 under uniform delays whose first draw
  // exceeds the second: token 2's raw arrival precedes token 1's, and
  // clamping must deliver 1, 2, 3 in order anyway.
  const auto ring = ring::LabeledRing::from_values({1, 2});
  const Delay delay(DelayKind::kUniformRandom, 1, ring.size());
  Delay draws = delay;
  const double first = draws.of(0);
  ASSERT_GT(first, draws.of(0));
  const auto factory = [](ProcessId pid, Label id) {
    return std::make_unique<BurstSender>(pid, id);
  };
  EventEngine engine(ring, factory, delay);
  const auto result = engine.run();
  // p1 consumed all three and halted; p0 never receives (p1 sends none).
  const auto& receiver =
      dynamic_cast<const BurstSender&>(engine.process(1));
  EXPECT_EQ(receiver.received(), words::make_sequence({1, 2, 3}));
  // p0 stays unhalted (no more messages): classified deadlock, honestly.
  EXPECT_EQ(result.outcome, Outcome::kDeadlock);
}

TEST(DelayEdgeTest, UniformDelaySamplesWithinRange) {
  Delay delay(DelayKind::kUniformRandom, 5, 4);
  for (int i = 0; i < 500; ++i) {
    const double d = delay.of(0);
    EXPECT_GE(d, 0.05);
    EXPECT_LE(d, 1.0);
  }
}

TEST(DelayEdgeTest, SlowLinkOnlySlowsTheDesignatedLink) {
  Delay delay(DelayKind::kSlowLink, /*seed=*/6, 4);  // slow from p_(6 mod 4)
  EXPECT_DOUBLE_EQ(delay.of(2), 1.0);
  EXPECT_DOUBLE_EQ(delay.of(0), 0.05);
  EXPECT_DOUBLE_EQ(delay.of(1), 0.05);
  EXPECT_DOUBLE_EQ(delay.of(3), 0.05);
}

}  // namespace
}  // namespace hring::sim
