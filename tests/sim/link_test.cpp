#include "sim/link.hpp"

#include <gtest/gtest.h>

#include "sim/batch_link.hpp"

namespace hring::sim {
namespace {

TEST(LinkTest, StartsEmpty) {
  Link link;
  EXPECT_TRUE(link.empty());
  EXPECT_EQ(link.size(), 0u);
  EXPECT_EQ(link.head(), nullptr);
  EXPECT_EQ(link.high_water(), 0u);
}

TEST(LinkTest, FifoOrder) {
  Link link;
  link.push(Message::token(Label(1)));
  link.push(Message::token(Label(2)));
  link.push(Message::finish());
  ASSERT_NE(link.head(), nullptr);
  EXPECT_EQ(link.head()->label, Label(1));
  EXPECT_EQ(link.pop().label, Label(1));
  EXPECT_EQ(link.pop().label, Label(2));
  EXPECT_EQ(link.pop().kind, MsgKind::kFinish);
  EXPECT_TRUE(link.empty());
}

TEST(LinkTest, HighWaterTracksPeak) {
  Link link;
  link.push(Message::token(Label(1)));
  link.push(Message::token(Label(2)));
  link.pop();
  link.pop();
  link.push(Message::token(Label(3)));
  EXPECT_EQ(link.high_water(), 2u);
}

TEST(LinkTest, InTransitMessagesAreInvisible) {
  Link link;
  link.push(Message::token(Label(7)), /*ready_time=*/2.0);
  EXPECT_EQ(link.head(1.0), nullptr);     // still in transit at t=1
  ASSERT_NE(link.head(2.0), nullptr);     // delivered at t=2
  EXPECT_EQ(link.head(2.0)->label, Label(7));
  EXPECT_NE(link.head(), nullptr);        // default now = infinity
}

TEST(LinkTest, HeadReadyTime) {
  Link link;
  link.push(Message::token(Label(1)), 0.5);
  link.push(Message::token(Label(2)), 1.5);
  EXPECT_DOUBLE_EQ(link.head_ready_time(), 0.5);
  link.pop();
  EXPECT_DOUBLE_EQ(link.head_ready_time(), 1.5);
  EXPECT_DOUBLE_EQ(link.last_ready_time(), 1.5);
}

TEST(LinkTest, RejectsDecreasingReadyTimes) {
  Link link;
  link.push(Message::token(Label(1)), 2.0);
  EXPECT_DEATH(link.push(Message::token(Label(2)), 1.0), "precondition");
}

TEST(LinkTest, OnlyReadyHeadIsVisibleEvenIfLaterOnesQueued) {
  Link link;
  link.push(Message::token(Label(1)), 3.0);
  link.push(Message::token(Label(2)), 3.0);
  EXPECT_EQ(link.head(2.9), nullptr);
  EXPECT_EQ(link.head(3.0)->label, Label(1));
}

// -- ring-buffer storage -----------------------------------------------------

TEST(LinkTest, FifoOrderAcrossBufferWraparound) {
  // Interleave pushes and pops so the ring's head walks all the way around
  // the initial capacity several times; order must stay FIFO throughout.
  Link link;
  Label::rep_type next_in = 0;
  Label::rep_type next_out = 0;
  for (int round = 0; round < 100; ++round) {
    link.push(Message::token(Label(next_in++)));
    link.push(Message::token(Label(next_in++)));
    link.push(Message::token(Label(next_in++)));
    ASSERT_EQ(link.pop().label.value(), next_out++);
    ASSERT_EQ(link.pop().label.value(), next_out++);
  }
  while (!link.empty()) {
    ASSERT_EQ(link.pop().label.value(), next_out++);
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(LinkTest, GrowthPreservesOrderAndMonotoneReadyTimes) {
  // Force several capacity doublings from a rotated head position, then
  // check both payload order and the non-decreasing delivery times.
  Link link;
  link.push(Message::token(Label(1000)), 0.0);
  link.pop();  // head_ is now rotated off slot 0
  for (Label::rep_type i = 0; i < 100; ++i) {
    link.push(Message::token(Label(i)), static_cast<double>(i));
  }
  double last_ready = 0.0;
  for (Label::rep_type i = 0; i < 100; ++i) {
    ASSERT_GE(link.head_ready_time(), last_ready);
    last_ready = link.head_ready_time();
    ASSERT_EQ(link.pop().label.value(), i);
  }
  EXPECT_TRUE(link.empty());
}

TEST(LinkTest, SwapLastTwoPayloadsAcrossWraparound) {
  Link link;
  // Rotate the head so the last two slots straddle the wrap boundary.
  for (int i = 0; i < 7; ++i) link.push(Message::token(Label(99)));
  for (int i = 0; i < 7; ++i) link.pop();
  link.push(Message::token(Label(1)), 1.0);
  link.push(Message::token(Label(2)), 2.0);
  link.push(Message::token(Label(3)), 3.0);
  link.swap_last_two_payloads();
  // Payloads of the last two swapped; delivery times stay in place.
  EXPECT_EQ(link.pop().label, Label(1));
  EXPECT_DOUBLE_EQ(link.head_ready_time(), 2.0);
  EXPECT_EQ(link.pop().label, Label(3));
  EXPECT_DOUBLE_EQ(link.head_ready_time(), 3.0);
  EXPECT_EQ(link.pop().label, Label(2));
}

TEST(LinkTest, ResetRewindsStateForReuse) {
  Link link;
  link.push(Message::token(Label(1)), 1.0);
  link.push(Message::token(Label(2)), 2.0);
  link.push(Message::token(Label(3)), 3.0);
  EXPECT_EQ(link.high_water(), 3u);

  link.reset();
  EXPECT_TRUE(link.empty());
  EXPECT_EQ(link.size(), 0u);
  EXPECT_EQ(link.head(), nullptr);
  EXPECT_EQ(link.high_water(), 0u);
  EXPECT_DOUBLE_EQ(link.last_ready_time(), 0.0);

  // The recycled link accepts early delivery times again (the clock was
  // rewound, not just the queue) and re-tracks its own high water.
  link.push(Message::token(Label(7)), 0.5);
  EXPECT_EQ(link.high_water(), 1u);
  EXPECT_EQ(link.pop().label, Label(7));
}

TEST(LinkTest, ResetReuseKeepsFifoAndHighWaterExact) {
  Link link;
  for (int run = 0; run < 5; ++run) {
    // Each recycled run must behave exactly like a fresh link.
    for (Label::rep_type i = 0; i < 20; ++i) {
      link.push(Message::token(Label(i)), static_cast<double>(i));
    }
    EXPECT_EQ(link.high_water(), 20u);
    for (Label::rep_type i = 0; i < 20; ++i) {
      ASSERT_EQ(link.pop().label.value(), i);
    }
    EXPECT_EQ(link.high_water(), 20u);  // popping never lowers the peak
    link.reset();
    EXPECT_EQ(link.high_water(), 0u);
  }
}

TEST(LinkPlaneTest, FifoPerLinkWithStableHeadAndIndependentLinks) {
  LinkPlane links;
  links.reset(3);
  EXPECT_TRUE(links.empty(0));
  EXPECT_EQ(links.head(0), nullptr);

  links.push(0, Message::token(Label(1)));
  links.push(0, Message::token(Label(2)));
  links.push(1, Message::finish());
  EXPECT_EQ(links.size(0), 2u);
  EXPECT_EQ(links.size(1), 1u);
  EXPECT_TRUE(links.empty(2));

  // head() exposes the head without consuming it; repeated calls agree.
  const Message* head = links.head(0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(*head, Message::token(Label(1)));
  const Message* again = links.head(0);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(*again, Message::token(Label(1)));
  EXPECT_EQ(links.size(0), 2u);

  // pop() removes in push order.
  EXPECT_EQ(links.pop(0), Message::token(Label(1)));
  EXPECT_EQ(links.pop(0), Message::token(Label(2)));
  EXPECT_TRUE(links.empty(0));
  EXPECT_EQ(links.head(0), nullptr);
  EXPECT_EQ(links.high_water(0), 2u);

  // Link 1 was untouched by link 0's traffic.
  ASSERT_NE(links.head(1), nullptr);
  EXPECT_EQ(links.pop(1), Message::finish());
  EXPECT_TRUE(links.empty(1));
}

}  // namespace
}  // namespace hring::sim
