// In-host runtime: real threads, SPSC byte links, wire frames.
//
// Correctness here is the conformance harness's job
// (tests/runtime/conformance_test.cpp); these tests cover the runtime's
// own machinery — election results across all five algorithms at
// growing worker counts (the TSan stress matrix), homonym rings under
// real schedules, budget and deadlock outcomes, telemetry, the links'
// cancel and doorbell paths, and the wire-path mutation tests that inject
// corrupted byte streams straight into the links.
#include "runtime/inhost/inhost_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "ring/labeled_ring.hpp"
#include "runtime/inhost/inhost_links.hpp"
#include "runtime/wire.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"
#include "tests/sim/test_processes.hpp"

namespace hring::runtime {
namespace {

using election::AlgorithmConfig;
using election::AlgorithmId;
using sim::Label;
using sim::Message;

TEST(InHostRingTest, ElectsTrueLeaderOnSmallRing) {
  const auto ring = ring::LabeledRing::from_values({3, 1, 4, 1, 5});
  const auto result =
      run_inhost(ring, election::make_factory({AlgorithmId::kAk, 2, false}));
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_EQ(result.leader_pid(),
            std::optional<sim::ProcessId>(ring.true_leader()));
  EXPECT_EQ(result.messages_sent, result.messages_received);
  EXPECT_EQ(result.wire_rejects, 0u);
  EXPECT_EQ(result.sends_abandoned, 0u);
  EXPECT_GT(result.actions, 0u);
  EXPECT_GT(result.peak_space_bits, 0u);
}

TEST(InHostRingTest, LinkHistoriesMatchTheSimulatorRun) {
  // Every consumed message lands in its in-link's history, in order, and
  // the histories are the ones the step engine's run carries.
  const auto ring = ring::LabeledRing::from_values({2, 7, 1, 8});
  const auto factory = election::make_factory({AlgorithmId::kAk, 1, false});
  InHostConfig config;
  config.record_trace = true;
  const auto result = run_inhost(ring, factory, config);
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  ASSERT_EQ(result.link_histories.size(), ring.size());
  std::uint64_t recorded = 0;
  for (const auto& history : result.link_histories) {
    recorded += history.size();
  }
  EXPECT_EQ(recorded, result.messages_received);

  sim::SynchronousScheduler sched;
  sim::StepEngine engine(ring, factory, sched);
  sim::TraceRecorder trace;
  engine.add_observer(&trace);
  ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated);
  EXPECT_EQ(result.link_histories, sim::link_histories(trace, ring.size()));
}

TEST(InHostRingTest, HistoriesAreOffByDefault) {
  const auto ring = ring::LabeledRing::from_values({2, 7, 1, 8});
  const auto result = run_inhost(
      ring, election::make_factory({AlgorithmId::kChangRoberts, 1, false}));
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_TRUE(result.link_histories.empty());
}

TEST(InHostRingTest, LatencyTelemetryIsRecorded) {
  const auto ring = ring::LabeledRing::from_values({3, 1, 4, 1, 5});
  const auto result =
      run_inhost(ring, election::make_factory({AlgorithmId::kBk, 2, false}));
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  const auto* latency =
      result.metrics.find_histogram("inhost_message_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), result.messages_received);
  const auto* rejects = result.metrics.find_counter("inhost_wire_rejects");
  ASSERT_NE(rejects, nullptr);
  EXPECT_EQ(rejects->value, 0u);
}

TEST(InHostRingTest, BudgetExhaustionIsReported) {
  const auto ring = ring::LabeledRing::from_values({3, 1, 4, 1, 5});
  InHostConfig config;
  config.max_actions_per_process = 2;  // far below what A_2 needs
  const auto result = run_inhost(
      ring, election::make_factory({AlgorithmId::kAk, 2, false}), config);
  EXPECT_EQ(result.outcome, sim::Outcome::kBudgetExhausted);
}

// -- Homonym rings ---------------------------------------------------------
// The stress matrix runs distinct labels only. A_k and B_k exist for rings
// with repeated labels; every OS schedule must elect the true leader
// there too.

void expect_clean_election(const ring::LabeledRing& ring,
                           const InHostResult& result,
                           std::optional<ring::ProcessIndex> expected) {
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated) << ring.to_string();
  const auto leader = result.leader_pid();
  ASSERT_TRUE(leader.has_value()) << ring.to_string();
  if (expected.has_value()) {
    EXPECT_EQ(*leader, *expected) << ring.to_string();
  }
  const auto leader_label = ring.label(*leader);
  for (const auto& p : result.processes) {
    EXPECT_TRUE(p.done) << "p" << p.pid;
    EXPECT_TRUE(p.halted) << "p" << p.pid;
    ASSERT_TRUE(p.leader.has_value()) << "p" << p.pid;
    EXPECT_EQ(*p.leader, leader_label) << "p" << p.pid;
  }
  EXPECT_EQ(result.messages_sent, result.messages_received);
  EXPECT_EQ(result.wire_rejects, 0u);
}

TEST(InHostRingTest, AkElectsOnRemark122) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  const auto result =
      run_inhost(ring, election::make_factory({AlgorithmId::kAk, 2, false}));
  expect_clean_election(ring, result, ring.true_leader());
}

TEST(InHostRingTest, BkElectsOnFigure1Ring) {
  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  const auto result =
      run_inhost(ring, election::make_factory({AlgorithmId::kBk, 3, false}));
  expect_clean_election(ring, result, 0);
}

TEST(InHostRingTest, RandomHomonymRingsRepeatedRuns) {
  // Every OS schedule must produce the same winner: repeat runs on the
  // same rings and cross-check against the true leader.
  support::Rng rng(0x7412);
  for (int rep = 0; rep < 5; ++rep) {
    const std::size_t n = 3 + rng.below(10);
    const std::size_t k = 1 + rng.below(3);
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    ASSERT_TRUE(ring.has_value());
    for (const auto algo : {AlgorithmId::kAk, AlgorithmId::kBk}) {
      for (int run = 0; run < 3; ++run) {
        const auto result =
            run_inhost(*ring, election::make_factory({algo, k, false}));
        expect_clean_election(*ring, result, ring->true_leader());
      }
    }
  }
}

TEST(InHostRingTest, WiderHomonymRing) {
  support::Rng rng(0x7414);
  const auto ring = ring::random_asymmetric_ring(32, 2, 18, rng);
  ASSERT_TRUE(ring.has_value());
  const auto result = run_inhost(
      *ring, election::make_factory({AlgorithmId::kAk, 2, false}));
  expect_clean_election(*ring, result, ring->true_leader());
}

// -- Degenerate processes --------------------------------------------------

TEST(InHostRingTest, DeadlockDetectedByWatchdog) {
  // Every process sends one token at init and never receives: the
  // watchdog must call the stall a deadlock.
  const auto ring = ring::LabeledRing::from_values({1, 2, 3});
  InHostConfig config;
  config.quiet_period_ms = 50;
  const auto result =
      run_inhost(ring, sim::testing::DeafSenderProcess::make(), config);
  EXPECT_EQ(result.outcome, sim::Outcome::kDeadlock);
  EXPECT_EQ(result.messages_sent, 3u);
  EXPECT_EQ(result.messages_received, 0u);
}

TEST(InHostRingTest, BudgetGuardsAgainstLivelock) {
  // Tokens circulate forever: unlike a slow election, this run never
  // ends on its own, so only the per-process budget stops it.
  const auto ring = ring::LabeledRing::from_values({1, 2, 3});
  InHostConfig config;
  config.max_actions_per_process = 100;
  config.quiet_period_ms = 50;
  const auto result =
      run_inhost(ring, sim::testing::ForeverForwardProcess::make(), config);
  EXPECT_EQ(result.outcome, sim::Outcome::kBudgetExhausted);
}

TEST(InHostRingTest, TrivialElectionTerminates) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 3, 4});
  const auto result =
      run_inhost(ring, sim::testing::TrivialElectProcess::make());
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_EQ(result.leader_pid(), std::optional<sim::ProcessId>(0));
  EXPECT_EQ(result.messages_sent, 4u);
}

// -- TSan stress matrix ----------------------------------------------------
// All five algorithms at ring sizes from 3 to 64 workers. Under the tsan
// preset this is the runtime's main race hunt: start latch, SPSC traffic,
// backpressure, shutdown — every pairing gets exercised at every size.

struct StressCase {
  AlgorithmId id;
  std::size_t k;
};

class InHostStressTest : public ::testing::TestWithParam<StressCase> {};

TEST_P(InHostStressTest, ElectionsAcrossRingSizes) {
  const StressCase param = GetParam();
  support::Rng rng(0xC0FFEE);
  for (const std::size_t n : {3u, 8u, 24u, 64u}) {
    // Distinct labels: K_1 ⊆ K_k, so one ring family serves every
    // algorithm, baselines included.
    const auto ring = ring::distinct_ring(n, rng);
    const auto result = run_inhost(
        ring, election::make_factory({param.id, param.k, false}));
    ASSERT_EQ(result.outcome, sim::Outcome::kTerminated)
        << algorithm_name(param.id) << " n=" << n;
    ASSERT_TRUE(result.leader_pid().has_value())
        << algorithm_name(param.id) << " n=" << n;
    EXPECT_EQ(result.messages_sent, result.messages_received);
    EXPECT_EQ(result.wire_rejects, 0u);
    if (election::elects_true_leader(param.id)) {
      EXPECT_EQ(result.leader_pid(),
                std::optional<sim::ProcessId>(ring.true_leader()));
    }
  }
}

// gtest prints a StressCase's raw bytes, padding included, into the test
// name. A static array has its padding zero-filled, so the names are the
// same on every run; temporaries built on the stack carried stack garbage.
constexpr StressCase kStressCases[] = {
    {AlgorithmId::kAk, 1},           {AlgorithmId::kAk, 3},
    {AlgorithmId::kBk, 2},           {AlgorithmId::kChangRoberts, 1},
    {AlgorithmId::kLeLann, 1},       {AlgorithmId::kPeterson, 1},
};

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, InHostStressTest, ::testing::ValuesIn(kStressCases),
    [](const ::testing::TestParamInfo<StressCase>& param_info) {
      return std::string(algorithm_name(param_info.param.id)) + "_k" +
             std::to_string(param_info.param.k);
    });

// -- Link cancel and doorbell paths ----------------------------------------

TEST(InHostLinksTest, FifoPerPortWithStablePeekAndIndependentPorts) {
  InHostLinks links;
  links.reset(3, /*label_bits=*/8, /*capacity_bytes=*/1024);
  EXPECT_EQ(links.ports(), 3u);
  EXPECT_EQ(links.depth(0), 0u);
  EXPECT_EQ(links.peek(0), nullptr);

  links.send(0, Message::token(Label(1)));
  links.send(0, Message::token(Label(2)));
  links.send(1, Message::finish());
  EXPECT_EQ(links.depth(0), 2u);
  EXPECT_EQ(links.depth(1), 1u);

  // peek() decodes the head without consuming it; repeated peeks agree.
  const Message* head = links.peek(0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(*head, Message::token(Label(1)));
  const Message* again = links.peek(0);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(*again, Message::token(Label(1)));
  EXPECT_EQ(links.depth(0), 2u);

  // recv_peeked() removes in send order.
  std::uint64_t ts = 0;
  EXPECT_EQ(links.recv_peeked(0, ts), Message::token(Label(1)));
  ASSERT_NE(links.peek(0), nullptr);
  EXPECT_EQ(links.recv_peeked(0, ts), Message::token(Label(2)));
  EXPECT_EQ(links.peek(0), nullptr);
  EXPECT_EQ(links.depth(0), 0u);

  // Port 1 was untouched by port 0's traffic.
  const Message* other = links.peek(1);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(*other, Message::finish());
}

TEST(InHostLinksTest, FullPortSendWaitsForRoomOrCancel) {
  // A 64-byte queue holds three 17-byte frames.
  InHostLinks links;
  links.reset(1, /*label_bits=*/8, /*capacity_bytes=*/64);
  for (Label::rep_type i = 1; i <= 3; ++i) {
    ASSERT_TRUE(links.send_cancelable(0, Message::token(Label(i)),
                                      [] { return false; }));
  }
  ASSERT_EQ(links.depth(0), 3u);
  std::uint64_t ts = 0;

  // A send on the full port waits until the consumer drains a frame,
  // then enqueues.
  {
    std::atomic<bool> returned{false};
    bool pushed = false;
    std::thread producer([&] {
      pushed = links.send_cancelable(0, Message::token(Label(4)),
                                     [] { return false; });
      returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(returned.load());  // still waiting on the full port
    // No ASSERT before the join: an early return would leave the thread
    // unjoined.
    const Message* head = links.peek(0);
    EXPECT_NE(head, nullptr);
    if (head != nullptr) {
      EXPECT_EQ(links.recv_peeked(0, ts), Message::token(Label(1)));
    }
    producer.join();
    EXPECT_TRUE(pushed);
    EXPECT_EQ(links.depth(0), 3u);
  }

  // The runtime's shutdown path: a producer waiting out a full port
  // gives up once cancel turns true, from another thread, and enqueues
  // nothing.
  std::atomic<bool> cancel{false};
  std::atomic<bool> returned{false};
  bool pushed = true;
  std::thread producer([&] {
    pushed = links.send_cancelable(0, Message::token(Label(5)), [&] {
      return cancel.load(std::memory_order_relaxed);
    });
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(returned.load());  // still waiting on the full port
  cancel.store(true, std::memory_order_relaxed);
  producer.join();
  EXPECT_FALSE(pushed);
  EXPECT_EQ(links.depth(0), 3u);
  EXPECT_EQ(links.pending_bytes(0), 3 * wire::kFrameBytes);
  for (Label::rep_type i = 2; i <= 4; ++i) {
    ASSERT_NE(links.peek(0), nullptr);
    EXPECT_EQ(links.recv_peeked(0, ts), Message::token(Label(i)));
  }
  EXPECT_EQ(links.peek(0), nullptr);  // the canceled frame never arrived
}

TEST(InHostLinksTest, ParkedConsumerWakesOnSendAndOnRingAll) {
  InHostLinks links;
  links.reset(2, /*label_bits=*/8, /*capacity_bytes=*/1024);

  // Port 0: the producer's send ends the consumer's park, and the woken
  // consumer sees the frame.
  Message seen{};
  std::thread consumer([&] {
    const std::uint32_t ticket = links.doorbell(0);
    if (links.peek(0) == nullptr) links.doorbell_wait(0, ticket);
    if (const Message* head = links.peek(0)) seen = *head;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  links.send(0, Message::token(Label(9)));
  consumer.join();
  EXPECT_EQ(seen, Message::token(Label(9)));

  // Port 1: no traffic at all; ring_all (shutdown) ends the park.
  std::atomic<bool> stop{false};
  std::thread waiter([&] {
    while (!stop.load()) {
      const std::uint32_t ticket = links.doorbell(1);
      if (stop.load()) break;
      links.doorbell_wait(1, ticket);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop.store(true);
  links.ring_all();
  waiter.join();
  EXPECT_EQ(links.peek(1), nullptr);
}

TEST(InHostLinksTest, RecvWithoutAValidPeekViolatesPrecondition) {
  // The §II consumer contract: consume only what you peeked. Breaking it
  // fails the precondition loudly instead of handing out a stale frame.
  InHostLinks links;
  links.reset(1, /*label_bits=*/8, /*capacity_bytes=*/1024);
  std::uint64_t ts = 0;
  EXPECT_DEATH((void)links.recv_peeked(0, ts), "precondition");
  ASSERT_EQ(links.peek(0), nullptr);  // an empty peek is not a valid one
  EXPECT_DEATH((void)links.recv_peeked(0, ts), "precondition");
}

// -- Wire-path mutation tests ----------------------------------------------
// PR 4 hardened the codecs against corrupted streams; these tests turn
// that into runtime behavior: garbage injected into a live link must be
// rejected and contained — the election still terminates correctly.

TEST(InHostLinksMutationTest, CorruptFramesAreDroppedAndCounted) {
  InHostLinks links;
  links.reset(2, /*label_bits=*/8, /*capacity_bytes=*/1024);

  // A valid frame sandwiched between two corrupt ones.
  wire::Frame bad_tag;
  wire::encode(Message::token(Label(1)), 0, bad_tag);
  bad_tag[0] = 0xEE;  // out-of-range kind
  links.poke_raw(0, bad_tag.data(), bad_tag.size());
  links.send(0, Message::token(Label(5)));
  wire::Frame overflow;
  wire::encode(Message::token(Label(3)), 0, overflow);
  overflow[2] = 0xFF;  // label bits far past label_bits=8
  links.poke_raw(0, overflow.data(), overflow.size());

  // peek skips the leading bad frame and serves the valid one.
  const Message* head = links.peek(0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(*head, Message::token(Label(5)));
  EXPECT_EQ(links.rejects(0), 1u);
  std::uint64_t ts = 0;
  EXPECT_EQ(links.recv_peeked(0, ts), Message::token(Label(5)));
  // The trailing bad frame is consumed and rejected by the next scan.
  EXPECT_EQ(links.peek(0), nullptr);
  EXPECT_EQ(links.rejects(0), 2u);
  EXPECT_EQ(links.total_rejects(), 2u);
}

TEST(InHostLinksMutationTest, TruncatedTailWaitsWithoutCrashing) {
  // A partial frame (producer mid-write in a real deployment) is not an
  // error: the consumer simply does not see a message yet.
  InHostLinks links;
  links.reset(1, /*label_bits=*/8, /*capacity_bytes=*/1024);
  wire::Frame frame;
  wire::encode(Message::token(Label(7)), 0, frame);
  links.poke_raw(0, frame.data(), 5);  // first 5 bytes only
  EXPECT_EQ(links.peek(0), nullptr);
  EXPECT_EQ(links.depth(0), 0u);
  EXPECT_EQ(links.pending_bytes(0), 5u);
  EXPECT_EQ(links.rejects(0), 0u);  // incomplete != corrupt
  // The rest of the frame arrives: the message materializes.
  links.poke_raw(0, frame.data() + 5, frame.size() - 5);
  const Message* head = links.peek(0);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(*head, Message::token(Label(7)));
}

TEST(InHostRingMutationTest, ElectionSurvivesInjectedGarbage) {
  // Corrupted frames seeded into every link of a live ring: the workers'
  // decoders must reject them on arrival while the election elects over
  // the surviving traffic — containment, not just detection.
  const auto ring = ring::LabeledRing::from_values({3, 1, 4, 1, 5});
  InHostConfig config;
  config.pre_start_poke = [&](InHostLinks& links) {
    std::vector<std::uint8_t> garbage(wire::kFrameBytes, 0xEE);
    for (std::size_t port = 0; port < ring.size(); ++port) {
      links.poke_raw(port, garbage.data(), garbage.size());
    }
  };
  const auto result = run_inhost(
      ring, election::make_factory({AlgorithmId::kAk, 2, false}), config);
  ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_EQ(result.leader_pid(),
            std::optional<sim::ProcessId>(ring.true_leader()));
  EXPECT_EQ(result.wire_rejects, ring.size());  // one garbage frame per link
  EXPECT_EQ(result.messages_sent, result.messages_received);
}

TEST(InHostRingMutationTest, TruncatedStreamInjectionDoesNotWedgeTheRun) {
  // A trailing partial frame on one link (a crashed producer's last
  // write, in deployment terms): the consumer must treat it as
  // not-yet-a-message. The election completes; the run reports dirty
  // links honestly (the orphan bytes never become a message).
  const auto ring = ring::LabeledRing::from_values({2, 7, 1, 8});
  std::vector<std::uint8_t> half(7, 0x55);
  InHostConfig config;
  config.pre_start_poke = [&](InHostLinks& links) {
    links.poke_raw(0, half.data(), half.size());
  };
  const auto result = run_inhost(
      ring, election::make_factory({AlgorithmId::kChangRoberts, 1, false}),
      config);
  // The orphan 7 bytes shift port 0's stream off frame alignment: every
  // later frame on that port decodes as garbage and is dropped. The
  // runtime must neither crash nor hang — it ends via the watchdog (the
  // election cannot complete with a poisoned link) with rejects counted.
  EXPECT_NE(result.outcome, sim::Outcome::kTerminated);
  EXPECT_GT(result.wire_rejects, 0u);
}

}  // namespace
}  // namespace hring::runtime
