// The reliability assumptions of §II are load-bearing. We inject faults
// aimed at the election-critical message — the initial token of the true
// leader (the unique minimal label) — and watch the election fail
// *detectably*: deadlock, budget exhaustion (no one can ever decide), or
// a verifier/monitor rejection. A fault can also be harmless (e.g. losing
// a token the elected leader would have swallowed anyway); what the
// checker stack guarantees is that a wrong outcome never verifies.
#include <gtest/gtest.h>

#include "core/verification.hpp"
#include "election/ak.hpp"
#include "election/bk.hpp"
#include "ring/generator.hpp"
#include "sim/engine.hpp"
#include "sim/fault_model.hpp"
#include "sim/invariants.hpp"

namespace hring::sim {
namespace {

// True leader is p1 (unique minimal label 1). Under the synchronous
// daemon the first configuration step fires p0..p4 in pid order, so send
// index i is exactly p_i's initial token: index 1 targets the leader's.
ring::LabeledRing test_ring() {
  return ring::LabeledRing::from_values({2, 1, 3, 2, 4});
}
constexpr std::uint64_t kLeaderTokenIndex = 1;

struct FaultRun {
  RunResult result;
  bool verified;
};

FaultRun run_with_faults(const ProcessFactory& factory, FaultModel* model,
                         std::uint64_t max_steps) {
  const auto ring = test_ring();
  StepConfig config;
  config.max_steps = max_steps;
  StepEngine engine(ring, factory, Scheduler(SchedulerKind::kSynchronous, 0),
                    config);
  SpecMonitor monitor;
  engine.add_observer(&monitor);
  engine.set_fault_model(model);
  FaultRun out{engine.run(), false};
  out.result.violations = monitor.violations();
  out.verified = core::verify_election(ring, out.result, true).ok &&
                 out.result.violations.empty();
  return out;
}

TEST(FaultTest, BaselineWithoutFaultsVerifies) {
  FaultRun run =
      run_with_faults(election::AkProcess::factory(2), nullptr, 100'000);
  EXPECT_TRUE(run.verified);
  EXPECT_EQ(run.result.stats.faults_injected, 0u);
}

TEST(FaultTest, DroppingTheLeadersTokenBreaksAk) {
  // The label 1 never circulates: either nobody's srp becomes a Lyndon
  // word (no decision) or a wrong process decides — both must be flagged.
  SingleFault fault(kLeaderTokenIndex, FaultDecision::dropped());
  FaultRun run =
      run_with_faults(election::AkProcess::factory(2), &fault, 20'000);
  EXPECT_EQ(run.result.stats.faults_injected, 1u);
  EXPECT_FALSE(run.verified);
}

TEST(FaultTest, DroppingTheLeadersTokenDeadlocksBk) {
  // B_k's phase-1 barrier needs every guest to circulate; without the
  // minimal guest, p1 can never count its own guest k times and stalls in
  // COMPUTE while the first PHASE_SHIFT reaches it — a deadlock.
  SingleFault fault(kLeaderTokenIndex, FaultDecision::dropped());
  FaultRun run =
      run_with_faults(election::BkProcess::factory(2), &fault, 50'000);
  EXPECT_EQ(run.result.stats.faults_injected, 1u);
  EXPECT_FALSE(run.verified);
  EXPECT_NE(run.result.outcome, Outcome::kTerminated);
}

TEST(FaultTest, DuplicatingTheLeadersTokenStallsAk) {
  // The duplicate rides right behind the original: every process sees the
  // 6-label cycle (…,1,1,…) whose Lyndon rotation starts at the duplicate
  // pair — a rotation owned by no process (only p1 has label 1 and its
  // window starts 1,2,…). Nobody can ever satisfy Leader(σ).
  SingleFault fault(kLeaderTokenIndex, FaultDecision::duplicated());
  FaultRun run =
      run_with_faults(election::AkProcess::factory(2), &fault, 4'000);
  EXPECT_EQ(run.result.stats.faults_injected, 1u);
  EXPECT_FALSE(run.verified);
  EXPECT_EQ(run.result.outcome, Outcome::kBudgetExhausted);
}

TEST(FaultTest, CorruptingTheLeadersTokenBreaksAk) {
  // The minimal label is rewritten on the wire: p1 still holds it locally
  // (its string starts with the now-globally-unique 1 and stays a Lyndon
  // word), so p1 elects itself on a garbage view while everyone else
  // derives a different leader label — monitor and verifier must object.
  SingleFault fault(kLeaderTokenIndex,
                    FaultDecision::corrupted(Label(9)));
  FaultRun run =
      run_with_faults(election::AkProcess::factory(2), &fault, 100'000);
  EXPECT_EQ(run.result.stats.faults_injected, 1u);
  EXPECT_FALSE(run.verified);
}

TEST(FaultTest, ProbabilisticFaultsNeverYieldAVerifiedWrongWinner) {
  // Random fault mixes: some runs break detectably, a lucky few may be
  // harmless — but a run that verifies must have elected the true leader
  // (p1), and at least one seed must demonstrate a detectable failure.
  std::size_t flagged = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ProbabilisticFaults faults(
        support::Rng(seed),
        ProbabilisticFaults::Rates{.drop = 0.02, .duplicate = 0.02,
                                   .reorder = 0.02, .corrupt = 0.02},
        /*max_faults=*/3);
    FaultRun run =
        run_with_faults(election::AkProcess::factory(2), &faults, 4'000);
    if (!run.verified) {
      ++flagged;
    } else {
      const auto leader = run.result.leader_pid();
      ASSERT_TRUE(leader.has_value()) << "seed " << seed;
      EXPECT_EQ(*leader, 1u) << "seed " << seed;
    }
  }
  EXPECT_GE(flagged, 1u);
}

TEST(FaultTest, ReorderSwapsPayloads) {
  Link link;
  link.push(Message::token(Label(1)));
  link.push(Message::token(Label(2)));
  link.swap_last_two_payloads();
  EXPECT_EQ(link.pop().label, Label(2));
  EXPECT_EQ(link.pop().label, Label(1));
}

TEST(FaultTest, FaultDecisionFaultyFlag) {
  EXPECT_FALSE(FaultDecision{}.faulty());
  EXPECT_TRUE((FaultDecision::dropped()).faulty());
  EXPECT_TRUE((FaultDecision::duplicated()).faulty());
  EXPECT_TRUE((FaultDecision::reordered()).faulty());
  EXPECT_TRUE((FaultDecision::corrupted(Label(1))).faulty());
}

TEST(FaultTest, SingleFaultTargetsExactSendIndex) {
  SingleFault fault(2, FaultDecision::dropped());
  EXPECT_FALSE(fault.on_send(0, 0, Message::finish()).faulty());
  EXPECT_FALSE(fault.on_send(1, 0, Message::finish()).faulty());
  EXPECT_TRUE(fault.on_send(2, 0, Message::finish()).drop);
  EXPECT_FALSE(fault.on_send(3, 0, Message::finish()).faulty());
}

TEST(FaultTest, ProbabilisticRespectsCap) {
  ProbabilisticFaults faults(
      support::Rng(3),
      ProbabilisticFaults::Rates{.drop = 1.0, .duplicate = 0, .reorder = 0,
                                 .corrupt = 0},
      /*max_faults=*/2);
  std::uint64_t injected = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (faults.on_send(i, 0, Message::token(Label(1))).faulty()) ++injected;
  }
  EXPECT_EQ(injected, 2u);
  EXPECT_EQ(faults.injected(), 2u);
}

}  // namespace
}  // namespace hring::sim
