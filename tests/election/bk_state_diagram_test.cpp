// Experiment E6: conformance of B_k's runtime behaviour to the state
// diagram of Figure 2. Every observed (state, action, state') transition of
// every process, across rings and schedulers, must be one of the diagram's
// edges, and terminal flags must match the diagram's annotations
// (isLeader on WIN, done on HALT).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/election_driver.hpp"
#include "election/bk.hpp"
#include "ring/generator.hpp"
#include "sim/engine.hpp"
#include "sim/observer.hpp"

namespace hring::election {
namespace {

struct Edge {
  BkState from;
  std::string action;
  BkState to;
  friend bool operator<(const Edge& a, const Edge& b) {
    return std::tie(a.from, a.action, a.to) <
           std::tie(b.from, b.action, b.to);
  }
};

const std::set<Edge>& figure2_edges() {
  static const std::set<Edge> kEdges = {
      {BkState::kInit, "B1", BkState::kCompute},
      {BkState::kCompute, "B2", BkState::kCompute},
      {BkState::kCompute, "B3", BkState::kCompute},
      {BkState::kCompute, "B4", BkState::kPassive},
      {BkState::kCompute, "B5", BkState::kShift},
      {BkState::kShift, "B6", BkState::kCompute},
      {BkState::kShift, "B9", BkState::kWin},
      {BkState::kPassive, "B7", BkState::kPassive},
      {BkState::kPassive, "B8", BkState::kPassive},
      {BkState::kPassive, "B10", BkState::kHalt},
      {BkState::kWin, "B11", BkState::kHalt},
  };
  return kEdges;
}

/// Observer that checks every fired transition against Figure 2.
class DiagramChecker final : public sim::Observer {
 public:
  void on_start(const sim::ExecutionView& view) override {
    previous_.assign(view.process_count(), BkState::kInit);
  }

  void on_action(const sim::ExecutionView& view,
                 const sim::ActionEvent& event) override {
    const auto& proc =
        dynamic_cast<const BkProcess&>(view.process(event.pid));
    const Edge edge{previous_[event.pid], std::string(event.action),
                    proc.state()};
    if (figure2_edges().count(edge) == 0) {
      std::string bad = "p";
      bad += std::to_string(event.pid);
      bad += ": ";
      bad += bk_state_name(edge.from);
      bad += " --";
      bad += edge.action;
      bad += "--> ";
      bad += bk_state_name(edge.to);
      bad_edges_.push_back(std::move(bad));
    }
    observed_.insert(edge);
    previous_[event.pid] = proc.state();
    // Figure 2 annotations: WIN marks isLeader, HALT marks done.
    if (proc.state() == BkState::kWin && !proc.is_leader()) {
      bad_edges_.push_back("WIN without isLeader");
    }
    if (proc.state() == BkState::kHalt && !proc.done()) {
      bad_edges_.push_back("HALT without done");
    }
  }

  [[nodiscard]] const std::vector<std::string>& bad_edges() const {
    return bad_edges_;
  }
  [[nodiscard]] const std::set<Edge>& observed() const { return observed_; }

 private:
  std::vector<BkState> previous_;
  std::vector<std::string> bad_edges_;
  std::set<Edge> observed_;
};

TEST(BkStateDiagramTest, Figure1RingUsesOnlyDiagramEdges) {
  const auto ring =
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2});
  sim::StepEngine engine(ring, BkProcess::factory(3),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  DiagramChecker checker;
  engine.add_observer(&checker);
  ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated);
  EXPECT_TRUE(checker.bad_edges().empty())
      << checker.bad_edges().front();
}

TEST(BkStateDiagramTest, RandomRingsCoverEveryEdge) {
  // Across a sweep of random rings every edge of Figure 2 should actually
  // occur — the census proves the diagram is tight, not just sound.
  std::set<Edge> observed;
  support::Rng rng(0xF16);
  for (int rep = 0; rep < 30; ++rep) {
    const std::size_t n = 3 + rng.below(10);
    const std::size_t k = 2 + rng.below(3);
    const std::size_t alphabet = (n + k - 1) / k + 2;
    const auto ring = ring::random_asymmetric_ring(n, k, alphabet, rng);
    ASSERT_TRUE(ring.has_value());
    sim::StepEngine engine(*ring, BkProcess::factory(k),
                           sim::Scheduler(sim::SchedulerKind::kRoundRobin, 0));
    DiagramChecker checker;
    engine.add_observer(&checker);
    ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated)
        << ring->to_string();
    EXPECT_TRUE(checker.bad_edges().empty())
        << ring->to_string() << ": " << checker.bad_edges().front();
    observed.insert(checker.observed().begin(), checker.observed().end());
  }
  for (const Edge& edge : figure2_edges()) {
    EXPECT_TRUE(observed.count(edge) > 0)
        << "edge never exercised: " << bk_state_name(edge.from) << " --"
        << edge.action << "--> " << bk_state_name(edge.to);
  }
}

TEST(BkStateDiagramTest, AsyncSchedulersConformToo) {
  support::Rng rng(0xD1A6);
  for (const auto sched_kind :
       {core::SchedulerKind::kRandomSingle,
        core::SchedulerKind::kRandomSubset, core::SchedulerKind::kConvoy}) {
    const auto ring = ring::random_asymmetric_ring(9, 3, 6, rng);
    ASSERT_TRUE(ring.has_value());
    DiagramChecker checker;
    core::ElectionConfig config;
    config.algorithm = {AlgorithmId::kBk, 3, false};
    config.scheduler = sched_kind;
    config.seed = rng();
    config.extra_observers.push_back(&checker);
    const auto result = core::run_election(*ring, config);
    EXPECT_EQ(result.outcome, sim::Outcome::kTerminated);
    EXPECT_TRUE(checker.bad_edges().empty())
        << core::scheduler_kind_name(sched_kind) << ": "
        << checker.bad_edges().front();
  }
}

}  // namespace
}  // namespace hring::election
