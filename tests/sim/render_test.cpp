#include "sim/render.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ring/labeled_ring.hpp"
#include "sim/engine.hpp"
#include "tests/sim/test_processes.hpp"

namespace hring::sim {
namespace {

using testing::TrivialElectProcess;

TEST(RenderTest, ConfigurationListsProcessesAndLinks) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 3});
  StepEngine engine(ring, TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  std::ostringstream out;
  WatchObserver watch(out, 1);
  engine.add_observer(&watch);
  const auto result = engine.run();
  ASSERT_EQ(result.outcome, Outcome::kTerminated);
  const std::string text = out.str();
  EXPECT_NE(text.find("p0 [1]"), std::string::npos);
  EXPECT_NE(text.find("p1 [2]"), std::string::npos);
  EXPECT_NE(text.find("<- leader"), std::string::npos);
  EXPECT_NE(text.find("in flight"), std::string::npos);
  EXPECT_NE(text.find("FINISH_LABEL"), std::string::npos);
}

TEST(RenderTest, WatchThinsOutput) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 3, 4});

  std::ostringstream every_step;
  {
    StepEngine engine(ring, TrivialElectProcess::make(),
                      Scheduler(SchedulerKind::kSynchronous, 0));
    WatchObserver watch(every_step, 1);
    engine.add_observer(&watch);
    engine.run();
  }
  std::ostringstream every_other;
  {
    StepEngine engine(ring, TrivialElectProcess::make(),
                      Scheduler(SchedulerKind::kSynchronous, 0));
    WatchObserver watch(every_other, 2);
    engine.add_observer(&watch);
    engine.run();
  }
  EXPECT_GT(every_step.str().size(), every_other.str().size());
}

TEST(RenderTest, SummaryCountsStates) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 3});
  StepEngine engine(ring, TrivialElectProcess::make(),
                    Scheduler(SchedulerKind::kSynchronous, 0));
  std::string last_summary;
  // Use a tiny observer to sample the summary at the end of each step.
  class SummaryProbe final : public Observer {
   public:
    explicit SummaryProbe(std::string& out) : out_(out) {}
    void on_step_end(const ExecutionView& view) override {
      out_ = render_summary(view);
    }

   private:
    std::string& out_;
  };
  SummaryProbe probe(last_summary);
  engine.add_observer(&probe);
  ASSERT_EQ(engine.run().outcome, Outcome::kTerminated);
  EXPECT_NE(last_summary.find("1 leader(s)"), std::string::npos);
  EXPECT_NE(last_summary.find("3 done"), std::string::npos);
  EXPECT_NE(last_summary.find("3 halted"), std::string::npos);
  EXPECT_NE(last_summary.find("0 in flight"), std::string::npos);
}

}  // namespace
}  // namespace hring::sim
