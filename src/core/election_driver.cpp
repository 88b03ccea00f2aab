#include "core/election_driver.hpp"

#include <memory>

#include "sim/delay_model.hpp"
#include "sim/engine.hpp"
#include "sim/event_engine.hpp"
#include "sim/invariants.hpp"
#include "sim/scheduler.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace hring::core {

namespace {

std::unique_ptr<sim::DelayModel> make_delay_model(DelayKind kind,
                                                  std::uint64_t seed,
                                                  std::size_t n) {
  switch (kind) {
    case DelayKind::kWorstCase:
      return std::make_unique<sim::ConstantDelay>(1.0);
    case DelayKind::kUniformRandom:
      return std::make_unique<sim::UniformDelay>(support::Rng(seed), 0.05,
                                                 1.0);
    case DelayKind::kSlowLink:
      return std::make_unique<sim::SlowLinkDelay>(
          static_cast<sim::ProcessId>(seed % n), 0.05);
  }
  HRING_ASSERT(false);
}

}  // namespace

const char* scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kSynchronous:
      return "synchronous";
    case SchedulerKind::kRoundRobin:
      return "round-robin";
    case SchedulerKind::kRandomSingle:
      return "random-single";
    case SchedulerKind::kRandomSubset:
      return "random-subset";
    case SchedulerKind::kConvoy:
      return "convoy";
  }
  HRING_ASSERT(false);
}

const char* delay_kind_name(DelayKind kind) {
  switch (kind) {
    case DelayKind::kWorstCase:
      return "worst-case";
    case DelayKind::kUniformRandom:
      return "uniform-random";
    case DelayKind::kSlowLink:
      return "slow-link";
  }
  HRING_ASSERT(false);
}

sim::RunResult run_election(const ring::LabeledRing& ring,
                            const ElectionConfig& config) {
  const sim::ProcessFactory factory =
      election::make_factory(config.algorithm);
  sim::SpecMonitor monitor;

  const auto wire = [&](sim::ExecutionCore& engine) {
    if (config.monitor_spec) {
      engine.add_observer(&monitor);
      if (config.stop_on_violation) {
        engine.set_stop_hook(&monitor, [](void* ctx) {
          return static_cast<sim::SpecMonitor*>(ctx)->violated();
        });
      }
    }
    for (sim::Observer* obs : config.extra_observers) {
      if (obs != nullptr) engine.add_observer(obs);
    }
  };

  // One engine of each kind per thread, recycled across calls: sweeps run
  // thousands of cells through run_election, and prepare() rebinds the
  // engine without reallocating links, counters or the wake heap.
  sim::RunResult result;
  if (config.engine == EngineKind::kStep) {
    sim::StepConfig step_config;
    step_config.max_steps = config.budget;
    static thread_local sim::StepEngine engine;
    engine.prepare(ring, factory,
                   sim::Scheduler(config.scheduler, config.seed), step_config);
    wire(engine);
    result = engine.run();
  } else {
    const auto delay =
        make_delay_model(config.delay, config.seed, ring.size());
    sim::EventConfig event_config;
    event_config.max_actions = config.budget;
    static thread_local sim::EventEngine engine;
    engine.prepare(ring, factory, *delay, event_config);
    wire(engine);
    result = engine.run();
  }
  result.violations = monitor.violations();
  if (!result.violations.empty() && result.outcome == sim::Outcome::kTerminated) {
    result.outcome = sim::Outcome::kViolation;
  }
  return result;
}

}  // namespace hring::core
