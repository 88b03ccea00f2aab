#include "core/election_driver.hpp"

#include "sim/engine.hpp"
#include "sim/event_engine.hpp"
#include "sim/invariants.hpp"
#include "support/assert.hpp"

namespace hring::core {
namespace {

/// The kind among the enumerators up to `last` whose name is `name`.
template <class Kind>
std::optional<Kind> kind_from_name(std::string_view name, Kind last,
                                   const char* (*name_of)(Kind)) {
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (name == name_of(static_cast<Kind>(i))) return static_cast<Kind>(i);
  }
  return std::nullopt;
}

}  // namespace

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kStep:
      return "step";
    case EngineKind::kEvent:
      return "event";
  }
  HRING_ASSERT(false);
}

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
      return "uniform";
    case DelayKind::kSlowLink:
      return "slow-link";
  }
  HRING_ASSERT(false);
}

std::optional<EngineKind> engine_kind_from_name(std::string_view name) {
  return kind_from_name(name, EngineKind::kEvent, engine_kind_name);
}

std::optional<SchedulerKind> scheduler_kind_from_name(std::string_view name) {
  return kind_from_name(name, SchedulerKind::kConvoy, scheduler_kind_name);
}

std::optional<DelayKind> delay_kind_from_name(std::string_view name) {
  return kind_from_name(name, DelayKind::kSlowLink, delay_kind_name);
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
    sim::EventConfig event_config;
    event_config.max_actions = config.budget;
    static thread_local sim::EventEngine engine;
    engine.prepare(ring, factory,
                   sim::Delay(config.delay, config.seed, ring.size()),
                   event_config);
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
