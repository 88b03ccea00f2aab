// Schedulers (daemons) for the step engine.
//
// A step γ ↦ γ' executes a non-empty subset of the processes enabled in γ
// (§II). The scheduler chooses that subset; the engine separately enforces
// the model's fairness assumption by force-including any process that has
// been continuously enabled for `kFairnessBound` steps.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/process.hpp"
#include "support/rng.hpp"

namespace hring::sim {

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Appends to `out` a non-empty subset of `enabled` (which is non-empty
  /// and sorted by pid). The engine deduplicates against forced picks.
  virtual void select(const std::vector<ProcessId>& enabled,
                      std::vector<ProcessId>& out) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Every enabled process executes — the synchronous daemon of §III. Under
/// this scheduler, steps coincide with the rounds counted by Lemma 1.
class SynchronousScheduler final : public Scheduler {
 public:
  void select(const std::vector<ProcessId>& enabled,
              std::vector<ProcessId>& out) override;
  [[nodiscard]] const char* name() const override { return "synchronous"; }
};

/// Exactly one enabled process executes per step, scanned round-robin from
/// the pid after the previous pick (a fair sequential daemon).
class RoundRobinScheduler final : public Scheduler {
 public:
  void select(const std::vector<ProcessId>& enabled,
              std::vector<ProcessId>& out) override;
  [[nodiscard]] const char* name() const override { return "round-robin"; }

 private:
  ProcessId next_ = 0;
};

/// Exactly one uniformly random enabled process executes per step.
class RandomSingleScheduler final : public Scheduler {
 public:
  explicit RandomSingleScheduler(support::Rng rng) : rng_(rng) {}
  void select(const std::vector<ProcessId>& enabled,
              std::vector<ProcessId>& out) override;
  [[nodiscard]] const char* name() const override { return "random-single"; }

 private:
  support::Rng rng_;
};

/// Each enabled process executes independently with probability `p`; if the
/// coin flips select nobody, one random enabled process is executed so the
/// step is non-empty.
class RandomSubsetScheduler final : public Scheduler {
 public:
  RandomSubsetScheduler(support::Rng rng, double p) : rng_(rng), p_(p) {}
  void select(const std::vector<ProcessId>& enabled,
              std::vector<ProcessId>& out) override;
  [[nodiscard]] const char* name() const override { return "random-subset"; }

 private:
  support::Rng rng_;
  double p_;
};

/// Adversarial convoy daemon: starves the process with the largest pid
/// among the enabled (up to the engine's fairness forcing) by always
/// picking the smallest-pid enabled process. Stresses executions the
/// randomized daemons rarely produce.
class ConvoyScheduler final : public Scheduler {
 public:
  void select(const std::vector<ProcessId>& enabled,
              std::vector<ProcessId>& out) override;
  [[nodiscard]] const char* name() const override { return "convoy"; }
};

}  // namespace hring::sim
