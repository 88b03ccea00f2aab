// hring-lint fixture: seeded no-block-in-hot-path violations.
//
// This file is linted, never compiled. Hot-path methods (and guarded
// enabled/fire actions) must stay on-CPU: the check walks the
// name-resolved call graph from each root and reports any reachable
// blocking sink (sleep, yield, futex wait, poll, latch and semaphore
// waits...). Parking belongs in the doorbell protocol; a deliberate block
// is justified with hring-nolint(no-block-in-hot-path) on the call-site
// line. A sink name that resolves to a project-defined body is treated as
// that body, not the syscall.
#include <chrono>
#include <cstdint>
#include <latch>
#include <semaphore>
#include <thread>

namespace fixture {

class BadStepper {
 public:
  // hring-lint: hot-path
  void step() {  // hring-expect: no-block-in-hot-path
    std::this_thread::sleep_for(std::chrono::microseconds(5));
  }

  // hring-lint: hot-path
  void step_all() {  // hring-expect: no-block-in-hot-path
    for (int i = 0; i < 4; ++i) settle();
  }

 private:
  // Not itself a root: the sink is reported at the hot roots that can
  // reach it through the call graph.
  void settle() { nap(); }
  void nap() { std::this_thread::sleep_for(std::chrono::microseconds(1)); }
};

// The C++20 waits block as surely as a sleep: a start latch or a
// shutdown semaphore is the coordinator's business, never a hot path's.
class BadWaiter {
 public:
  // hring-lint: hot-path
  void start() {  // hring-expect: no-block-in-hot-path
    start_.arrive_and_wait();
  }

  // hring-lint: hot-path
  void drain() {  // hring-expect: no-block-in-hot-path
    exited_.acquire();
  }

 private:
  std::latch start_{2};
  std::binary_semaphore exited_{0};
};

// The clean twin: a hot path that stays on compute helpers, a project
// method whose name collides with a blocking syscall (select), and a
// justified deliberate block.
class CleanStepper {
 public:
  // hring-lint: hot-path
  void step() {
    accumulate(select(7));
  }

  // hring-lint: hot-path
  void settle() {
    std::this_thread::yield();  // hring-nolint(no-block-in-hot-path): test rig spins down here
  }

 private:
  // Scheduler-style selection, not ::select(2).
  [[nodiscard]] std::uint64_t select(std::uint64_t seed) const {
    return seed * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  void accumulate(std::uint64_t v) { acc_ += v; }

  std::uint64_t acc_ = 0;
};

}  // namespace fixture
