// Real concurrency demo: the same Process implementations that run in
// the simulators run here on one OS thread per process, on the in-host
// runtime's lock-free FIFO links. The OS scheduler supplies the
// asynchrony; §II's fairness and reliability assumptions hold, so
// Theorems 2/3 apply — every run elects the true leader, whatever the
// interleaving.
//
//   $ ./threaded_demo [n] [k] [runs]
#include <cstdlib>
#include <iostream>

#include "election/algorithm.hpp"
#include "ring/classes.hpp"
#include "ring/generator.hpp"
#include "runtime/inhost/inhost_ring.hpp"

int main(int argc, char** argv) {
  using namespace hring;

  const std::size_t n =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 16;
  const std::size_t k =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 3;
  const int runs = argc > 3 ? std::atoi(argv[3]) : 5;

  support::Rng rng(2026);
  const auto ring =
      ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
  if (!ring) {
    std::cerr << "could not sample a ring\n";
    return EXIT_FAILURE;
  }
  std::cout << "ring:  " << ring->to_string() << "\n";
  std::cout << "class: " << ring::classify(*ring).to_string() << "\n";
  const auto expected = ring->true_leader();
  std::cout << "true leader: p" << expected << " (label "
            << words::to_string(ring->label(expected)) << ")\n\n";

  for (const auto algo :
       {election::AlgorithmId::kAk, election::AlgorithmId::kBk}) {
    std::cout << election::algorithm_name(algo) << " on " << n
              << " OS threads:\n";
    for (int run = 0; run < runs; ++run) {
      const auto result = runtime::run_inhost(
          *ring, election::make_factory({algo, k, false}));
      const auto leader = result.leader_pid();
      std::cout << "  run " << run << ": "
                << sim::outcome_name(result.outcome) << ", leader p"
                << (leader ? std::to_string(*leader) : "?") << ", "
                << result.messages_sent << " messages, "
                << result.actions << " actions\n";
      if (result.outcome != sim::Outcome::kTerminated ||
          leader != std::optional<sim::ProcessId>(expected)) {
        std::cerr << "UNEXPECTED RESULT\n";
        return EXIT_FAILURE;
      }
    }
  }
  std::cout << "\nEvery OS interleaving elected the same true leader — "
               "the theorems in action\noutside the simulator.\n";
  return EXIT_SUCCESS;
}
