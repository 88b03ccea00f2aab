// Layer probes of the traced run: timed calls into each module's public
// functions, made from the benchmark's own code, on the inputs of the
// workload whose end-to-end metric they explain. Every traced run emits
// every probe's metrics, whichever workload it was started for.
#pragma once

#include <cstdint>

#include "bench.hpp"

namespace perfbench {

/// Runs the probes of the ring, words, election, sim and core layers and
/// the runtime's codec and links, spending about `budget_s` seconds on the
/// timed ones. Adds their metrics to `report` (failed cross-checks as
/// errors) and returns the per-operation costs the cost models use.
[[nodiscard]] LayerCosts run_layer_probes(std::uint64_t seed, double budget_s,
                                          Report& report);

}  // namespace perfbench
