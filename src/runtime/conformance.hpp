// Simulator ↔ runtime conformance harness.
//
// The in-host runtime (runtime/inhost/) must be *the same algorithm* the
// simulator proves things about — not a lookalike. This harness makes
// that an executable obligation, in three stages:
//
//   1. Reference: run the election in the step engine (synchronous
//      daemon), record it with a sim::TraceRecorder and project the
//      recording onto the links (sim::link_histories).
//   2. Real run: execute the same cell on the in-host runtime — real
//      threads, byte frames, OS scheduling — recording every link's
//      received messages.
//   3. Compare: every link must carry the reference's message sequence,
//      every process must end in the reference's state, and the firing
//      count and peak space must equal the reference's. The full spec
//      auditor (locality, FIFO, message width, Theorem 2/4 space, the
//      §II spec, termination) checks the reference schedule.
//
// Comparing histories suffices because the ring is a Kahn network: every
// guard but the init action waits on the in-link head and only the
// owner's firing pops it, so each process receives the same messages in
// the same order under every fair schedule. Equal link histories mean
// equal per-process transition sequences, so the audited reference
// transitions are the real run's, in another order consistent with the
// same causality. A mismatch names each link's first divergent message:
// "[link] p3->p4 message 17: expected <TOKEN,5>, observed <TOKEN,7>".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/spec_audit.hpp"
#include "election/algorithm.hpp"
#include "ring/labeled_ring.hpp"
#include "runtime/inhost/inhost_ring.hpp"

namespace hring::runtime {

struct ConformanceConfig {
  /// Runtime knobs for stage 2 (record_trace is forced on).
  InHostConfig inhost;
  /// Require the elected leader to be the ring's true leader — applied
  /// only to algorithms that contractually elect it (A_k and B_k; the
  /// baselines elect *a* leader). Simulator/runtime leader equality is
  /// checked for every algorithm regardless.
  bool check_true_leader = true;
  /// When non-empty, the flight recorder is attached to stage 2 and, if
  /// the check diverges, the forensic report (verdict re-stamped to
  /// "divergence") is written here as hring-forensics/1 JSON. The report
  /// also stays available as inhost.forensics either way.
  std::string flight_out;
};

struct ConformanceReport {
  /// Divergences, each prefixed with its kind ("[link] ...").
  std::vector<std::string> divergences;
  /// Stage 2's result (the real run).
  InHostResult inhost;
  /// The spec audit of the reference schedule.
  core::SpecAuditReport audit;
  /// Leader elected by the reference simulator run.
  std::optional<sim::ProcessId> simulator_leader;
  /// Paper bound the runtime's peak space was checked against (unset for
  /// baseline algorithms — the paper states no bound for them).
  std::optional<std::size_t> space_bound_bits;

  [[nodiscard]] bool ok() const { return divergences.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Runs the three-stage conformance check for `algorithm` on `ring`.
[[nodiscard]] ConformanceReport check_conformance(
    const ring::LabeledRing& ring,
    const election::AlgorithmConfig& algorithm,
    const ConformanceConfig& config = {});

}  // namespace hring::runtime
