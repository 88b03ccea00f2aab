#include "runtime/conformance.hpp"

#include <algorithm>
#include <fstream>

#include "core/election_driver.hpp"
#include "runtime/inhost/forensics.hpp"
#include "sim/trace.hpp"

namespace hring::runtime {
namespace {

using History = std::vector<sim::Message>;

[[nodiscard]] std::string render_pid(std::optional<sim::ProcessId> pid) {
  return pid.has_value() ? std::to_string(*pid) : "none";
}

/// A process's final spec variables and debug_state, in one line.
[[nodiscard]] std::string render_state(const sim::ProcessSnapshot& p) {
  std::string out = "isLeader=" + std::to_string(p.is_leader ? 1 : 0);
  out += " done=" + std::to_string(p.done ? 1 : 0);
  out += " halted=" + std::to_string(p.halted ? 1 : 0);
  out += " leader=" +
         (p.leader.has_value() ? words::to_string(*p.leader) : "none");
  out += " (" + p.debug + ")";
  return out;
}

/// "[link] p3->p4 message 17: expected <TOKEN,5>, observed <TOKEN,7>" for
/// the first message where `observed` leaves `expected`; nullopt when
/// the two histories are equal.
[[nodiscard]] std::optional<std::string> link_divergence(
    std::size_t link, std::size_t n, const History& expected,
    const History& observed) {
  const auto [want, got] = std::mismatch(expected.begin(), expected.end(),
                                         observed.begin(), observed.end());
  if (want == expected.end() && got == observed.end()) return std::nullopt;
  const auto render = [](History::const_iterator it, const History& h) {
    return it == h.end() ? std::string("nothing") : sim::to_string(*it);
  };
  return "[link] p" + std::to_string(link) + "->p" +
         std::to_string(ring::right(link, n)) + " message " +
         std::to_string(want - expected.begin()) + ": expected " +
         render(want, expected) + ", observed " + render(got, observed);
}

}  // namespace

std::string ConformanceReport::summary() const {
  std::string out =
      ok() ? "conformant"
           : "DIVERGENT(" + std::to_string(divergences.size()) + ")";
  out += " | inhost leader=" + render_pid(inhost.leader_pid());
  out += " sim leader=" + render_pid(simulator_leader);
  out += " actions=" + std::to_string(inhost.actions);
  out += " msgs=" + std::to_string(inhost.messages_sent);
  out += " space=" + std::to_string(inhost.peak_space_bits);
  if (space_bound_bits.has_value()) {
    out += "/" + std::to_string(*space_bound_bits);
  }
  out += " bits, audit=" + std::string(audit.ok() ? "ok" : "FAIL");
  return out;
}

ConformanceReport check_conformance(
    const ring::LabeledRing& ring,
    const election::AlgorithmConfig& algorithm,
    const ConformanceConfig& config) {
  ConformanceReport report;
  const std::size_t n = ring.size();
  report.space_bound_bits =
      core::paper_space_bound_bits(algorithm, n, ring.label_bits());

  // -- Stage 1: reference simulator run -----------------------------------
  sim::TraceRecorder trace;
  core::ElectionConfig sim_config;
  sim_config.algorithm = algorithm;
  sim_config.scheduler = core::SchedulerKind::kSynchronous;
  sim_config.extra_observers.push_back(&trace);
  const sim::RunResult reference = core::run_election(ring, sim_config);
  report.simulator_leader = reference.leader_pid();
  if (reference.outcome != sim::Outcome::kTerminated) {
    report.divergences.push_back(
        "[reference] simulator run did not terminate cleanly");
  }
  if (trace.dropped() != 0) {
    report.divergences.push_back(
        "[reference] trace dropped " + std::to_string(trace.dropped()) +
        " firings; the reference link histories are incomplete");
  }

  // -- Stage 2: the real run ----------------------------------------------
  InHostConfig inhost_config = config.inhost;
  inhost_config.record_trace = true;  // stage 3 compares the histories
  if (!config.flight_out.empty()) inhost_config.flight_recorder = true;
  report.inhost =
      run_inhost(ring, election::make_factory(algorithm), inhost_config);
  const InHostResult& real = report.inhost;
  if (real.outcome != sim::Outcome::kTerminated) {
    report.divergences.push_back(
        "[runtime] in-host run outcome is not kTerminated");
  }
  if (real.wire_rejects != 0) {
    report.divergences.push_back(
        "[runtime] " + std::to_string(real.wire_rejects) +
        " wire frames rejected on healthy links");
  }
  if (real.sends_abandoned != 0) {
    report.divergences.push_back(
        "[runtime] " + std::to_string(real.sends_abandoned) +
        " sends abandoned (shutdown during backpressure)");
  }
  if (real.messages_sent != real.messages_received) {
    report.divergences.push_back(
        "[runtime] sent " + std::to_string(real.messages_sent) +
        " != received " + std::to_string(real.messages_received));
  }

  const std::optional<sim::ProcessId> real_leader = real.leader_pid();
  if (real_leader != report.simulator_leader) {
    report.divergences.push_back(
        "[leader] in-host elected " + render_pid(real_leader) +
        ", simulator elected " + render_pid(report.simulator_leader));
  }
  if (config.check_true_leader &&
      election::elects_true_leader(algorithm.id)) {
    const sim::ProcessId expected = ring.true_leader();
    if (real_leader != std::optional<sim::ProcessId>(expected)) {
      report.divergences.push_back(
          "[leader] in-host elected " + render_pid(real_leader) +
          ", ring's true leader is " + std::to_string(expected));
    }
  }

  // -- Stage 3: the real run against the reference ------------------------
  const std::vector<History> expected = sim::link_histories(trace, n);
  for (std::size_t link = 0; link < n; ++link) {
    if (auto line = link_divergence(link, n, expected[link],
                                    real.link_histories[link])) {
      report.divergences.push_back(std::move(*line));
    }
  }
  for (sim::ProcessId pid = 0; pid < n; ++pid) {
    const std::string want = render_state(reference.processes[pid]);
    const std::string got = render_state(real.processes[pid]);
    if (want != got) {
      report.divergences.push_back("[state] p" + std::to_string(pid) +
                                   ": expected " + want + ", observed " +
                                   got);
    }
  }
  if (real.actions != reference.stats.actions) {
    report.divergences.push_back(
        "[stats] runtime performed " + std::to_string(real.actions) +
        " firings, reference " + std::to_string(reference.stats.actions));
  }
  if (real.peak_space_bits != reference.stats.peak_space_bits) {
    report.divergences.push_back(
        "[stats] runtime peak space " +
        std::to_string(real.peak_space_bits) + " bits, reference " +
        std::to_string(reference.stats.peak_space_bits));
  }
  if (report.space_bound_bits.has_value() &&
      real.peak_space_bits > *report.space_bound_bits) {
    report.divergences.push_back(
        "[space] runtime peak " + std::to_string(real.peak_space_bits) +
        " bits exceeds the paper bound " +
        std::to_string(*report.space_bound_bits));
  }
  // Equal histories make the reference's transitions the real run's, so
  // the auditor checks them on the reference schedule.
  report.audit = core::audit_algorithm(
      ring, algorithm,
      core::SpecAuditConfig{.scheduler = core::SchedulerKind::kSynchronous});
  for (const std::string& violation : report.audit.violations) {
    report.divergences.push_back("[audit] " + violation);
  }

  // A divergence with the recorder attached dumps the real run's flight
  // evidence — the report the failing CI job or test leaves behind.
  if (!report.ok() && report.inhost.forensics.has_value()) {
    report.inhost.forensics->verdict = "divergence";
    if (!config.flight_out.empty()) {
      std::ofstream out(config.flight_out);
      if (out) write_forensics_json(out, *report.inhost.forensics);
    }
  }
  return report;
}

}  // namespace hring::runtime
