#include "probes.hpp"

#include <deque>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/election_driver.hpp"
#include "core/model_checker.hpp"
#include "core/verification.hpp"
#include "ring/generator.hpp"
#include "runtime/inhost/inhost_links.hpp"
#include "runtime/wire.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hr::election::AlgorithmId;
using hr::ring::LabeledRing;
using hr::sim::Message;

/// Seed of probe `salt` in a run seeded with `seed`.
std::uint64_t probe_seed(std::uint64_t seed, std::uint64_t salt) {
  return unit_seed(seed, (std::uint64_t{1} << 63) | salt);
}

/// Calls `op` until `budget_s` has elapsed (at least once); returns the
/// mean seconds per call.
template <class Op>
double time_per_call(double budget_s, Op op) {
  const auto start = Clock::now();
  std::uint64_t calls = 0;
  double elapsed = 0.0;
  do {
    op();
    ++calls;
    elapsed = seconds_since(start);
  } while (elapsed < budget_s);
  return elapsed / static_cast<double>(calls);
}

// -- ring / words -------------------------------------------------------------

/// ring.gen_us: one random_asymmetric_ring(8, 2, ...) draw with the sweep
/// campaigns' alphabet. ring.true_leader_us: LabeledRing::true_leader()
/// (Booth's least rotation) on those rings, checked against the naive
/// definition.
void probe_ring(std::uint64_t seed, double budget_s, Report& report,
                LayerCosts& costs) {
  hr::support::Rng rng(probe_seed(seed, 1));
  std::vector<LabeledRing> rings;
  bool drew = true;
  costs.ring_gen_us = 1e6 * time_per_call(budget_s / 2, [&] {
    auto r = hr::ring::random_asymmetric_ring(kSweepAk.n, kSweepAk.k,
                                              kSweepAk.alphabet(), rng);
    if (!r.has_value()) {
      drew = false;
      return;
    }
    if (rings.size() < 4096) rings.push_back(std::move(*r));
  });
  if (!drew || rings.empty()) {
    report.error("random_asymmetric_ring failed to draw a ring");
    return;
  }
  std::size_t next = 0;
  std::size_t leaders = 0;
  costs.true_leader_us = 1e6 * time_per_call(budget_s / 2, [&] {
    leaders += rings[next].true_leader();
    next = (next + 1) % rings.size();
  });
  for (std::size_t i = 0; i < rings.size() && i < 256; ++i) {
    if (rings[i].true_leader() != rings[i].true_leader_naive()) {
      report.error("true_leader disagrees with its definition on " +
                   rings[i].to_string());
    }
  }
  report.metric("ring.gen_us", "us", costs.ring_gen_us);
  report.metric("ring.true_leader_us", "us", costs.true_leader_us);
}

// -- election: process snapshots ----------------------------------------------

/// Unbounded FIFO links for driving processes directly.
class QueueContext final : public hr::sim::Context {
 public:
  QueueContext(std::deque<Message>& in, std::deque<Message>& out)
      : in_(in), out_(out) {}
  Message consume() override {
    const Message msg = in_.front();
    in_.pop_front();
    return msg;
  }
  void send(const Message& msg) override { out_.push_back(msg); }
  void note_action(std::string_view /*name*/) override {}

 private:
  std::deque<Message>& in_;
  std::deque<Message>& out_;
};

struct Snapshot {
  std::size_t pid = 0;
  std::vector<std::uint64_t> words;
};

/// Runs `algorithm` on `ring` round-robin to termination and returns each
/// firing process's encoded state after the firing: the states the model
/// checker stores and restores.
std::vector<Snapshot> record_states(
    const LabeledRing& ring, const hr::election::AlgorithmConfig& algorithm,
    std::vector<std::unique_ptr<hr::sim::Process>>& procs, Report& report) {
  const std::size_t n = ring.size();
  const auto factory = hr::election::make_factory(algorithm);
  procs.clear();
  for (std::size_t pid = 0; pid < n; ++pid) {
    procs.push_back(factory(pid, ring.label(pid)));
  }
  std::vector<std::deque<Message>> links(n);  // link i: p_i -> p_{i+1}
  std::vector<Snapshot> states;
  for (bool progress = true; progress && states.size() < 100000;) {
    progress = false;
    for (std::size_t pid = 0; pid < n; ++pid) {
      std::deque<Message>& in = links[(pid + n - 1) % n];
      const Message* head = in.empty() ? nullptr : &in.front();
      hr::sim::Process& proc = *procs[pid];
      if (proc.halted() || !proc.enabled(head)) continue;
      QueueContext ctx(in, links[pid]);
      proc.fire(head, ctx);
      Snapshot snap{pid, {}};
      proc.encode(snap.words);
      states.push_back(std::move(snap));
      progress = true;
    }
  }
  for (const auto& proc : procs) {
    if (!proc->halted()) {
      report.error(std::string(hr::election::algorithm_name(algorithm.id)) +
                   " did not terminate on " + ring.to_string());
      break;
    }
  }
  return states;
}

/// election.snapshot_ns: one Process::decode + Process::encode round trip
/// (the model checker's restore and re-encode of one process), over every
/// state an A_k resp. B_k election passes through on a modelcheck-size
/// ring. Each round trip must reproduce its words.
void probe_snapshots(std::uint64_t seed, double budget_s, Report& report,
                     LayerCosts& costs) {
  hr::support::Rng rng(probe_seed(seed, 2));
  const std::optional<LabeledRing> ring =
      hr::ring::random_asymmetric_ring(6, 2, 3, rng);
  if (!ring.has_value()) {
    report.error("could not draw a modelcheck-size ring");
    return;
  }
  for (const AlgorithmId id : {AlgorithmId::kAk, AlgorithmId::kBk}) {
    std::vector<std::unique_ptr<hr::sim::Process>> procs;
    const std::vector<Snapshot> states = record_states(
        *ring, {id, ring->max_multiplicity(), false}, procs, report);
    if (states.empty()) continue;
    std::vector<std::uint64_t> words;
    std::size_t next = 0;
    bool faithful = true;
    const double ns = 1e9 * time_per_call(budget_s / 2, [&] {
      const Snapshot& snap = states[next];
      const std::uint64_t* it = snap.words.data();
      const std::uint64_t* const end = it + snap.words.size();
      const bool decoded = procs[snap.pid]->decode(it, end);
      words.clear();
      procs[snap.pid]->encode(words);
      faithful = faithful && decoded && it == end && words == snap.words;
      next = (next + 1) % states.size();
    });
    if (!faithful) {
      report.error(std::string(hr::election::algorithm_name(id)) +
                   " snapshot round trip did not reproduce the state");
    }
    (id == AlgorithmId::kAk ? costs.snapshot_ns_ak : costs.snapshot_ns_bk) = ns;
  }
  report.metric("election.snapshot_ns", "ns",
                (costs.snapshot_ns_ak + costs.snapshot_ns_bk) / 2);
}

// -- election / sim / core: one campaign's cells -------------------------------

struct CellCopy {
  bool seen = false;
  bool verified = false;
  std::uint64_t election_seed = 0;
  hr::sim::Stats stats;
};

/// Runs a campaign of `cells` cells of a sweep workload with a cell sink,
/// then replays every cell sequentially through run_election: Stats must
/// match field for field (the batch engine's obligation on A_k, the
/// scalar engine's determinism on B_k), verify_election must pass and the
/// leader must be the ring's true leader. Reports election.<algo>.* (exact
/// per-election means) and, for B_k, sim.* and core.verify_us.
void probe_cells(const SweepParams& params, const char* prefix,
                 std::size_t cells, std::uint64_t seed, double budget_s,
                 Report& report, LayerCosts& costs) {
  const std::uint64_t campaign_seed = probe_seed(seed, 3);
  hr::core::SweepConfig config = params.config(campaign_seed);
  config.cells = cells;
  std::vector<CellCopy> copies(cells);
  config.cell_sink = [&copies](const hr::core::CellView& view) {
    CellCopy& copy = copies[view.cell];
    copy.seen = true;
    copy.verified = view.verified;
    copy.election_seed = view.election_seed;
    copy.stats = view.stats;
  };
  const hr::core::CampaignResult campaign = hr::core::run_campaign(config);
  if (!campaign.all_verified()) {
    report.error(std::string(prefix) + " campaign failed verification");
  }

  std::vector<LabeledRing> rings;
  std::vector<hr::core::ElectionConfig> elections;
  double steps = 0, actions = 0, messages = 0, comparisons = 0;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const CellCopy& copy = copies[cell];
    rings.push_back(params.cell_ring(campaign_seed, cell));
    hr::core::ElectionConfig election = config.election;
    election.seed = hr::core::derive_cell_seeds(campaign_seed, cell).election_seed;
    election.monitor_spec = false;
    election.stop_on_violation = false;
    elections.push_back(election);
    const hr::sim::RunResult replay =
        hr::core::run_election(rings.back(), election);
    if (!copy.seen || !copy.verified || replay.stats != copy.stats ||
        election.seed != copy.election_seed) {
      report.error(std::string(prefix) + " cell " + std::to_string(cell) +
                   " differs between the campaign and run_election");
    }
    if (!hr::core::verify_election(rings.back(), replay, true).ok ||
        replay.leader_pid() !=
            std::optional<std::size_t>(rings.back().true_leader())) {
      report.error(std::string(prefix) + " cell " + std::to_string(cell) +
                   " did not elect the true leader");
    }
    steps += static_cast<double>(copy.stats.steps);
    actions += static_cast<double>(copy.stats.actions);
    messages += static_cast<double>(copy.stats.messages_sent);
    comparisons += static_cast<double>(copy.stats.label_comparisons);
  }
  const double count = static_cast<double>(cells);
  const std::string name = std::string("election.") + prefix;
  report.metric(name + ".steps", "count", steps / count);
  report.metric(name + ".actions", "count", actions / count);
  report.metric(name + ".messages", "count", messages / count);
  report.metric(name + ".label_cmps", "count", comparisons / count);
  if (params.algorithm != AlgorithmId::kBk) return;

  // sim.*: the same cells, sequentially on the step engine; core.verify_us
  // on their results.
  std::vector<hr::sim::RunResult> results(cells);
  std::size_t next = 0;
  double run_actions = 0;
  std::uint64_t runs = 0;
  const auto start = Clock::now();
  do {
    results[next] = hr::core::run_election(rings[next], elections[next]);
    run_actions += static_cast<double>(results[next].stats.actions);
    ++runs;
    next = (next + 1) % cells;
  } while (next != 0 || seconds_since(start) < budget_s / 2);
  const double run_s = seconds_since(start);
  costs.sim_election_us = run_s * 1e6 / static_cast<double>(runs);
  bool verified = true;
  costs.verify_us = 1e6 * time_per_call(budget_s / 2, [&] {
    verified = verified &&
               hr::core::verify_election(rings[next], results[next], true).ok;
    next = (next + 1) % cells;
  });
  if (!verified) report.error("verify_election rejected a replayed cell");
  report.metric("sim.election_us", "us", costs.sim_election_us);
  report.metric("sim.ns_per_action", "ns", run_s * 1e9 / run_actions);
  report.metric("core.verify_us", "us", costs.verify_us);
}

/// core.batch_us_per_election / core.scalar_us_per_election: sweep-ak's
/// cells over one fixed ring, one worker, on each engine.
/// core.campaign_scaling: sweep-ak's campaign with two workers against
/// one. Rounds alternate the four campaigns; medians over rounds.
void probe_campaigns(std::uint64_t seed, double budget_s, Report& report,
                     LayerCosts& costs) {
  constexpr std::size_t kCells = 2048;
  const std::uint64_t campaign_seed = probe_seed(seed, 4);
  hr::core::SweepConfig fixed = kSweepAk.config(campaign_seed);
  fixed.source = hr::core::RingSource::fixed(kSweepAk.cell_ring(campaign_seed, 0));
  fixed.cells = kCells;
  fixed.workers = 1;
  hr::core::SweepConfig batch = fixed;
  batch.backend = hr::core::CampaignBackend::kBatch;
  hr::core::SweepConfig scalar = fixed;
  scalar.backend = hr::core::CampaignBackend::kScalar;
  hr::core::SweepConfig one = kSweepAk.config(campaign_seed);
  one.cells = kCells;
  one.workers = 1;
  hr::core::SweepConfig two = one;
  two.workers = 2;

  bool verified = true;
  const auto wall_us_per_cell = [&](const hr::core::SweepConfig& config) {
    const auto start = Clock::now();
    const hr::core::CampaignResult result = hr::core::run_campaign(config);
    verified = verified && result.all_verified() &&
               result.outcome_count(hr::sim::Outcome::kTerminated) == kCells;
    return seconds_since(start) * 1e6 / static_cast<double>(kCells);
  };
  std::vector<double> batch_us, scalar_us, scaling;
  const auto start = Clock::now();
  do {
    batch_us.push_back(wall_us_per_cell(batch));
    scalar_us.push_back(wall_us_per_cell(scalar));
    const double one_us = wall_us_per_cell(one);
    const double two_us = wall_us_per_cell(two);
    scaling.push_back(one_us / (2 * two_us));
  } while (seconds_since(start) < budget_s);
  if (!verified) report.error("a probe campaign failed verification");
  costs.batch_us_per_election = quantile(batch_us, 0.5);
  report.metric("core.batch_us_per_election", "us",
                costs.batch_us_per_election);
  report.metric("core.scalar_us_per_election", "us", quantile(scalar_us, 0.5));
  report.metric("core.campaign_scaling", "ratio", quantile(scaling, 0.5));
}

/// core.mc_*: exhaustive search of every canonical asymmetric n=5 ring over
/// three labels, A_k and B_k. Fixed inputs, so the counts are the same in
/// every run.
void probe_checker(Report& report) {
  std::uint64_t configs = 0, transitions = 0, terminal = 0;
  const auto start = Clock::now();
  for (const auto& r : hr::ring::enumerate_rings(5, 3, true, true)) {
    for (const AlgorithmId id : {AlgorithmId::kAk, AlgorithmId::kBk}) {
      const hr::core::ModelCheckReport check = hr::core::check_all_schedules(
          r, {id, r.max_multiplicity(), false});
      if (!check.ok || !check.complete) {
        report.error("model check failed on " + r.to_string());
      }
      configs += check.configurations;
      transitions += check.transitions;
      terminal += check.terminal_configurations;
    }
  }
  const double wall_s = seconds_since(start);
  report.metric("core.mc_configs", "count", static_cast<double>(configs));
  report.metric("core.mc_transitions", "count",
                static_cast<double>(transitions));
  report.metric("core.mc_terminal", "count", static_cast<double>(terminal));
  report.metric("core.mc_ns_per_transition", "ns",
                wall_s * 1e9 / static_cast<double>(transitions));
}

// -- runtime: codec and links --------------------------------------------------

/// The messages of an A_k/B_k election, labels within 3 bits.
std::vector<Message> sample_messages() {
  std::vector<Message> messages;
  for (std::uint64_t v = 1; v <= 6; ++v) {
    const hr::sim::Label label(static_cast<hr::sim::Label::rep_type>(v));
    messages.push_back(Message::token(label));
    messages.push_back(Message::phase_shift(label));
    messages.push_back(Message::finish_label(label));
  }
  messages.push_back(Message::finish());
  return messages;
}

constexpr std::size_t kProbeLabelBits = 3;

/// runtime.codec_ns: one wire::encode + wire::decode pair, which must
/// return the message.
void probe_codec(double budget_s, Report& report) {
  const std::vector<Message> messages = sample_messages();
  hr::runtime::wire::Frame frame;
  std::size_t next = 0;
  bool faithful = true;
  const double ns = 1e9 * time_per_call(budget_s, [&] {
    Message out;
    std::uint64_t ts = 0;
    hr::runtime::wire::encode(messages[next], next, frame);
    faithful = faithful &&
               hr::runtime::wire::decode(frame, kProbeLabelBits, out, ts) ==
                   hr::runtime::wire::DecodeError::kOk &&
               out == messages[next] && ts == next;
    next = (next + 1) % messages.size();
  });
  if (!faithful) report.error("wire codec did not round-trip a message");
  report.metric("runtime.codec_ns", "ns", ns);
}

/// runtime.link_roundtrip_ns: one InHostLinks send + peek + recv_peeked on
/// a single thread (no contention, no parking).
void probe_link(double budget_s, Report& report) {
  const std::vector<Message> messages = sample_messages();
  hr::runtime::InHostLinks links;
  links.reset(1, kProbeLabelBits, 64 * hr::runtime::wire::kFrameBytes);
  std::size_t next = 0;
  bool faithful = true;
  const double ns = 1e9 * time_per_call(budget_s, [&] {
    links.send(0, messages[next]);
    const Message* head = links.peek(0);
    faithful = faithful && head != nullptr && *head == messages[next];
    if (head == nullptr) return;
    std::uint64_t ts = 0;
    faithful = faithful && links.recv_peeked(0, ts) == messages[next];
    next = (next + 1) % messages.size();
  });
  if (!faithful) report.error("InHostLinks did not deliver a message");
  report.metric("runtime.link_roundtrip_ns", "ns", ns);
}

}  // namespace

LayerCosts run_layer_probes(std::uint64_t seed, double budget_s,
                            Report& report) {
  LayerCosts costs;
  probe_ring(seed, 0.10 * budget_s, report, costs);
  probe_snapshots(seed, 0.10 * budget_s, report, costs);
  probe_cells(kSweepAk, "ak", 1024, seed, 0.0, report, costs);
  probe_cells(kSweepBk, "bk", 256, seed, 0.20 * budget_s, report, costs);
  probe_campaigns(seed, 0.45 * budget_s, report, costs);
  probe_checker(report);
  probe_codec(0.05 * budget_s, report);
  probe_link(0.05 * budget_s, report);
  return costs;
}

}  // namespace perfbench
