// encode()/decode() round-trips for every algorithm that supports
// snapshot restoration. The model checker interns local states by their
// encodings and decodes one into a process to discover its steps:
// decode(encode(p)) must reproduce p's complete local state (witnessed by
// re-encoding) at every point of an execution, not just at the start.
//
// The mutation tests below attack the codec the other way: a decoder fed
// a corrupted stream — truncated, or with its words rotated out of their
// field slots — must either refuse it (return false) or demonstrably
// re-encode something else. Silent acceptance of a corrupt snapshot is
// the one failure mode the round-trip test can never see.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/election_driver.hpp"
#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "ring/labeled_ring.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"

namespace hring::election {
namespace {

class CodecProbe : public sim::Observer {
 public:
  explicit CodecProbe(const AlgorithmConfig& algorithm, std::size_t every)
      : factory_(make_factory(algorithm)), every_(every) {}

  void on_step_end(const sim::ExecutionView& view) override {
    if (++steps_ % every_ != 0) return;
    for (sim::ProcessId pid = 0; pid < view.process_count(); ++pid) {
      const sim::Process& original = view.process(pid);
      std::vector<std::uint64_t> words;
      original.encode(words);

      // Decode into a FRESH process from the factory (the checker decodes
      // into recycled ones; fresh is the stricter start state).
      auto restored = factory_(pid, original.id());
      const std::uint64_t* it = words.data();
      const std::uint64_t* const end = words.data() + words.size();
      ASSERT_TRUE(restored->decode(it, end)) << "pid " << pid;
      EXPECT_EQ(it, end) << "decode left trailing words, pid " << pid;

      std::vector<std::uint64_t> reencoded;
      restored->encode(reencoded);
      EXPECT_EQ(words, reencoded) << "round-trip mismatch, pid " << pid
                                  << " at step " << steps_;
      EXPECT_EQ(restored->is_leader(), original.is_leader());
      EXPECT_EQ(restored->done(), original.done());
      EXPECT_EQ(restored->halted(), original.halted());
      EXPECT_EQ(restored->leader(), original.leader());
      ++checked_;
    }
  }

  [[nodiscard]] std::uint64_t checked() const { return checked_; }

 private:
  sim::ProcessFactory factory_;
  std::size_t every_;
  std::uint64_t steps_ = 0;
  std::uint64_t checked_ = 0;
};

class CodecTest : public ::testing::TestWithParam<AlgorithmId> {};

TEST_P(CodecTest, RoundTripsAtEveryExecutionStage) {
  const AlgorithmId algo = GetParam();
  const bool paper = algo == AlgorithmId::kAk || algo == AlgorithmId::kBk;
  support::Rng rng(0xC0DEC);
  // Paper algorithms get a homonym ring (k = 2); baselines need K_1.
  const auto ring = paper
                        ? *ring::random_asymmetric_ring(8, 2, 6, rng)
                        : ring::distinct_ring(8, rng);
  const std::size_t k = paper ? 2 : 1;
  const AlgorithmConfig algorithm{algo, k, false};

  sim::SynchronousScheduler scheduler;
  sim::StepEngine engine(ring, make_factory(algorithm), scheduler);
  CodecProbe probe(algorithm, /*every=*/3);
  engine.add_observer(&probe);
  const auto result = engine.run();
  EXPECT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_GT(probe.checked(), 0u) << "probe never ran";
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CodecTest,
                         ::testing::Values(AlgorithmId::kAk, AlgorithmId::kBk,
                                           AlgorithmId::kChangRoberts,
                                           AlgorithmId::kLeLann,
                                           AlgorithmId::kPeterson),
                         [](const auto& param_info) {
                           return std::string(
                               algorithm_name(param_info.param));
                         });

// --- mutation tests -------------------------------------------------------

/// Collects (pid, id, encoded words) snapshots across an execution, so the
/// mutations below attack real mid-run states, not just the initial one.
class SnapshotCollector : public sim::Observer {
 public:
  struct Snapshot {
    sim::ProcessId pid = 0;
    sim::Label id;
    std::vector<std::uint64_t> words;
  };

  explicit SnapshotCollector(std::size_t every) : every_(every) {}

  void on_step_end(const sim::ExecutionView& view) override {
    if (++steps_ % every_ != 0) return;
    for (sim::ProcessId pid = 0; pid < view.process_count(); ++pid) {
      Snapshot snap;
      snap.pid = pid;
      snap.id = view.process(pid).id();
      view.process(pid).encode(snap.words);
      snapshots_.push_back(std::move(snap));
    }
  }

  [[nodiscard]] const std::vector<Snapshot>& snapshots() const {
    return snapshots_;
  }

 private:
  std::size_t every_;
  std::uint64_t steps_ = 0;
  std::vector<Snapshot> snapshots_;
};

/// All labels >= 16: a label word rotated into the 4-bit flags slot then
/// carries out-of-range bits the hardened decoders must refuse. Distinct
/// labels keep every algorithm in its class (distinct => asymmetric, and
/// K_1 is a subset of K_k).
ring::LabeledRing high_label_ring() {
  constexpr std::uint64_t kLabels[] = {17, 29, 23, 41, 31, 53, 47, 61};
  words::LabelSequence seq;
  for (const std::uint64_t v : kLabels) seq.emplace_back(v);
  return ring::LabeledRing(std::move(seq));
}

std::vector<SnapshotCollector::Snapshot> run_and_snapshot(
    const AlgorithmConfig& algorithm) {
  sim::SynchronousScheduler scheduler;
  sim::StepEngine engine(high_label_ring(), make_factory(algorithm),
                         scheduler);
  SnapshotCollector collector(/*every=*/2);
  engine.add_observer(&collector);
  const auto result = engine.run();
  EXPECT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_FALSE(collector.snapshots().empty());
  return collector.snapshots();
}

TEST_P(CodecTest, RejectsEveryTruncatedStream) {
  const AlgorithmConfig algorithm{GetParam(), 2, false};
  const auto factory = make_factory(algorithm);
  for (const auto& snap : run_and_snapshot(algorithm)) {
    // Every strict prefix must be refused: each decoder knows exactly how
    // many words its fields need and bounds-checks before reading.
    for (std::size_t len = 0; len < snap.words.size(); ++len) {
      auto fresh = factory(snap.pid, snap.id);
      const std::uint64_t* it = snap.words.data();
      const std::uint64_t* const end = snap.words.data() + len;
      EXPECT_FALSE(fresh->decode(it, end))
          << "accepted a " << len << "-word prefix of a "
          << snap.words.size() << "-word snapshot, pid " << snap.pid;
    }
  }
}

TEST_P(CodecTest, DetectsRotatedFieldStreams) {
  const AlgorithmConfig algorithm{GetParam(), 2, false};
  const auto factory = make_factory(algorithm);
  for (const auto& snap : run_and_snapshot(algorithm)) {
    // Rotate the stream one word left: every field lands in the slot of
    // its neighbour. The decoder must refuse (range validation), leave
    // words unread, or provably restore something else (re-encode
    // mismatch). What it may never do is silently accept the rotation as
    // the original state.
    std::vector<std::uint64_t> mutated(snap.words.begin() + 1,
                                       snap.words.end());
    mutated.push_back(snap.words.front());
    if (mutated == snap.words) continue;  // identity mutation: vacuous

    auto fresh = factory(snap.pid, snap.id);
    const std::uint64_t* it = mutated.data();
    const std::uint64_t* const end = mutated.data() + mutated.size();
    if (!fresh->decode(it, end) || it != end) continue;  // refused: good
    std::vector<std::uint64_t> reencoded;
    fresh->encode(reencoded);
    EXPECT_NE(reencoded, mutated)
        << "a rotated stream was accepted as a canonical snapshot, pid "
        << snap.pid;
  }
}

// --- A_k: decode into a process that already holds a state ---------------

/// Serves one given head message to a firing and records what it sends.
class ScriptContext final : public sim::Context {
 public:
  explicit ScriptContext(const sim::Message* head) : head_(head) {}

  sim::Message consume() override {
    consumed_ = true;
    return *head_;
  }
  void send(const sim::Message& msg) override { sent_.push_back(msg); }
  void note_action(std::string_view /*name*/) override {}

  [[nodiscard]] bool consumed() const { return consumed_; }
  [[nodiscard]] const std::vector<sim::Message>& sent() const { return sent_; }

 private:
  const sim::Message* head_;
  bool consumed_ = false;
  std::vector<sim::Message> sent_;
};

/// One firing: the head it consumed (A1 consumes none), what it sent and
/// the process's encoding afterwards.
struct Firing {
  std::optional<sim::Message> consumed;
  std::vector<sim::Message> sent;
  std::vector<std::uint64_t> after;
};

/// Records every firing of a run, per process in order: every state a
/// process passes through, as the model checker interns them.
class FiringRecorder : public sim::Observer {
 public:
  explicit FiringRecorder(std::size_t n) : firings_(n) {}

  void on_action(const sim::ExecutionView& view,
                 const sim::ActionEvent& event) override {
    Firing firing{event.consumed, event.sent, {}};
    view.process(event.pid).encode(firing.after);
    firings_[event.pid].push_back(std::move(firing));
  }

  [[nodiscard]] const std::vector<std::vector<Firing>>& firings() const {
    return firings_;
  }

 private:
  std::vector<std::vector<Firing>> firings_;
};

/// decode() of all of `words`, which must consume exactly them.
bool decode_exactly(sim::Process& proc,
                    const std::vector<std::uint64_t>& words) {
  const std::uint64_t* it = words.data();
  const std::uint64_t* const end = words.data() + words.size();
  return proc.decode(it, end) && it == end;
}

std::vector<std::uint64_t> encoded(const sim::Process& proc) {
  std::vector<std::uint64_t> words;
  proc.encode(words);
  return words;
}

TEST(AkCodecTest, DecodeIntoAHeldStateBehavesAsIntoAFreshProcess) {
  // AkProcess::decode truncates when the encoded string is a prefix of
  // the string it holds (the model checker returning a process to an
  // earlier state of its search path) and rebuilds otherwise.
  // Its label counts and max count are not in encode(), so only behaviour
  // shows them: whatever the process held before, decoding a recorded
  // state must re-encode to it and then replay the recorded continuation
  // firing for firing.
  support::Rng rng(0xDEC0DE);
  const std::vector<ring::LabeledRing> rings = {
      ring::LabeledRing::from_values({1, 2, 2}),
      ring::LabeledRing::from_values({1, 3, 1, 3, 2, 2, 1, 2}),
      *ring::random_asymmetric_ring(6, 2, 3, rng),
  };
  for (const auto& ring : rings) {
    const AlgorithmConfig algorithm{AlgorithmId::kAk, ring.max_multiplicity(),
                                    false};
    const auto factory = make_factory(algorithm);
    sim::SynchronousScheduler scheduler;
    sim::StepEngine engine(ring, factory, scheduler);
    FiringRecorder recorder(ring.size());
    engine.add_observer(&recorder);
    ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated);
    const auto& firings = recorder.firings();
    const std::size_t n = ring.size();
    for (sim::ProcessId p = 0; p < n; ++p) {
      // A process with another label: its strings start with that label,
      // so none of p's strings is a prefix of them (the rebuild path).
      sim::ProcessId other = 0;
      while (ring.label(other) == ring.label(p)) ++other;
      const std::vector<Firing>& own = firings[p];
      for (std::size_t j = 0; j < own.size(); ++j) {
        // What the process holds before decoding state j: nothing (fresh),
        // the state one firing later (an undo), its final state, and
        // another pid's final state (the rebuild).
        const std::vector<std::uint64_t>* held[] = {
            nullptr,
            &own[std::min(j + 1, own.size() - 1)].after,
            &own.back().after,
            &firings[other].back().after,
        };
        for (const auto* before : held) {
          const auto proc = factory(p, ring.label(p));
          if (before != nullptr) {
            ASSERT_TRUE(decode_exactly(*proc, *before));
          }
          ASSERT_TRUE(decode_exactly(*proc, own[j].after));
          ASSERT_EQ(encoded(*proc), own[j].after)
              << ring.to_string() << " p" << p << " state " << j;
          for (std::size_t t = j + 1; t < own.size(); ++t) {
            ASSERT_TRUE(own[t].consumed.has_value());  // only A1 does not
            const sim::Message& head = *own[t].consumed;
            ASSERT_TRUE(proc->enabled(&head));
            ScriptContext ctx(&head);
            proc->fire(&head, ctx);
            EXPECT_TRUE(ctx.consumed());
            EXPECT_EQ(ctx.sent(), own[t].sent)
                << ring.to_string() << " p" << p << " from state " << j
                << ", firing " << t;
            ASSERT_EQ(encoded(*proc), own[t].after)
                << ring.to_string() << " p" << p << " from state " << j
                << ", firing " << t;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hring::election
