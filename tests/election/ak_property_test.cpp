// Deeper A_k properties: the claims inside Theorem 2's proof and the §IV
// lemmas, checked on live executions (not just the end state).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/election_driver.hpp"
#include "core/experiment.hpp"
#include "election/ak.hpp"
#include "ring/generator.hpp"
#include "sim/engine.hpp"
#include "tests/words/reference.hpp"
#include "words/lyndon.hpp"
#include "words/periodicity.hpp"

namespace hring::election {
namespace {

using core::ElectionConfig;

/// Observer checking, after every step, that every A_k string is a prefix
/// of LLabels(p) and stays under the proof's length bound (2k+1)n.
class AkStringMonitor final : public sim::Observer {
 public:
  AkStringMonitor(const ring::LabeledRing& ring, std::size_t k)
      : ring_(ring), bound_((2 * k + 1) * ring.size()) {}

  void on_step_end(const sim::ExecutionView& view) override {
    for (sim::ProcessId pid = 0; pid < view.process_count(); ++pid) {
      const auto& proc =
          dynamic_cast<const AkProcess&>(view.process(pid));
      const auto& s = proc.grown_string();
      ASSERT_LE(s.size(), bound_)
          << "p" << pid << " string exceeded (2k+1)n";
      // Prefix check against LLabels(p), O(1) amortized: compare only the
      // last appended element (earlier ones were checked in prior steps).
      if (!s.empty()) {
        const std::size_t n = ring_.size();
        const std::size_t t = s.size() - 1;
        EXPECT_EQ(s.back(), ring_.label((pid + n - (t % n)) % n))
            << "p" << pid << " position " << t;
      }
    }
  }

 private:
  const ring::LabeledRing& ring_;
  std::size_t bound_;
};

TEST(AkPropertyTest, StringsAreLLabelsPrefixesThroughoutTheRun) {
  support::Rng rng(0xA0);
  for (int rep = 0; rep < 6; ++rep) {
    const std::size_t n = 3 + rng.below(8);
    const std::size_t k = 1 + rng.below(3);
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    ASSERT_TRUE(ring.has_value());
    AkStringMonitor monitor(*ring, k);
    sim::StepEngine engine(*ring, AkProcess::factory(k),
                           sim::Scheduler(sim::SchedulerKind::kRoundRobin, 0));
    engine.add_observer(&monitor);
    ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated)
        << ring->to_string();
  }
}

TEST(AkPropertyTest, LeaderStringHas2kPlus1CopiesAtElection) {
  // The A3 guard: when L elects, its string contains >= 2k+1 copies of
  // some label (Lemma 6's hypothesis).
  const std::size_t k = 2;
  const auto ring = ring::LabeledRing::from_values({1, 3, 2, 3, 2});
  sim::StepEngine engine(ring, AkProcess::factory(k),
                         sim::Scheduler(sim::SchedulerKind::kSynchronous, 0));
  ASSERT_EQ(engine.run().outcome, sim::Outcome::kTerminated);
  for (sim::ProcessId pid = 0; pid < ring.size(); ++pid) {
    const auto& proc = dynamic_cast<const AkProcess&>(engine.process(pid));
    if (!proc.is_leader()) continue;
    std::size_t best = 0;
    for (const auto l : proc.grown_string()) {
      best = std::max(best,
                      words::count_occurrences(proc.grown_string(), l));
    }
    EXPECT_GE(best, 2 * k + 1);
    // And Lemma 6: the string then fully determines R.
    const auto prefix = words::srp(proc.grown_string());
    EXPECT_EQ(prefix.size(), ring.size());
    EXPECT_TRUE(words::is_lyndon(prefix));
  }
}

TEST(AkPropertyTest, ExactlyNFinishMessages) {
  // ⟨FINISH⟩ traverses the ring exactly once: n sends, n receives.
  support::Rng rng(0xA1);
  for (int rep = 0; rep < 10; ++rep) {
    const std::size_t n = 2 + rng.below(12);
    const std::size_t k = 1 + rng.below(3);
    const auto ring =
        ring::random_asymmetric_ring(n, k, (n + k - 1) / k + 2, rng);
    ASSERT_TRUE(ring.has_value());
    ElectionConfig config;
    config.algorithm = {AlgorithmId::kAk, k, false};
    const auto m = core::measure(*ring, config);
    ASSERT_TRUE(m.ok());
    const auto finish = sim::kind_index(sim::MsgKind::kFinish);
    EXPECT_EQ(m.result.stats.sent_by_kind[finish], n) << ring->to_string();
    EXPECT_EQ(m.result.stats.received_by_kind[finish], n)
        << ring->to_string();
  }
}

TEST(AkPropertyTest, AllSentMessagesAreReceived) {
  // "When the execution halts, all sent messages have been received"
  // (Theorem 2's proof premise) — for every daemon.
  support::Rng rng(0xA2);
  for (const auto sched :
       {core::SchedulerKind::kSynchronous, core::SchedulerKind::kRoundRobin,
        core::SchedulerKind::kRandomSubset}) {
    const auto ring = ring::random_asymmetric_ring(9, 2, 7, rng);
    ASSERT_TRUE(ring.has_value());
    ElectionConfig config;
    config.algorithm = {AlgorithmId::kAk, 2, false};
    config.scheduler = sched;
    config.seed = rng();
    const auto m = core::measure(*ring, config);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m.result.stats.messages_sent,
              m.result.stats.messages_received);
  }
}

/// Serves one head message to a firing (none for A1) and records the
/// action it took.
class ScriptedContext final : public sim::Context {
 public:
  explicit ScriptedContext(const sim::Message* head) : head_(head) {}

  sim::Message consume() override {
    EXPECT_NE(head_, nullptr) << "A1 consumed a message";
    return *head_;
  }
  void send(const sim::Message& /*msg*/) override {}
  void note_action(std::string_view name) override { action_ = name; }

  [[nodiscard]] const std::string& action() const { return action_; }

 private:
  const sim::Message* head_;
  std::string action_;
};

/// Fires `proc` once on `head` (nullptr for A1); returns the action taken.
std::string fire_on(AkProcess& proc, const sim::Message* head) {
  EXPECT_TRUE(proc.enabled(head));
  ScriptedContext ctx(head);
  proc.fire(head, static_cast<sim::Context&>(ctx));  // the virtual entry
  return ctx.action();
}

std::vector<std::uint64_t> encoded(const AkProcess& proc) {
  std::vector<std::uint64_t> words;
  proc.encode(words);
  return words;
}

void decode_exactly(AkProcess& proc, const std::vector<std::uint64_t>& words) {
  const std::uint64_t* it = words.data();
  const std::uint64_t* const end = words.data() + words.size();
  ASSERT_TRUE(proc.decode(it, end));
  ASSERT_EQ(it, end);
}

/// `state`, an encoded A_k state whose grown string has `held` labels,
/// with `string` in place of that string. decode() takes any string, also
/// one no execution leaves unelected.
std::vector<std::uint64_t> with_string(std::vector<std::uint64_t> state,
                                       std::size_t held,
                                       const words::LabelSequence& string) {
  state.resize(state.size() - held - 1);
  state.push_back(string.size());
  for (const words::Label l : string) state.push_back(l.value());
  return state;
}

/// Feeds token `x` to the non-leader `proc`, which must take A3 exactly
/// when the definitional Leader(string·x) holds and A2 otherwise. Returns
/// whether it elected itself.
bool feed_and_check(AkProcess& proc, words::Label x, std::size_t k,
                    const char* where) {
  words::LabelSequence next = proc.grown_string();
  next.push_back(x);
  const bool expected = leader_predicate(next, k);
  const sim::Message token = sim::Message::token(x);
  const std::string action = fire_on(proc, &token);
  EXPECT_EQ(action, expected ? "A3" : "A2")
      << where << ": " << words::to_string(next) << " k=" << k;
  return action == "A3";
}

/// Runs `stream` through a real AkProcess: its id is stream[0], then each
/// further label arrives as a token. A process that elects itself is
/// decoded back to a non-leader holding the same string, so the string
/// keeps growing past the 2k+1 threshold and its period keeps changing.
/// After every token, `tripper` is taken to the same state (the state
/// before, plus the same token, so srp's rotation is cached as in `proc`),
/// decoded onto another string and fed one more token, for every label of
/// {1..alphabet+1}:
///   - a prefix shorter than the cached period (the truncating decode);
///   - a prefix at least as long as it (the truncating decode, cache kept);
///   - the same-length string whose srp is the Lyndon rotation of the
///     current srp: the same period, another string (the rebuilding
///     decode).
/// At the end, ⟨FINISH⟩ makes the non-leader take A4, which must assign
/// LW(srp(string))[1].
void check_stream(std::size_t k, const words::LabelSequence& stream,
                  std::size_t alphabet, support::Rng& rng) {
  SCOPED_TRACE("stream " + words::to_string(stream) +
               " k=" + std::to_string(k));
  AkProcess proc(0, stream[0], k);
  AkProcess tripper(0, stream[0], k);
  ASSERT_EQ(fire_on(proc, nullptr), "A1");
  for (std::size_t i = 1; i < stream.size(); ++i) {
    const std::vector<std::uint64_t> before = encoded(proc);
    const std::size_t held = i;
    const bool elected = feed_and_check(proc, stream[i], k, "stream");
    const words::LabelSequence grown = proc.grown_string();
    if (elected) decode_exactly(proc, with_string(before, held, grown));
    const std::size_t p = words::smallest_period(grown);
    const words::LabelSequence root = words::srp(grown);
    const std::size_t lyndon_start = words::least_rotation_index(root);
    words::LabelSequence same_period;
    for (std::size_t t = 0; t < grown.size(); ++t) {
      same_period.push_back(root[(lyndon_start + t) % p]);
    }
    const auto prefix = [&grown](std::size_t len) {
      return words::LabelSequence(
          grown.begin(), grown.begin() + static_cast<std::ptrdiff_t>(len));
    };
    std::vector<std::pair<const char*, words::LabelSequence>> trips = {
        {"at or above the period",
         prefix(p + rng.below(grown.size() - p + 1))}};
    if (p > 1) trips.emplace_back("below the period", prefix(p - 1));
    if (same_period != grown && words::smallest_period(same_period) == p) {
      trips.emplace_back("same period, another string", same_period);
    }
    for (const auto& [where, string] : trips) {
      for (std::size_t y = 1; y <= alphabet + 1; ++y) {
        decode_exactly(tripper, before);
        const sim::Message token = sim::Message::token(stream[i]);
        ASSERT_EQ(fire_on(tripper, &token), elected ? "A3" : "A2");
        decode_exactly(tripper, with_string(before, held, string));
        feed_and_check(tripper, words::Label(y), k, where);
      }
    }
  }
  const sim::Message finish = sim::Message::finish();
  ASSERT_EQ(fire_on(proc, &finish), "A4");
  EXPECT_EQ(proc.leader(),
            words::lyndon_rotation_first(words::srp(proc.grown_string())));
}

TEST(AkPropertyTest, IncrementalPredicateMatchesDefinitional) {
  // AkProcess evaluates Leader(σ) on its incremental border array and
  // srp's cached least rotation; the definitional leader_predicate counts
  // and runs Booth's scan from scratch. Random streams over 2-3 labels
  // make the period grow after the 2k+1 threshold; ring prefixes
  // (LLabels(p) of random asymmetric rings) are the strings elections
  // actually grow.
  support::Rng rng(0xA3);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t k = 1 + rng.below(3);
    const std::size_t alphabet = 2 + rng.below(2);
    const std::size_t len = 3 + rng.below(40);
    words::LabelSequence stream;
    for (std::size_t i = 0; i < len; ++i) {
      stream.emplace_back(rng.below(alphabet) + 1);
    }
    check_stream(k, stream, alphabet, rng);
  }
  for (int rep = 0; rep < 12; ++rep) {
    const std::size_t n = 2 + rng.below(9);
    const std::size_t k = 1 + rng.below(3);
    const std::size_t alphabet = (n + k - 1) / k + 2;
    const auto ring = ring::random_asymmetric_ring(n, k, alphabet, rng);
    ASSERT_TRUE(ring.has_value());
    const std::size_t start = rng.below(n);
    check_stream(k, ring->llabels(start, (2 * k + 1) * n), alphabet, rng);
  }
}

TEST(AkPropertyTest, TokenSendsBoundedByMessageTheorem) {
  // Token traffic alone obeys n²(2k+1): FINISH adds the +n.
  support::Rng rng(0xA4);
  const auto ring = ring::random_asymmetric_ring(12, 3, 7, rng);
  ASSERT_TRUE(ring.has_value());
  ElectionConfig config;
  config.algorithm = {AlgorithmId::kAk, 3, false};
  const auto m = core::measure(*ring, config);
  ASSERT_TRUE(m.ok());
  const auto tokens =
      m.result.stats.sent_by_kind[sim::kind_index(sim::MsgKind::kToken)];
  EXPECT_LE(tokens, 12u * 12u * 7u);
}

}  // namespace
}  // namespace hring::election
