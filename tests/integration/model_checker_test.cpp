// Exhaustive verification of A_k and B_k on small rings: EVERY
// asynchronous schedule, not a sample. This is the strongest correctness
// statement the repository makes about the algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/model_checker.hpp"
#include "ring/classes.hpp"
#include "ring/fooling.hpp"
#include "ring/generator.hpp"
#include "sim/process.hpp"

namespace hring::core {
namespace {

using election::AlgorithmId;
using sim::Message;
using sim::ProcessId;

/// Forwards one token around the ring forever: each process has one init
/// action, p0's sends the token, and every initialized process then passes
/// on whatever it receives. Nobody is elected and nothing halts.
class RelayProcess : public sim::Process {
 public:
  RelayProcess(ProcessId pid, sim::Label id) : Process(pid, id) {}

  [[nodiscard]] bool enabled(const Message* head) const override {
    return init_ || head != nullptr;
  }

  void fire(const Message* /*head*/, sim::Context& ctx) override {
    if (init_) {
      init_ = false;
      if (pid() == 0) ctx.send(Message::token(id()));
      return;
    }
    ctx.send(ctx.consume());
  }

  [[nodiscard]] std::size_t space_bits(std::size_t /*label_bits*/)
      const override {
    return 1;
  }

  [[nodiscard]] std::string debug_state() const override {
    return init_ ? "INIT" : "RELAY";
  }

  void encode(std::vector<std::uint64_t>& out) const override {
    Process::encode(out);
    out.push_back(init_ ? 1 : 0);
  }

  [[nodiscard]] bool decode(const std::uint64_t*& it,
                            const std::uint64_t* end) override {
    if (!decode_spec_vars(it, end) || it == end || *it > 1) return false;
    init_ = *it++ == 1;
    return true;
  }

 private:
  bool init_ = true;
};

/// A RelayProcess that also remembers whether it has fired with a head in
/// its in-link, in an encoded word that its decode() skips: a lossy
/// decode. No guard reads the flag, so a search that trusts decode()
/// explores states that are not the stored ones without noticing.
class LossyRelayProcess final : public RelayProcess {
 public:
  using RelayProcess::RelayProcess;

  void fire(const Message* head, sim::Context& ctx) override {
    saw_head_ = saw_head_ || head != nullptr;
    RelayProcess::fire(head, ctx);
  }

  void encode(std::vector<std::uint64_t>& out) const override {
    RelayProcess::encode(out);
    out.push_back(saw_head_ ? 1 : 0);
  }

  [[nodiscard]] bool decode(const std::uint64_t*& it,
                            const std::uint64_t* end) override {
    if (!RelayProcess::decode(it, end) || it == end) return false;
    ++it;  // the saw-head word, not restored
    return true;
  }

 private:
  bool saw_head_ = false;
};

/// The local steps one search asked its processes about: each enabled()
/// and fire() call, keyed by the process, its encode() words and the head.
struct StepLog {
  std::set<std::vector<std::uint64_t>> asked;
  std::set<std::vector<std::uint64_t>> fired;
  std::uint64_t fires = 0;
  /// Calls whose key was already in their set.
  std::uint64_t repeats = 0;

  void note(std::set<std::vector<std::uint64_t>>& seen, ProcessId pid,
            const sim::Process& p, const Message* head) {
    std::vector<std::uint64_t> key{
        pid, head != nullptr ? 1U : 0U,
        head != nullptr ? static_cast<std::uint64_t>(head->kind) : 0U,
        head != nullptr ? head->label.value() : 0U};
    p.encode(key);
    if (!seen.insert(std::move(key)).second) ++repeats;
  }
};

/// Forwards every virtual to an inner process and notes each enabled()
/// and fire() call in a StepLog.
class LoggingProcess final : public sim::Process {
 public:
  LoggingProcess(std::unique_ptr<sim::Process> inner, StepLog& log)
      : Process(inner->pid(), inner->id()),
        inner_(std::move(inner)),
        log_(log) {}

  [[nodiscard]] bool enabled(const Message* head) const override {
    log_.note(log_.asked, pid(), *inner_, head);
    return inner_->enabled(head);
  }

  void fire(const Message* head, sim::Context& ctx) override {
    ++log_.fires;
    log_.note(log_.fired, pid(), *inner_, head);
    inner_->fire(head, ctx);
  }

  [[nodiscard]] std::size_t space_bits(std::size_t label_bits)
      const override {
    return inner_->space_bits(label_bits);
  }

  [[nodiscard]] std::string debug_state() const override {
    return inner_->debug_state();
  }

  void encode(std::vector<std::uint64_t>& out) const override {
    inner_->encode(out);
  }

  [[nodiscard]] bool decode(const std::uint64_t*& it,
                            const std::uint64_t* end) override {
    return inner_->decode(it, end);
  }

  [[nodiscard]] bool is_leader() const override {
    return inner_->is_leader();
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] std::optional<sim::Label> leader() const override {
    return inner_->leader();
  }
  [[nodiscard]] bool halted() const override { return inner_->halted(); }

 private:
  std::unique_ptr<sim::Process> inner_;
  StepLog& log_;
};

/// Passes one token around the ring forever and holds it in between: a
/// receipt appends a stamp word to the encoding, whether the process had
/// made its one tick yet, and the release removes it. A process that
/// received before its tick can tick while it holds the token, so the
/// encoding grows and shrinks by a word whose value (0 or 1) differs
/// between configurations that agree everywhere else.
class StampProcess final : public sim::Process {
 public:
  StampProcess(ProcessId pid, sim::Label id) : Process(pid, id) {}

  [[nodiscard]] bool enabled(const Message* head) const override {
    return init_ || head != nullptr || !ticked_ || stamp_.has_value();
  }

  void fire(const Message* head, sim::Context& ctx) override {
    if (init_) {
      init_ = false;
      if (pid() == 0) ctx.send(Message::token(id()));
    } else if (head != nullptr) {
      static_cast<void>(ctx.consume());
      stamp_ = ticked_ ? 1 : 0;
    } else if (!ticked_) {
      ticked_ = true;
    } else {
      stamp_.reset();
      ctx.send(Message::token(id()));
    }
  }

  [[nodiscard]] std::size_t space_bits(std::size_t /*label_bits*/)
      const override {
    return 4;
  }

  [[nodiscard]] std::string debug_state() const override {
    return stamp_.has_value() ? "HOLD" : "WAIT";
  }

  void encode(std::vector<std::uint64_t>& out) const override {
    Process::encode(out);
    out.push_back((init_ ? 1U : 0U) | (ticked_ ? 2U : 0U) |
                  (stamp_.has_value() ? 4U : 0U));
    if (stamp_.has_value()) out.push_back(*stamp_);
  }

  [[nodiscard]] bool decode(const std::uint64_t*& it,
                            const std::uint64_t* end) override {
    if (!decode_spec_vars(it, end) || it == end || *it > 7) return false;
    const std::uint64_t flags = *it++;
    init_ = (flags & 1U) != 0;
    ticked_ = (flags & 2U) != 0;
    stamp_.reset();
    if ((flags & 4U) != 0) {
      if (it == end) return false;
      stamp_ = *it++;
    }
    return true;
  }

 private:
  bool init_ = true;
  bool ticked_ = false;
  std::optional<std::uint64_t> stamp_;
};

TEST(ModelCheckerTest, AkOnRemark122AllSchedules) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  const auto report =
      check_all_schedules(ring, {AlgorithmId::kAk, 2, false});
  EXPECT_TRUE(report.complete) << report.to_string();
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_GT(report.configurations, 50u);  // genuinely many interleavings
  EXPECT_GE(report.terminal_configurations, 1u);
}

TEST(ModelCheckerTest, BkOnRemark122AllSchedules) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  const auto report =
      check_all_schedules(ring, {AlgorithmId::kBk, 2, false});
  EXPECT_TRUE(report.complete) << report.to_string();
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_GE(report.terminal_configurations, 1u);
}

TEST(ModelCheckerTest, EveryAsymmetricTernaryTriangle) {
  // All canonical asymmetric rings with n = 3 over 3 labels, both
  // algorithms, k = the ring's actual multiplicity: exhaustively correct.
  const auto rings = ring::enumerate_rings(3, 3, /*asymmetric_only=*/true,
                                           /*canonical_only=*/true);
  ASSERT_FALSE(rings.empty());
  for (const auto& r : rings) {
    for (const auto algo : {AlgorithmId::kAk, AlgorithmId::kBk}) {
      const auto report = check_all_schedules(
          r, {algo, r.max_multiplicity(), false});
      EXPECT_TRUE(report.complete)
          << election::algorithm_name(algo) << " on " << r.to_string();
      EXPECT_TRUE(report.ok) << election::algorithm_name(algo) << " on "
                             << r.to_string() << "\n"
                             << report.to_string();
    }
  }
}

TEST(ModelCheckerTest, FourProcessDistinctRing) {
  const auto ring = ring::LabeledRing::from_values({3, 1, 4, 2});
  for (const auto algo : {AlgorithmId::kAk, AlgorithmId::kBk}) {
    const auto report = check_all_schedules(ring, {algo, 1, false});
    EXPECT_TRUE(report.complete)
        << election::algorithm_name(algo) << ": " << report.to_string();
    EXPECT_TRUE(report.ok)
        << election::algorithm_name(algo) << ": " << report.to_string();
  }
}

TEST(ModelCheckerTest, FourProcessHomonymRing) {
  const auto ring = ring::LabeledRing::from_values({2, 1, 2, 1});
  ASSERT_FALSE(ring::in_class_A(ring));  // symmetric: must NOT verify
  const auto report = check_all_schedules(ring, {AlgorithmId::kBk, 2,
                                                 false},
                                          ModelCheckConfig{200'000, false});
  // On a symmetric ring, either a violation is found or exploration never
  // reaches a clean single-leader terminal; both falsify correctness.
  EXPECT_FALSE(report.ok && report.terminal_configurations > 0 &&
               report.complete)
      << report.to_string();
}

TEST(ModelCheckerTest, SymmetricRingUnderTheDefaultConfig) {
  // A symmetric ring has no true leader. Under the default config the
  // checker drops only that clause and still reports A_2's two leaders.
  const auto ring = ring::LabeledRing::from_values({1, 2, 1, 2});
  const auto report = check_all_schedules(ring, {AlgorithmId::kAk, 2, false});
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.configurations, 338u);
  EXPECT_EQ(report.transitions, 766u);
  EXPECT_EQ(report.terminal_configurations, 1u);
  const auto reported = [&report](const std::string& what) {
    return std::any_of(report.violations.begin(), report.violations.end(),
                       [&what](const std::string& v) {
                         return v.find(what) != std::string::npos;
                       });
  };
  EXPECT_TRUE(reported("2 simultaneous leaders")) << report.to_string();
  // The terminal configuration's clause is verify_election's, wording
  // included.
  EXPECT_TRUE(reported("expected exactly 1 leader, found 2"))
      << report.to_string();
}

TEST(ModelCheckerTest, CatchesTheFoolingRingViolation) {
  // The Lemma 1 construction on a 2-process base with k' = 5, checked
  // against A_1: the checker must find the multi-leader violation some
  // schedule produces.
  const auto base = ring::LabeledRing::from_values({1, 2});
  const auto fooled = ring::fooling_ring(base, 5);  // 11 processes
  ModelCheckConfig config;
  config.max_configurations = 150'000;
  config.check_true_leader = false;
  const auto report =
      check_all_schedules(fooled, {AlgorithmId::kAk, 1, false}, config);
  EXPECT_FALSE(report.ok) << report.to_string();
  bool multi = false;
  for (const auto& v : report.violations) {
    if (v.find("simultaneous leaders") != std::string::npos ||
        v.find("no leader carries") != std::string::npos) {
      multi = true;
    }
  }
  EXPECT_TRUE(multi) << report.to_string();
}

TEST(ModelCheckerTest, BaselinesOnDistinctRingsAllSchedules) {
  // The identified-ring baselines implement decode() too, so the checker
  // covers them. They elect the maximum label — not necessarily the
  // paper's true leader — hence check_true_leader = false.
  const auto ring = ring::LabeledRing::from_values({3, 1, 4, 2});
  ModelCheckConfig config;
  config.check_true_leader = false;
  for (const auto algo : {AlgorithmId::kChangRoberts, AlgorithmId::kLeLann,
                          AlgorithmId::kPeterson}) {
    const auto report = check_all_schedules(ring, {algo, 1, false}, config);
    EXPECT_TRUE(report.complete)
        << election::algorithm_name(algo) << ": " << report.to_string();
    EXPECT_TRUE(report.ok)
        << election::algorithm_name(algo) << ": " << report.to_string();
    EXPECT_GE(report.terminal_configurations, 1u)
        << election::algorithm_name(algo);
  }
}

/// Summed search counts over one family of canonical asymmetric rings.
struct FamilyCounts {
  std::size_t rings = 0;
  std::uint64_t configurations = 0;
  std::uint64_t transitions = 0;
  std::uint64_t terminal = 0;
  std::size_t max_depth = 0;

  bool operator==(const FamilyCounts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const FamilyCounts& c) {
  return os << c.rings << " rings / " << c.configurations << " configs / "
            << c.transitions << " transitions / " << c.terminal
            << " terminal / depth " << c.max_depth;
}

TEST(ModelCheckerTest, GoldenCountsOnCanonicalAsymmetricRings) {
  // Every canonical asymmetric ring of each family, A_k and B_k with k =
  // the ring's multiplicity. A rewind that leaves any trace in the working
  // configuration or its hash changes these sums. These are the E13
  // families, 153,420 A_k and 43,639 B_k configurations in total; n5/a3
  // totals 97,476, perfbench's core.mc_configs.
  struct Golden {
    std::size_t n;
    std::size_t alphabet;
    FamilyCounts ak;
    FamilyCounts bk;
  };
  const Golden goldens[] = {
      {2, 2, {1, 20, 25, 1, 13}, {1, 16, 17, 1, 13}},
      {3, 2, {2, 178, 312, 2, 30}, {2, 136, 174, 2, 63}},
      {3, 3, {8, 702, 1230, 8, 30}, {8, 489, 631, 8, 63}},
      {4, 2, {3, 1103, 2486, 3, 50}, {3, 623, 992, 3, 206}},
      {4, 3, {18, 6793, 15316, 18, 54}, {18, 3242, 5085, 18, 206}},
      {5, 2, {6, 9552, 26330, 6, 80}, {6, 3319, 6766, 6, 520}},
      {5, 3, {48, 75912, 209240, 48, 80}, {48, 21564, 43018, 48, 520}},
      {6, 2, {9, 59160, 192726, 9, 111}, {9, 14250, 36695, 9, 1107}},
  };
  for (const Golden& golden : goldens) {
    const auto rings = ring::enumerate_rings(golden.n, golden.alphabet,
                                             /*asymmetric_only=*/true,
                                             /*canonical_only=*/true);
    for (const auto algo : {AlgorithmId::kAk, AlgorithmId::kBk}) {
      FamilyCounts counts;
      for (const auto& r : rings) {
        const auto report =
            check_all_schedules(r, {algo, r.max_multiplicity(), false});
        EXPECT_TRUE(report.complete && report.ok)
            << election::algorithm_name(algo) << " on " << r.to_string()
            << ": " << report.to_string();
        ++counts.rings;
        counts.configurations += report.configurations;
        counts.transitions += report.transitions;
        counts.terminal += report.terminal_configurations;
        counts.max_depth = std::max(counts.max_depth, report.max_depth);
      }
      EXPECT_EQ(counts, algo == AlgorithmId::kAk ? golden.ak : golden.bk)
          << election::algorithm_name(algo) << " n" << golden.n << "/a"
          << golden.alphabet;
    }
  }
}

TEST(ModelCheckerTest, GoldenCountsOfTheBaselinesAndOnASymmetricRing) {
  // The enabled mask and the configuration hash serve every algorithm, so
  // the identified-ring baselines' searches are pinned too, and so are
  // both paper algorithms' on a symmetric ring, where they must fail.
  const auto distinct = ring::LabeledRing::from_values({3, 1, 4, 2, 5});
  const auto symmetric = ring::LabeledRing::from_values({1, 2, 1, 2});
  struct Golden {
    AlgorithmId algo;
    std::size_t k;
    const ring::LabeledRing& ring;
    bool ok;
    FamilyCounts counts;
  };
  const Golden goldens[] = {
      {AlgorithmId::kChangRoberts, 1, distinct, true, {1, 187, 490, 1, 21}},
      {AlgorithmId::kLeLann, 1, distinct, true, {1, 645, 1780, 1, 35}},
      {AlgorithmId::kPeterson, 1, distinct, true, {1, 319, 830, 1, 35}},
      {AlgorithmId::kAk, 2, symmetric, false, {1, 338, 766, 1, 42}},
      {AlgorithmId::kBk, 2, symmetric, false, {1, 180, 322, 1, 58}},
  };
  for (const Golden& golden : goldens) {
    const auto report = check_all_schedules(
        golden.ring, {golden.algo, golden.k, false},
        ModelCheckConfig{200'000, false});
    EXPECT_TRUE(report.complete) << report.to_string();
    EXPECT_EQ(report.ok, golden.ok) << report.to_string();
    const FamilyCounts counts{1, report.configurations, report.transitions,
                              report.terminal_configurations,
                              report.max_depth};
    EXPECT_EQ(counts, golden.counts)
        << election::algorithm_name(golden.algo) << " on "
        << golden.ring.to_string();
  }
}

/// Counts of one search over processes of type `Proc` on the ring
/// `labels`, which must end complete and without violation within 10,000
/// configurations.
template <class Proc>
FamilyCounts scripted_counts(
    std::initializer_list<sim::Label::rep_type> labels) {
  const auto report = check_all_schedules(
      ring::LabeledRing::from_values(labels),
      [](ProcessId pid, sim::Label id) {
        return std::make_unique<Proc>(pid, id);
      },
      ModelCheckConfig{10'000, true});
  EXPECT_TRUE(report.complete) << report.to_string();
  EXPECT_TRUE(report.ok) << report.to_string();
  return {1, report.configurations, report.transitions,
          report.terminal_configurations, report.max_depth};
}

TEST(ModelCheckerTest, FiresEachLocalStepOncePerCall) {
  // Every canonical asymmetric n5/a3 ring, A_k and B_k with k = the ring's
  // multiplicity, each process wrapped in a LoggingProcess. A search asks
  // each (process, encoding, head) at most once whether it is enabled and
  // fires it at most once, and its counts are still the goldens'. A second
  // identical call fires as often as the first: no memo outlives its call.
  const auto rings = ring::enumerate_rings(5, 3, /*asymmetric_only=*/true,
                                           /*canonical_only=*/true);
  for (const auto algo : {AlgorithmId::kAk, AlgorithmId::kBk}) {
    FamilyCounts counts;
    for (const auto& r : rings) {
      const auto inner =
          election::make_factory({algo, r.max_multiplicity(), false});
      std::uint64_t first_fires = 0;
      for (int call = 0; call < 2; ++call) {
        StepLog log;
        const auto report = check_all_schedules(
            r, [&](ProcessId pid, sim::Label id) {
              return std::make_unique<LoggingProcess>(inner(pid, id), log);
            });
        const std::string where =
            std::string(election::algorithm_name(algo)) + " on " +
            r.to_string() + ", call " + std::to_string(call + 1);
        EXPECT_TRUE(report.complete && report.ok)
            << where << ": " << report.to_string();
        EXPECT_EQ(log.repeats, 0u) << where;
        EXPECT_GT(log.fires, 0u) << where;
        if (call == 0) {
          first_fires = log.fires;
          ++counts.rings;
          counts.configurations += report.configurations;
          counts.transitions += report.transitions;
          counts.terminal += report.terminal_configurations;
          counts.max_depth = std::max(counts.max_depth, report.max_depth);
        } else {
          EXPECT_EQ(log.fires, first_fires) << where;
        }
      }
    }
    EXPECT_EQ(counts, algo == AlgorithmId::kAk
                          ? (FamilyCounts{48, 75912, 209240, 48, 80})
                          : (FamilyCounts{48, 21564, 43018, 48, 520}))
        << election::algorithm_name(algo);
  }
}

TEST(ModelCheckerDeathTest, LossyDecodeAbortsTheCheck) {
  // p1 first fires its init action from an empty in-link. Its subtree
  // leaves the process holding a state that has seen a head; once p1 meets
  // its post-init state with an empty in-link again, discovery decodes
  // that state, the flag stays set, and the process no longer encodes the
  // stored words.
  EXPECT_DEATH(scripted_counts<LossyRelayProcess>({1, 2}),
               "precondition failed: decode_restored_every_word");
}

TEST(ModelCheckerTest, RelayCycleIsFinite) {
  // The token passes every link forever, yet the configurations are
  // finite: which processes have initialized and which link holds the
  // token. A configuration's hash must depend on the messages in flight,
  // not on how many have passed through a link, or the search never ends.
  EXPECT_EQ(scripted_counts<RelayProcess>({1, 2, 3}),
            (FamilyCounts{1, 11, 17, 0, 6}));
}

TEST(ModelCheckerTest, EncodingsOfChangingLengthHashByContent) {
  // A stamp word comes and goes at the tail of a process's encoding, so a
  // firing's hash update must count the words that only the longer of the
  // two encodings has. Otherwise the stamps 0 and 1 merge, or a released
  // stamp stays in the hash and the search never ends.
  EXPECT_EQ(scripted_counts<StampProcess>({1, 2}),
            (FamilyCounts{1, 20, 28, 0, 9}));
}

TEST(ModelCheckerTest, BudgetExhaustionIsReportedHonestly) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  ModelCheckConfig config;
  config.max_configurations = 10;
  const auto report =
      check_all_schedules(ring, {AlgorithmId::kAk, 2, false}, config);
  EXPECT_FALSE(report.complete);
  EXPECT_LE(report.configurations, 11u);
}

TEST(ModelCheckerTest, ReportToStringMentionsOutcome) {
  const auto ring = ring::LabeledRing::from_values({1, 2, 2});
  const auto report =
      check_all_schedules(ring, {AlgorithmId::kAk, 2, false});
  EXPECT_NE(report.to_string().find("OK"), std::string::npos);
  EXPECT_NE(report.to_string().find("exhaustive"), std::string::npos);
}

}  // namespace
}  // namespace hring::core
