// Flight recorder + stall forensics (telemetry/flight_recorder.hpp,
// runtime/inhost/forensics.hpp).
//
// The FlightRing unit tests pin the overwriting semantics; the forensic
// tests run real elections with the recorder attached — including the
// injected-stall case that wedges one worker (it never beats) and asserts
// the watchdog's dump names exactly that pid while every healthy thread's
// last recorded event is a park.
#include "runtime/inhost/forensics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "election/algorithm.hpp"
#include "ring/generator.hpp"
#include "ring/labeled_ring.hpp"
#include "runtime/conformance.hpp"
#include "runtime/inhost/inhost_ring.hpp"
#include "support/rng.hpp"
#include "telemetry/flight_recorder.hpp"

namespace hring::runtime {
namespace {

using election::AlgorithmConfig;
using election::AlgorithmId;
using telemetry::FlightEvent;
using telemetry::FlightEventKind;
using telemetry::FlightRecorder;
using telemetry::FlightRing;

// -- A minimal JSON acceptor --------------------------------------------------
// Enough of RFC 8259 to assert "the dump is valid JSON" without a
// dependency: strings with escapes, numbers, literals, arrays, objects.
class JsonAcceptor {
 public:
  explicit JsonAcceptor(std::string_view text) : text_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return at_ == text_.size();
  }

 private:
  [[nodiscard]] bool value() {
    if (at_ >= text_.size()) return false;
    switch (text_[at_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  [[nodiscard]] bool object() {
    ++at_;  // '{'
    skip_ws();
    if (eat('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  [[nodiscard]] bool array() {
    ++at_;  // '['
    skip_ws();
    if (eat(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  [[nodiscard]] bool string() {
    if (!eat('"')) return false;
    while (at_ < text_.size() && text_[at_] != '"') {
      if (text_[at_] == '\\') {
        ++at_;
        if (at_ >= text_.size()) return false;
      }
      ++at_;
    }
    return eat('"');
  }

  [[nodiscard]] bool number() {
    const std::size_t start = at_;
    if (at_ < text_.size() && text_[at_] == '-') ++at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) != 0 ||
            text_[at_] == '.' || text_[at_] == 'e' || text_[at_] == 'E' ||
            text_[at_] == '+' || text_[at_] == '-')) {
      ++at_;
    }
    return at_ > start;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(at_, word.size()) != word) return false;
    at_ += word.size();
    return true;
  }

  bool eat(char c) {
    if (at_ < text_.size() && text_[at_] == c) {
      ++at_;
      return true;
    }
    return false;
  }

  void skip_ws() {
    while (at_ < text_.size() &&
           (text_[at_] == ' ' || text_[at_] == '\n' || text_[at_] == '\t' ||
            text_[at_] == '\r')) {
      ++at_;
    }
  }

  std::string_view text_;
  std::size_t at_ = 0;
};

[[nodiscard]] bool is_valid_json(const std::string& text) {
  return JsonAcceptor(text).valid();
}

// -- FlightRing ---------------------------------------------------------------

TEST(FlightRingTest, RecordsAndSnapshotsInOrder) {
  FlightRing ring;
  ring.reset(16);
  ring.record(FlightEventKind::kJoin, 7);
  ring.record(FlightEventKind::kStart, 0);
  ring.record(FlightEventKind::kFire, 42);
  const std::vector<FlightEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kJoin);
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[1].kind, FlightEventKind::kStart);
  EXPECT_EQ(events[2].kind, FlightEventKind::kFire);
  EXPECT_EQ(events[2].arg, 42u);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[1].ts_ns, events[2].ts_ns);
  EXPECT_EQ(ring.recorded(), 3u);
}

TEST(FlightRingTest, OverwritesOldestKeepingTheNewest) {
  FlightRing ring;
  ring.reset(16);
  for (std::uint64_t i = 0; i < 40; ++i) {
    ring.record(FlightEventKind::kBeat, i);
  }
  EXPECT_EQ(ring.recorded(), 40u);
  const std::vector<FlightEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 16u);  // capacity-bounded
  // The retained window is the last 16 records: args 24..39.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, 24u + i);
  }
}

TEST(FlightRingTest, CapacityRoundsUpToPowerOfTwoMinimumSixteen) {
  FlightRing ring;
  ring.reset(1);
  EXPECT_EQ(ring.capacity(), 16u);
  ring.reset(17);
  EXPECT_EQ(ring.capacity(), 32u);
  ring.reset(256);
  EXPECT_EQ(ring.capacity(), 256u);
}

TEST(FlightRingTest, ArgsAreTruncatedTo56Bits) {
  FlightRing ring;
  ring.reset(16);
  ring.record(FlightEventKind::kSend, ~std::uint64_t{0});
  const std::vector<FlightEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kSend);
  EXPECT_EQ(events[0].arg, (std::uint64_t{1} << 56) - 1);
}

TEST(FlightRecorderTest, DetachedUntilResetAndDetachableAgain) {
  FlightRecorder recorder;
  EXPECT_FALSE(recorder.attached());
  recorder.reset(3, 64);
  EXPECT_TRUE(recorder.attached());
  EXPECT_EQ(recorder.threads(), 3u);
  recorder.ring(2).record(FlightEventKind::kJoin, 2);
  EXPECT_EQ(recorder.ring(2).recorded(), 1u);
  EXPECT_EQ(recorder.ring(0).recorded(), 0u);
  recorder.detach();
  EXPECT_FALSE(recorder.attached());
}

// -- Forensic reports from real runs -----------------------------------------

[[nodiscard]] InHostResult run_with_flight(const ring::LabeledRing& ring,
                                           InHostConfig config) {
  config.flight_recorder = true;
  return run_inhost(
      ring,
      election::make_factory(
          AlgorithmConfig{AlgorithmId::kChangRoberts, 1, false}),
      config);
}

TEST(ForensicsTest, CompletedRunProducesReport) {
  support::Rng rng(0xF11);
  const auto ring = ring::distinct_ring(5, rng);
  const InHostResult result = run_with_flight(ring, {});
  EXPECT_EQ(result.outcome, sim::Outcome::kTerminated);
  ASSERT_TRUE(result.forensics.has_value());
  const ForensicReport& report = *result.forensics;
  EXPECT_EQ(report.verdict, "completed");
  EXPECT_TRUE(report.wedged.empty());
  ASSERT_EQ(report.threads.size(), 5u);
  for (const ForensicThread& thread : report.threads) {
    EXPECT_TRUE(thread.exited) << "p" << thread.pid;
    EXPECT_FALSE(thread.parked) << "p" << thread.pid;
    EXPECT_GT(thread.events_recorded, 0u);
    ASSERT_FALSE(thread.events.empty());
    EXPECT_EQ(thread.events.back().kind, FlightEventKind::kExit);
    EXPECT_EQ(thread.events.front().kind, FlightEventKind::kJoin);
  }
  // The start latch: every thread joins once and starts once, and no
  // thread starts before every thread has joined.
  std::uint64_t last_join_ns = 0;
  std::uint64_t first_start_ns = ~std::uint64_t{0};
  for (const ForensicThread& thread : report.threads) {
    std::size_t joins = 0;
    std::size_t starts = 0;
    for (const FlightEvent& event : thread.events) {
      if (event.kind == FlightEventKind::kJoin) {
        ++joins;
        last_join_ns = std::max(last_join_ns, event.ts_ns);
      } else if (event.kind == FlightEventKind::kStart) {
        ++starts;
        first_start_ns = std::min(first_start_ns, event.ts_ns);
      }
    }
    EXPECT_EQ(joins, 1u) << "p" << thread.pid;
    EXPECT_EQ(starts, 1u) << "p" << thread.pid;
  }
  EXPECT_LE(last_join_ns, first_start_ns);
  // The run's counters made it into the snapshot.
  EXPECT_EQ(report.counters.actions, result.actions);
  EXPECT_EQ(report.counters.messages_sent, result.messages_sent);
}

TEST(ForensicsTest, ElapsedEndsAtLastWorkerExit) {
  // elapsed_ns starts after the start latch opens, which is after every
  // join, and ends at the last worker's exit. It therefore fits inside the
  // recorded span from the last join to the last exit: a watchdog tick
  // counted into it would overshoot that span.
  const auto ring = ring::LabeledRing::from_values({1, 2, 1, 3});
  InHostConfig config;
  config.flight_recorder = true;
  for (int run = 0; run < 5; ++run) {
    const InHostResult result = run_inhost(
        ring,
        election::make_factory(AlgorithmConfig{AlgorithmId::kAk, 2, false}),
        config);
    ASSERT_EQ(result.outcome, sim::Outcome::kTerminated);
    ASSERT_TRUE(result.forensics.has_value());
    std::uint64_t last_join_ns = 0;
    std::uint64_t last_exit_ns = 0;
    for (const ForensicThread& thread : result.forensics->threads) {
      for (const FlightEvent& event : thread.events) {
        if (event.kind == FlightEventKind::kJoin) {
          last_join_ns = std::max(last_join_ns, event.ts_ns);
        } else if (event.kind == FlightEventKind::kExit) {
          last_exit_ns = std::max(last_exit_ns, event.ts_ns);
        }
      }
    }
    ASSERT_GT(last_join_ns, 0u) << "run " << run;
    ASSERT_GE(last_exit_ns, last_join_ns) << "run " << run;
    EXPECT_LE(result.elapsed_ns, last_exit_ns - last_join_ns)
        << "run " << run;
  }
}

/// Wedges `wedged_pid` after the election starts: the hook spins (with a
/// sleep) until shutdown, never beating, never firing — the "thread
/// stopped making progress outside park/exit" picture the forensics must
/// diagnose.
[[nodiscard]] InHostConfig stall_config(sim::ProcessId wedged_pid) {
  InHostConfig config;
  config.quiet_period_ms = 50;
  config.post_start_hook = [wedged_pid](sim::ProcessId pid,
                                        const std::function<bool()>& stop) {
    if (pid != wedged_pid) return;
    while (!stop()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  return config;
}

TEST(ForensicsTest, InjectedStallNamesWedgedPidAndParksEveryoneElse) {
  support::Rng rng(0xF12);
  const auto ring = ring::distinct_ring(4, rng);
  const sim::ProcessId wedged = 2;
  const InHostResult result = run_with_flight(ring, stall_config(wedged));
  EXPECT_EQ(result.outcome, sim::Outcome::kDeadlock);
  ASSERT_TRUE(result.forensics.has_value());
  const ForensicReport& report = *result.forensics;
  EXPECT_EQ(report.verdict, "stall");
  ASSERT_EQ(report.wedged.size(), 1u);
  EXPECT_EQ(report.wedged[0], wedged);
  ASSERT_EQ(report.threads.size(), 4u);
  for (const ForensicThread& thread : report.threads) {
    if (thread.pid == wedged) {
      // The wedged worker recorded its join and start and then went
      // silent inside the hook: no beats, no park, no exit.
      EXPECT_FALSE(thread.parked);
      EXPECT_FALSE(thread.exited);
      EXPECT_EQ(thread.beats, 0u);
      ASSERT_FALSE(thread.events.empty());
      EXPECT_EQ(thread.events.back().kind, FlightEventKind::kStart);
    } else {
      // Every other thread's last event is a park: alive, idle, waiting
      // on a doorbell that never rings.
      EXPECT_TRUE(thread.parked) << "p" << thread.pid;
      ASSERT_FALSE(thread.events.empty());
      EXPECT_EQ(thread.events.back().kind, FlightEventKind::kPark)
          << "p" << thread.pid;
      EXPECT_GT(thread.beats, 0u) << "p" << thread.pid;
    }
  }
  EXPECT_NE(report.summary().find("p2 wedged"), std::string::npos)
      << report.summary();
}

TEST(ForensicsTest, StallDumpIsValidJsonAndNamesTheWedgedPid) {
  support::Rng rng(0xF13);
  const auto ring = ring::distinct_ring(4, rng);
  const InHostResult result = run_with_flight(ring, stall_config(1));
  ASSERT_TRUE(result.forensics.has_value());
  std::ostringstream out;
  write_forensics_json(out, *result.forensics);
  const std::string dump = out.str();
  EXPECT_TRUE(is_valid_json(dump)) << dump.substr(0, 400);
  EXPECT_NE(dump.find("\"schema\":\"hring-forensics/1\""), std::string::npos);
  EXPECT_NE(dump.find("\"verdict\":\"stall\""), std::string::npos);
  EXPECT_NE(dump.find("\"wedged\":[1]"), std::string::npos);
  EXPECT_NE(dump.find("\"last_event\":\"park\""), std::string::npos);
}

TEST(ForensicsTest, FlightTraceIsValidTraceEventJson) {
  support::Rng rng(0xF14);
  const auto ring = ring::distinct_ring(4, rng);
  const InHostResult result = run_with_flight(ring, stall_config(3));
  ASSERT_TRUE(result.forensics.has_value());
  std::ostringstream out;
  write_flight_trace_json(out, *result.forensics);
  const std::string trace = out.str();
  EXPECT_TRUE(is_valid_json(trace)) << trace.substr(0, 400);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  // The stalled threads render as parked spans running to the collection
  // edge, and the wedged track is labeled as such.
  EXPECT_NE(trace.find("\"parked\""), std::string::npos);
  EXPECT_NE(trace.find("p3 [WEDGED]"), std::string::npos);
  // Message flows: every flow start has the same id vocabulary as its
  // finish ("<port>:<send_ts_ns>").
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
}

TEST(ForensicsTest, CompletedRunTraceMatchesSendAndRecvFlows) {
  support::Rng rng(0xF15);
  const auto ring = ring::distinct_ring(5, rng);
  const InHostResult result = run_with_flight(ring, {});
  ASSERT_TRUE(result.forensics.has_value());
  // Collect flow ids per side from the report itself: every recv's
  // (in-port, send_ts) must have been sent as (out-port, send_ts) by its
  // ring predecessor.
  const std::size_t n = result.forensics->threads.size();
  std::vector<std::string> sends;
  std::vector<std::string> recvs;
  for (const ForensicThread& thread : result.forensics->threads) {
    for (const FlightEvent& event : thread.events) {
      if (event.kind == FlightEventKind::kSend) {
        sends.push_back(std::to_string(thread.pid) + ":" +
                        std::to_string(event.arg));
      } else if (event.kind == FlightEventKind::kRecv) {
        recvs.push_back(std::to_string((thread.pid + n - 1) % n) + ":" +
                        std::to_string(event.arg));
      }
    }
  }
  ASSERT_FALSE(recvs.empty());
  for (const std::string& id : recvs) {
    EXPECT_NE(std::find(sends.begin(), sends.end(), id), sends.end())
        << "recv flow " << id << " has no matching send";
  }
}

TEST(ForensicsTest, ConformanceDivergenceWritesFlightDump) {
  support::Rng rng(0xF16);
  const auto ring = ring::distinct_ring(4, rng);
  const std::string dump_path =
      ::testing::TempDir() + "/hring_divergence_flight.json";
  ConformanceConfig config;
  config.inhost = stall_config(2);  // force a [runtime] divergence
  config.flight_out = dump_path;
  const ConformanceReport report = check_conformance(
      ring, AlgorithmConfig{AlgorithmId::kChangRoberts, 1, false}, config);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.inhost.forensics.has_value());
  EXPECT_EQ(report.inhost.forensics->verdict, "divergence");
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << "conformance did not write " << dump_path;
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_TRUE(is_valid_json(contents.str()));
  EXPECT_NE(contents.str().find("\"verdict\":\"divergence\""),
            std::string::npos);
  EXPECT_NE(contents.str().find("\"wedged\":[2]"), std::string::npos);
}

TEST(ForensicsTest, DetachedRunProducesNoReport) {
  support::Rng rng(0xF17);
  const auto ring = ring::distinct_ring(4, rng);
  const InHostResult result = run_inhost(
      ring, election::make_factory(
                AlgorithmConfig{AlgorithmId::kChangRoberts, 1, false}));
  EXPECT_EQ(result.outcome, sim::Outcome::kTerminated);
  EXPECT_FALSE(result.forensics.has_value());
}

}  // namespace
}  // namespace hring::runtime
