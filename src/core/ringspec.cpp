#include "core/ringspec.hpp"

#include <istream>
#include <sstream>

#include "support/assert.hpp"

namespace hring::core {
namespace {

std::string trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && (s[begin] == ' ' || s[begin] == '\t')) ++begin;
  while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t' ||
                         s[end - 1] == '\r')) {
    --end;
  }
  return std::string(s.substr(begin, end - begin));
}

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

RingSpecResult parse_ringspec(std::istream& in) {
  std::optional<words::LabelSequence> labels;
  ElectionConfig config;
  std::optional<std::size_t> explicit_k;
  std::optional<election::AlgorithmId> algo;

  const auto fail = [](std::size_t line, std::string message) {
    RingSpecResult result;
    result.error = RingSpecError{line, std::move(message)};
    return result;
  };

  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      return fail(line_no, "expected 'key = value'");
    }
    const std::string key = trim(std::string_view(line).substr(0, eq));
    const std::string value = trim(std::string_view(line).substr(eq + 1));
    if (key.empty() || value.empty()) {
      return fail(line_no, "empty key or value");
    }

    if (key == "ring") {
      words::LabelSequence seq;
      std::stringstream items(value);
      std::string item;
      while (std::getline(items, item, ',')) {
        const auto v = parse_u64(trim(item));
        if (!v.has_value()) {
          return fail(line_no, "bad label '" + trim(item) + "'");
        }
        seq.emplace_back(*v);
      }
      if (seq.size() < 2) {
        return fail(line_no, "ring needs at least 2 labels");
      }
      labels = std::move(seq);
    } else if (key == "algo") {
      algo = election::algorithm_from_name(value);
      if (!algo.has_value()) {
        return fail(line_no, "unknown algorithm '" + value + "'");
      }
    } else if (key == "k") {
      const auto v = parse_u64(value);
      if (!v.has_value() || *v == 0) {
        return fail(line_no, "k must be a positive integer");
      }
      explicit_k = static_cast<std::size_t>(*v);
    } else if (key == "engine") {
      const auto engine = engine_kind_from_name(value);
      if (!engine.has_value()) {
        return fail(line_no, "engine must be 'step' or 'event'");
      }
      config.engine = *engine;
    } else if (key == "sched") {
      const auto scheduler = scheduler_kind_from_name(value);
      if (!scheduler.has_value()) {
        return fail(line_no, "unknown scheduler '" + value + "'");
      }
      config.scheduler = *scheduler;
    } else if (key == "delay") {
      const auto delay = delay_kind_from_name(value);
      if (!delay.has_value()) {
        return fail(line_no, "unknown delay model '" + value + "'");
      }
      config.delay = *delay;
    } else if (key == "seed") {
      const auto v = parse_u64(value);
      if (!v.has_value()) return fail(line_no, "bad seed");
      config.seed = *v;
    } else if (key == "budget") {
      const auto v = parse_u64(value);
      if (!v.has_value() || *v == 0) return fail(line_no, "bad budget");
      config.budget = *v;
    } else {
      return fail(line_no, "unknown key '" + key + "'");
    }
  }

  if (!labels.has_value()) {
    return fail(0, "missing required key 'ring'");
  }
  RingSpecResult result;
  ring::LabeledRing ring(*labels);
  config.algorithm.id = algo.value_or(election::AlgorithmId::kAk);
  config.algorithm.k =
      explicit_k.value_or(std::max<std::size_t>(1, ring.max_multiplicity()));
  result.spec = RingSpec{std::move(ring), config};
  return result;
}

RingSpecResult parse_ringspec(std::string_view text) {
  std::istringstream in{std::string(text)};
  return parse_ringspec(in);
}

}  // namespace hring::core
