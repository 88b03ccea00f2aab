#include "core/report.hpp"

#include <ostream>

#include "ring/classes.hpp"
#include "support/json.hpp"

namespace hring::core {

void write_json_report(std::ostream& out, const ring::LabeledRing& ring,
                       const ElectionConfig& config,
                       const sim::RunResult& result,
                       const VerificationReport& verification) {
  support::JsonWriter json(out);
  json.begin_object();

  json.key("ring").begin_object();
  json.key("labels").begin_array();
  for (const auto label : ring.labels()) {
    json.value(label.value());
  }
  json.end_array();
  json.key("n").value(static_cast<std::uint64_t>(ring.size()));
  const auto classes = ring::classify(ring);
  json.key("distinct_labels")
      .value(static_cast<std::uint64_t>(classes.distinct_labels));
  json.key("max_multiplicity")
      .value(static_cast<std::uint64_t>(classes.max_multiplicity));
  json.key("asymmetric").value(classes.asymmetric);
  json.key("has_unique_label").value(classes.has_unique_label);
  json.end_object();

  json.key("config").begin_object();
  json.key("algorithm").value(election::algorithm_name(config.algorithm.id));
  json.key("k").value(static_cast<std::uint64_t>(config.algorithm.k));
  json.key("engine").value(engine_kind_name(config.engine));
  json.key("scheduler").value(scheduler_kind_name(config.scheduler));
  json.key("delay").value(delay_kind_name(config.delay));
  json.key("seed").value(config.seed);
  json.end_object();

  json.key("outcome").value(sim::outcome_name(result.outcome));

  json.key("stats");
  result.stats.to_json(json);

  json.key("processes").begin_array();
  for (const auto& p : result.processes) {
    json.begin_object();
    json.key("pid").value(static_cast<std::uint64_t>(p.pid));
    json.key("id").value(p.id.value());
    json.key("is_leader").value(p.is_leader);
    json.key("done").value(p.done);
    json.key("halted").value(p.halted);
    if (p.leader.has_value()) {
      json.key("leader").value(p.leader->value());
    } else {
      json.key("leader").null();
    }
    json.key("state").value(p.debug);
    json.end_object();
  }
  json.end_array();

  json.key("violations").begin_array();
  for (const auto& v : result.violations) json.value(v);
  json.end_array();

  json.key("verification").begin_object();
  json.key("ok").value(verification.ok);
  json.key("errors").begin_array();
  for (const auto& e : verification.errors) json.value(e);
  json.end_array();
  json.end_object();

  json.end_object();
  out << '\n';
}

}  // namespace hring::core
