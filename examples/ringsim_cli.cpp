// ringsim: command-line driver for the whole library.
//
// Run any registered algorithm on any labeled ring under any daemon or
// delay model, with optional action-level tracing.
//
//   $ ./ringsim_cli --ring 1,3,1,3,2,2,1,2 --algo Bk --k 3 --trace
//   $ ./ringsim_cli --random-n 12 --k 2 --algo Ak --sched random-subset
//   $ ./ringsim_cli --ring 1,2,3 --algo Peterson --engine event
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/campaign.hpp"
#include "core/election_driver.hpp"
#include "core/experiment.hpp"
#include "core/spec_audit.hpp"
#include "core/verification.hpp"
#include "ring/classes.hpp"
#include "ring/generator.hpp"
#include "core/model_checker.hpp"
#include "core/report.hpp"
#include "core/ringspec.hpp"
#include "runtime/inhost/inhost_ring.hpp"
#include "sim/render.hpp"
#include "sim/trace.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "telemetry/telemetry_observer.hpp"
#include "telemetry/trace_export.hpp"

namespace {

void usage(const char* argv0) {
  std::cout
      << "usage: " << argv0 << " [run|audit|sweep|trace] [options]\n"
      << "  run                 subcommand: run one election (the default\n"
         "                      when no subcommand is given); --transport\n"
         "                      selects the execution substrate\n"
      << "  audit               subcommand: §II model-conformance audit of\n"
         "                      the selected algorithm on the selected ring\n"
         "                      (replay determinism, locality, message and\n"
         "                      space bounds, FIFO discipline)\n"
      << "  sweep               subcommand: run the election across many\n"
         "                      consecutive seeds on a worker pool (one\n"
         "                      row per run; identical for any --workers)\n"
      << "  trace               subcommand: run once with telemetry attached\n"
         "                      and emit a Perfetto/chrome://tracing JSON\n"
         "                      timeline (to --trace-out, default stdout)\n"
      << "  --ring A,B,C,...    clockwise labels (unsigned integers)\n"
      << "  --random-n N        instead of --ring: random asymmetric ring\n"
      << "  --spec FILE         load ring + config from a ringspec file\n"
      << "  --algo NAME         Ak | Bk | ChangRoberts | LeLann | Peterson"
         " (default Ak)\n"
      << "  --k K               multiplicity bound for Ak/Bk (default: the"
         " ring's actual one)\n"
      << "  --transport T       run: sim (simulated daemon, default) |\n"
         "                      threads (the in-host runtime: one OS\n"
         "                      thread per process, lock-free byte links,\n"
         "                      wire-framed messages)\n"
      << "  --engine KIND       step | event (default step)\n"
      << "  --sched KIND        synchronous | round-robin | random-single |"
         " random-subset | convoy\n"
      << "  --delay KIND        worst-case | uniform | slow-link (event"
         " engine)\n"
      << "  --seed S            randomness seed (default 1)\n"
      << "  --trace             print the action-level trace\n"
      << "  --trace-out FILE    write the telemetry timeline (Chrome\n"
         "                      trace-event / Perfetto JSON) to FILE; with\n"
         "                      run --transport=threads, the flight\n"
         "                      recorder's trace of the real threads\n"
      << "  --flight-out FILE   run --transport=threads: write the flight\n"
         "                      recorder's forensic report (hring-forensics/1\n"
         "                      JSON: per-thread last-K events, park state,\n"
         "                      watchdog verdict) to FILE\n"
      << "  --watchdog-ms N     run --transport=threads: watchdog quiet\n"
         "                      period in milliseconds, N > 0 (still floored\n"
         "                      at 4ms x ring size — see docs/RUNTIME.md)\n"
      << "  --metrics-out FILE  write the telemetry metrics document\n"
         "                      (counters + histograms) to FILE; with\n"
         "                      sweep, registries of all runs are merged\n"
      << "  --watch N           render the configuration every N steps\n"
      << "  --model-check       exhaustively verify EVERY schedule (small\n"
         "                      rings, at most 64 processes) instead of\n"
         "                      one run; not with audit, sweep or trace\n"
      << "  --json              emit the full run report as JSON\n"
      << "  --quiet             outcome + stats only\n"
      << "  --runs N            sweep: number of cells (default 16;\n"
         "                      --cells is an alias)\n"
      << "  --workers W         sweep: worker threads, >= 1 (default:"
         " hardware concurrency)\n"
      << "  --campaign          sweep: statistical campaign mode — print\n"
         "                      merged percentiles + throughput instead of\n"
         "                      one row per run; with --random-n, every\n"
         "                      cell samples its own asymmetric ring\n"
      << "  --backend B         sweep: auto | batch | scalar (default"
         " auto)\n"
      << "  --no-verify         sweep: skip terminal-state verification\n";
}

std::optional<hring::words::LabelSequence> parse_ring(const std::string& s) {
  hring::words::LabelSequence labels;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      labels.emplace_back(std::stoull(item));
    } catch (...) {
      return std::nullopt;
    }
  }
  if (labels.size() < 2) return std::nullopt;
  return labels;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hring;

  std::optional<words::LabelSequence> labels;
  std::optional<core::RingSpec> spec;
  std::size_t random_n = 0;
  std::string algo_name = "Ak";
  bool algo_set = false;
  std::size_t k = 0;
  core::ElectionConfig config;
  bool trace_enabled = false;
  bool quiet = false;
  bool model_check = false;
  bool json = false;
  bool audit = false;
  bool sweep = false;
  bool trace_cmd = false;
  std::string trace_out;
  std::string metrics_out;
  std::string flight_out;
  std::uint64_t watchdog_ms = 0;
  std::uint64_t watch_every = 0;
  std::size_t runs = 16;
  std::size_t workers = 0;
  bool campaign_mode = false;
  bool verify = true;
  bool threads_transport = false;
  core::CampaignBackend backend = core::CampaignBackend::kAuto;

  int first_arg = 1;
  if (argc > 1 && std::string(argv[1]) == "run") {
    // The default mode, named: `run` exists so scripts can say what they
    // mean (`ringsim_cli run --transport=threads ...`).
    first_arg = 2;
  } else if (argc > 1 && std::string(argv[1]) == "audit") {
    audit = true;
    first_arg = 2;
  } else if (argc > 1 && std::string(argv[1]) == "sweep") {
    sweep = true;
    first_arg = 2;
  } else if (argc > 1 && std::string(argv[1]) == "trace") {
    trace_cmd = true;
    first_arg = 2;
  }

  for (int i = first_arg; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(EXIT_FAILURE);
      }
      return argv[++i];
    };
    if (arg == "--ring") {
      labels = parse_ring(next());
      if (!labels) {
        std::cerr << "bad --ring (need >= 2 comma-separated integers)\n";
        return EXIT_FAILURE;
      }
    } else if (arg == "--spec") {
      std::ifstream file(next());
      if (!file) {
        std::cerr << "cannot open spec file\n";
        return EXIT_FAILURE;
      }
      auto parsed = core::parse_ringspec(file);
      if (parsed.error.has_value()) {
        std::cerr << "spec error: " << parsed.error->to_string() << "\n";
        return EXIT_FAILURE;
      }
      spec = std::move(parsed.spec);
    } else if (arg == "--random-n") {
      random_n = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--algo") {
      algo_name = next();
      algo_set = true;
    } else if (arg == "--k") {
      k = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--transport" || arg.rfind("--transport=", 0) == 0) {
      const std::string v =
          arg == "--transport" ? next() : arg.substr(sizeof("--transport=") - 1);
      if (v == "sim") {
        threads_transport = false;
      } else if (v == "threads") {
        threads_transport = true;
      } else {
        std::cerr << "unknown transport '" << v << "' (sim | threads)\n";
        return EXIT_FAILURE;
      }
    } else if (arg == "--engine") {
      const auto engine = core::engine_kind_from_name(next());
      if (!engine.has_value()) {
        std::cerr << "bad --engine\n";
        return EXIT_FAILURE;
      }
      config.engine = *engine;
    } else if (arg == "--sched") {
      const auto scheduler = core::scheduler_kind_from_name(next());
      if (!scheduler.has_value()) {
        std::cerr << "bad --sched\n";
        return EXIT_FAILURE;
      }
      config.scheduler = *scheduler;
    } else if (arg == "--delay") {
      const auto delay = core::delay_kind_from_name(next());
      if (!delay.has_value()) {
        std::cerr << "bad --delay\n";
        return EXIT_FAILURE;
      }
      config.delay = *delay;
    } else if (arg == "--seed") {
      config.seed = std::stoull(next());
    } else if (arg == "--trace") {
      trace_enabled = true;
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--flight-out" || arg.rfind("--flight-out=", 0) == 0) {
      flight_out = arg == "--flight-out"
                       ? next()
                       : arg.substr(sizeof("--flight-out=") - 1);
    } else if (arg == "--watchdog-ms" ||
               arg.rfind("--watchdog-ms=", 0) == 0) {
      const std::string v = arg == "--watchdog-ms"
                                ? next()
                                : arg.substr(sizeof("--watchdog-ms=") - 1);
      long long parsed = 0;
      try {
        std::size_t pos = 0;
        parsed = std::stoll(v, &pos);
        if (pos != v.size()) throw std::invalid_argument(v);
      } catch (...) {
        std::cerr << "bad --watchdog-ms '" << v
                  << "': need a positive integer (milliseconds)\n";
        return EXIT_FAILURE;
      }
      if (parsed <= 0) {
        std::cerr << "bad --watchdog-ms " << parsed
                  << ": need a positive quiet period in milliseconds\n";
        return EXIT_FAILURE;
      }
      watchdog_ms = static_cast<std::uint64_t>(parsed);
    } else if (arg == "--watch") {
      watch_every = std::stoull(next());
    } else if (arg == "--model-check") {
      model_check = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--runs" || arg == "--cells") {
      runs = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--workers") {
      const std::string v = next();
      long long parsed = 0;
      try {
        std::size_t pos = 0;
        parsed = std::stoll(v, &pos);
        if (pos != v.size()) throw std::invalid_argument(v);
      } catch (...) {
        std::cerr << "bad --workers '" << v
                  << "': need a positive integer\n";
        return EXIT_FAILURE;
      }
      if (parsed <= 0) {
        std::cerr << "bad --workers " << parsed
                  << ": need at least 1 worker thread\n";
        return EXIT_FAILURE;
      }
      workers = static_cast<std::size_t>(parsed);
    } else if (arg == "--campaign") {
      campaign_mode = true;
    } else if (arg == "--backend") {
      const std::string v = next();
      if (v == "auto") {
        backend = core::CampaignBackend::kAuto;
      } else if (v == "batch") {
        backend = core::CampaignBackend::kBatch;
      } else if (v == "scalar") {
        backend = core::CampaignBackend::kScalar;
      } else {
        std::cerr << "bad --backend (auto | batch | scalar)\n";
        return EXIT_FAILURE;
      }
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return EXIT_SUCCESS;
    } else {
      std::cerr << "unknown option " << arg << "\n";
      usage(argv[0]);
      return EXIT_FAILURE;
    }
  }

  if (threads_transport) {
    // The in-host runtime executes one election on real threads; the
    // simulator-only modes have no meaning there.
    if (campaign_mode || sweep) {
      std::cerr << "--transport threads runs one real election and cannot "
                   "drive "
                << (campaign_mode ? "--campaign" : "sweep")
                << "; use the sim transport for statistical runs\n";
      return EXIT_FAILURE;
    }
    if (audit || trace_cmd || model_check) {
      std::cerr << "--transport threads supports only the run subcommand "
                   "(the conformance harness audits threaded runs: see "
                   "docs/RUNTIME.md)\n";
      return EXIT_FAILURE;
    }
  } else if (watchdog_ms > 0 || !flight_out.empty()) {
    std::cerr << (watchdog_ms > 0 ? "--watchdog-ms" : "--flight-out")
              << " requires run --transport=threads (the in-host runtime; "
                 "see docs/RUNTIME.md)\n";
    return EXIT_FAILURE;
  }
  if (model_check && (sweep || audit || trace_cmd)) {
    // Each of these modes would run instead of the exhaustive check.
    std::cerr << "--model-check is a mode of its own and cannot be combined "
                 "with the "
              << (sweep ? "sweep" : audit ? "audit" : "trace")
              << " subcommand\n";
    return EXIT_FAILURE;
  }

  std::optional<ring::LabeledRing> ring;
  if (spec.has_value()) {
    ring.emplace(spec->ring);
    config = spec->config;
    // The spec's algorithm wins unless --algo was passed explicitly.
    if (!algo_set) {
      algo_name = election::algorithm_name(config.algorithm.id);
    }
    if (k == 0) k = config.algorithm.k;
  } else if (labels) {
    ring.emplace(*labels);
  } else if (random_n >= 2) {
    support::Rng rng(config.seed);
    const std::size_t want_k = k == 0 ? 2 : k;
    ring = ring::random_asymmetric_ring(
        random_n, want_k, (random_n + want_k - 1) / want_k + 2, rng);
    if (!ring) {
      std::cerr << "could not sample an asymmetric ring\n";
      return EXIT_FAILURE;
    }
  } else {
    usage(argv[0]);
    return EXIT_FAILURE;
  }

  const auto algo = election::algorithm_from_name(algo_name);
  if (!algo) {
    std::cerr << "unknown algorithm " << algo_name << "\n";
    return EXIT_FAILURE;
  }

  if (json) quiet = true;  // JSON owns stdout
  // `trace` without --trace-out streams the timeline JSON to stdout.
  const bool trace_to_stdout = trace_cmd && trace_out.empty();
  if (trace_to_stdout) quiet = true;

  const auto report = ring::classify(*ring);
  if (k == 0) k = report.min_k();
  config.algorithm = {*algo, k, false};

  if (!quiet) {
    std::cout << "ring:  " << ring->to_string() << "\n";
    std::cout << "class: " << report.to_string() << "\n";
    std::cout << "algo:  " << election::algorithm_name(*algo)
              << " (k = " << k << ")\n";
    if (!election::ring_in_algorithm_class(config.algorithm, *ring)) {
      std::cout << "warning: ring is OUTSIDE the algorithm's class — "
                   "anything can happen (see impossibility_demo)\n";
    }
  }

  if (threads_transport) {
    runtime::InHostConfig inhost_config;
    if (watchdog_ms > 0) inhost_config.quiet_period_ms = watchdog_ms;
    // The flight recorder feeds both dumps: --flight-out gets the
    // forensic report, --trace-out (on this transport) the recorder's
    // Perfetto trace of the real threads rather than the simulator
    // timeline.
    inhost_config.flight_recorder =
        !flight_out.empty() || !trace_out.empty();
    const auto result = runtime::run_inhost(
        *ring, election::make_factory(config.algorithm), inhost_config);

    if (result.forensics.has_value()) {
      if (!flight_out.empty()) {
        std::ofstream out(flight_out);
        if (!out) {
          std::cerr << "cannot open " << flight_out << "\n";
          return EXIT_FAILURE;
        }
        runtime::write_forensics_json(out, *result.forensics);
        if (!quiet && !json) std::cout << "flight:  " << flight_out << "\n";
      }
      if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        if (!out) {
          std::cerr << "cannot open " << trace_out << "\n";
          return EXIT_FAILURE;
        }
        runtime::write_flight_trace_json(out, *result.forensics);
        if (!quiet && !json) std::cout << "trace:   " << trace_out << "\n";
      }
    }

    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        std::cerr << "cannot open " << metrics_out << "\n";
        return EXIT_FAILURE;
      }
      telemetry::write_metrics_json(out, result.metrics);
      if (!quiet && !json) std::cout << "metrics: " << metrics_out << "\n";
    }

    // The sim path's terminal verifier, plus the wire's own health.
    const auto leader = result.leader_pid();
    sim::RunResult terminal;
    terminal.outcome = result.outcome;
    terminal.processes = result.processes;
    auto verification = core::verify_election(
        *ring, terminal,
        election::elects_true_leader(*algo) && report.asymmetric);
    if (result.wire_rejects != 0) {
      verification.fail(std::to_string(result.wire_rejects) +
                        " frames rejected by the wire decoder");
    }
    if (result.sends_abandoned != 0) {
      verification.fail(std::to_string(result.sends_abandoned) +
                        " sends abandoned at shutdown");
    }
    const double seconds =
        static_cast<double>(result.elapsed_ns) / 1e9;

    if (json) {
      support::JsonWriter run_json(std::cout);
      run_json.begin_object();
      run_json.key("transport").value("threads");
      run_json.key("outcome").value(sim::outcome_name(result.outcome));
      if (leader.has_value()) {
        run_json.key("leader").value(static_cast<std::uint64_t>(*leader));
      } else {
        run_json.key("leader").null();
      }
      run_json.key("processes").value(
          static_cast<std::uint64_t>(result.processes.size()));
      run_json.key("actions").value(result.actions);
      run_json.key("messages_sent").value(result.messages_sent);
      run_json.key("messages_received").value(result.messages_received);
      run_json.key("wire_rejects").value(result.wire_rejects);
      run_json.key("sends_abandoned").value(result.sends_abandoned);
      run_json.key("peak_space_bits").value(
          static_cast<std::uint64_t>(result.peak_space_bits));
      run_json.key("elapsed_seconds").value(seconds);
      run_json.key("verified").value(verification.ok);
      if (result.forensics.has_value()) {
        run_json.key("forensics").value(result.forensics->verdict);
      }
      run_json.end_object();
      std::cout << '\n';
    } else {
      std::cout << "outcome: " << sim::outcome_name(result.outcome) << "\n";
      if (result.forensics.has_value()) {
        std::cout << "forensics: " << result.forensics->summary() << "\n";
      }
      if (leader.has_value()) {
        std::cout << "leader: p" << *leader << " (label "
                  << words::to_string(ring->label(*leader)) << ")\n";
      }
      std::cout << "stats: actions=" << result.actions
                << " sent=" << result.messages_sent
                << " recv=" << result.messages_received
                << " peak_space_bits=" << result.peak_space_bits
                << " wire_rejects=" << result.wire_rejects << "\n";
      std::cout << "threads: " << result.processes.size()
                << " workers, " << seconds << " s\n";
      if (!quiet) {
        std::cout << "verification: " << verification.to_string() << "\n";
      }
    }
    return verification.ok ? EXIT_SUCCESS : EXIT_FAILURE;
  }

  if (sweep) {
    // Every sweep is a campaign (core/campaign.hpp): one campaign seed,
    // per-cell seeds derived from (seed, index), backend auto-selected.
    // The classic table mode streams per-cell rows through the campaign's
    // cell sink; --campaign prints the merged percentile summary instead.
    const bool want_metrics = !metrics_out.empty();
    core::SweepConfig sweep_config;
    sweep_config.election = config;
    sweep_config.cells = runs;
    sweep_config.seed = config.seed;
    sweep_config.workers = workers;
    sweep_config.backend = backend;
    sweep_config.verify = verify;
    sweep_config.collect_telemetry = want_metrics;
    sweep_config.check_true_leader = election::elects_true_leader(*algo);
    if (campaign_mode && random_n >= 2) {
      // Statistical mode over instances: every cell samples its own
      // asymmetric ring from its derived ring seed.
      sweep_config.source = core::RingSource::random_asymmetric(random_n);
    } else {
      sweep_config.source = core::RingSource::fixed(*ring);
    }

    struct Row {
      std::uint64_t seed = 0;
      sim::Outcome outcome = sim::Outcome::kDeadlock;
      std::optional<sim::ProcessId> leader;
      sim::Stats stats;
      bool ok = false;
    };
    std::vector<Row> rows;
    if (!campaign_mode) {
      // Pre-sized row store: cells land at their own index from whichever
      // worker ran them — disjoint writes, no synchronization needed.
      rows.resize(runs);
      sweep_config.cell_sink = [&rows](const core::CellView& cell) {
        rows[cell.cell] =
            Row{cell.election_seed, cell.outcome, cell.leader, cell.stats,
                cell.verified};
      };
    }

    core::CampaignResult campaign;
    try {
      campaign = core::run_campaign(sweep_config);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return EXIT_FAILURE;
    }
    const bool all_ok = !verify || campaign.all_verified();

    if (want_metrics) {
      std::ofstream out(metrics_out);
      if (!out) {
        std::cerr << "cannot open " << metrics_out << "\n";
        return EXIT_FAILURE;
      }
      telemetry::write_metrics_json(out, campaign.metrics);
    }

    if (campaign_mode) {
      if (json) {
        support::JsonWriter campaign_json(std::cout);
        campaign_json.begin_object();
        campaign_json.key("cells").value(
            static_cast<std::uint64_t>(campaign.cells));
        campaign_json.key("workers").value(
            static_cast<std::uint64_t>(campaign.workers));
        campaign_json.key("backend").value(
            core::campaign_backend_name(campaign.backend));
        campaign_json.key("outcomes");
        campaign_json.begin_object();
        for (std::size_t o = 0; o < campaign.outcome_counts.size(); ++o) {
          campaign_json.key(sim::outcome_name(static_cast<sim::Outcome>(o)))
              .value(campaign.outcome_counts[o]);
        }
        campaign_json.end_object();
        campaign_json.key("verify_failures")
            .value(campaign.verify_failures);
        campaign_json.key("elapsed_seconds")
            .value(campaign.elapsed_seconds);
        campaign_json.key("elections_per_second")
            .value(campaign.elections_per_second);
        campaign_json.key("quantiles");
        campaign_json.begin_object();
        for (const char* stat : {"steps", "messages_sent", "time_units",
                                 "peak_space_bits", "label_comparisons"}) {
          campaign_json.key(stat);
          campaign_json.begin_object();
          campaign_json.key("p50").value(campaign.quantile(stat, 0.50));
          campaign_json.key("p90").value(campaign.quantile(stat, 0.90));
          campaign_json.key("p99").value(campaign.quantile(stat, 0.99));
          campaign_json.key("max").value(campaign.quantile(stat, 1.0));
          campaign_json.end_object();
        }
        campaign_json.end_object();
        campaign_json.end_object();
        std::cout << '\n';
      } else {
        std::cout << "campaign: " << campaign.cells << " cells, "
                  << campaign.workers << " workers, "
                  << core::campaign_backend_name(campaign.backend)
                  << " backend\n";
        std::cout << "outcomes:";
        for (std::size_t o = 0; o < campaign.outcome_counts.size(); ++o) {
          if (campaign.outcome_counts[o] == 0) continue;
          std::cout << " " << sim::outcome_name(static_cast<sim::Outcome>(o))
                    << "=" << campaign.outcome_counts[o];
        }
        std::cout << "\n";
        if (verify) {
          std::cout << "verified: "
                    << (all_ok ? "all"
                               : std::to_string(campaign.verify_failures) +
                                     " FAILURES")
                    << "\n";
        }
        support::Table table({"stat", "p50", "p90", "p99", "max"});
        for (const char* stat : {"steps", "messages_sent", "time_units",
                                 "peak_space_bits", "label_comparisons"}) {
          table.row()
              .cell(stat)
              .cell(campaign.quantile(stat, 0.50), 1)
              .cell(campaign.quantile(stat, 0.90), 1)
              .cell(campaign.quantile(stat, 0.99), 1)
              .cell(campaign.quantile(stat, 1.0), 1);
        }
        table.print(std::cout);
        std::cout << "throughput: "
                  << static_cast<std::uint64_t>(
                         campaign.elections_per_second)
                  << " elections/sec (" << campaign.elapsed_seconds
                  << " s)\n";
      }
      return all_ok ? EXIT_SUCCESS : EXIT_FAILURE;
    }

    if (json) {
      // One object per run, each carrying the complete Stats document.
      support::JsonWriter sweep_json(std::cout);
      sweep_json.begin_array();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& c = rows[i];
        sweep_json.begin_object();
        sweep_json.key("cell").value(static_cast<std::uint64_t>(i));
        sweep_json.key("seed").value(c.seed);
        sweep_json.key("outcome").value(sim::outcome_name(c.outcome));
        if (c.leader.has_value()) {
          sweep_json.key("leader").value(
              static_cast<std::uint64_t>(*c.leader));
        } else {
          sweep_json.key("leader").null();
        }
        sweep_json.key("verified").value(c.ok);
        sweep_json.key("stats");
        c.stats.to_json(sweep_json);
        sweep_json.end_object();
      }
      sweep_json.end_array();
      std::cout << '\n';
    } else {
      support::Table table({"cell", "seed", "outcome", "leader", "steps",
                            "msgs", "time", "peak bits", "verified"});
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& c = rows[i];
        table.row()
            .cell(i)
            .cell(c.seed)
            .cell(sim::outcome_name(c.outcome))
            .cell(c.leader ? "p" + std::to_string(*c.leader) : "-")
            .cell(c.stats.steps)
            .cell(c.stats.messages_sent)
            .cell(c.stats.time_units, 0)
            .cell(c.stats.peak_space_bits)
            .cell(verify ? (c.ok ? "yes" : "NO") : "-");
      }
      table.print(std::cout);
      std::cout << "\nsweep: " << runs << " runs, " << campaign.workers
                << " workers, "
                << core::campaign_backend_name(campaign.backend)
                << " backend, "
                << (verify
                        ? (all_ok ? "all verified" : "VERIFICATION FAILURES")
                        : "verification off")
                << "\n";
    }
    return all_ok ? EXIT_SUCCESS : EXIT_FAILURE;
  }

  if (audit) {
    core::SpecAuditConfig audit_config;
    audit_config.scheduler = config.scheduler;
    audit_config.seed = config.seed;
    const auto audit_report = core::audit_algorithm(*ring, config.algorithm,
                                                    audit_config);
    std::cout << "audit (" << core::scheduler_kind_name(config.scheduler)
              << " daemon, seed " << config.seed
              << "): " << audit_report.summary() << "\n";
    for (const auto& v : audit_report.violations) {
      std::cout << "  " << v << "\n";
    }
    return audit_report.ok() ? EXIT_SUCCESS : EXIT_FAILURE;
  }

  if (model_check) {
    if (ring->size() > core::kMaxModelCheckProcesses) {
      std::cerr << "--model-check explores rings of at most "
                << core::kMaxModelCheckProcesses << " processes; this ring has "
                << ring->size() << "\n";
      return EXIT_FAILURE;
    }
    core::ModelCheckConfig check_config;
    // The baselines elect the maximum label, which need not be the paper's
    // true leader; only A_k/B_k are held to it.
    const bool paper_algo = *algo == election::AlgorithmId::kAk ||
                            *algo == election::AlgorithmId::kBk;
    check_config.check_true_leader = paper_algo;
    const auto check = core::check_all_schedules(
        *ring, {*algo, k, false}, check_config);
    std::cout << "model check: " << check.to_string() << "\n";
    return check.ok && check.complete ? EXIT_SUCCESS : EXIT_FAILURE;
  }

  sim::TraceRecorder trace;
  if (trace_enabled) config.extra_observers.push_back(&trace);
  sim::WatchObserver watch(std::cout, watch_every);
  if (watch_every > 0) config.extra_observers.push_back(&watch);
  telemetry::TelemetryObserver telemetry_observer;
  const bool want_telemetry =
      trace_cmd || !trace_out.empty() || !metrics_out.empty();
  if (want_telemetry) config.extra_observers.push_back(&telemetry_observer);

  const auto result = core::run_election(*ring, config);

  if (want_telemetry) {
    if (trace_to_stdout) {
      telemetry::write_trace_json(std::cout, telemetry_observer);
    } else if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      if (!out) {
        std::cerr << "cannot open " << trace_out << "\n";
        return EXIT_FAILURE;
      }
      telemetry::write_trace_json(out, telemetry_observer);
      if (!quiet) std::cout << "trace:   " << trace_out << "\n";
    }
    if (!metrics_out.empty()) {
      std::ofstream out(metrics_out);
      if (!out) {
        std::cerr << "cannot open " << metrics_out << "\n";
        return EXIT_FAILURE;
      }
      telemetry::write_metrics_json(out, telemetry_observer.metrics());
      if (!quiet) std::cout << "metrics: " << metrics_out << "\n";
    }
  }

  if (trace_to_stdout) {
    // The timeline owns stdout; verification still gates the exit code.
    const bool check_true =
        election::elects_true_leader(*algo) && report.asymmetric;
    const auto verification =
        core::verify_election(*ring, result, check_true);
    return verification.ok ? EXIT_SUCCESS : EXIT_FAILURE;
  }

  if (json) {
    const bool check_true =
        election::elects_true_leader(*algo) && report.asymmetric;
    const auto verification =
        core::verify_election(*ring, result, check_true);
    core::write_json_report(std::cout, *ring, config, result, verification);
    return verification.ok ? EXIT_SUCCESS : EXIT_FAILURE;
  }

  if (trace_enabled) trace.print(std::cout);
  std::cout << "outcome: " << sim::outcome_name(result.outcome) << "\n";
  for (const auto& v : result.violations) {
    std::cout << "violation: " << v << "\n";
  }
  if (const auto leader = result.leader_pid()) {
    std::cout << "leader: p" << *leader << " (label "
              << words::to_string(ring->label(*leader)) << ")\n";
  }
  std::cout << "stats: " << result.stats.summary() << "\n";

  const bool check_true_leader =
      election::elects_true_leader(*algo) && report.asymmetric;
  const auto verification =
      core::verify_election(*ring, result, check_true_leader);
  if (!quiet) {
    std::cout << "verification: " << verification.to_string() << "\n";
  }
  return verification.ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
