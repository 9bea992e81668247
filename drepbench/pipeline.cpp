// drepbench — the drep benchmark pipeline.
//
// Runs the canonical pipeline of one workload through the library's public
// functions, repeatedly, and writes every measurement as one JSON document:
//
//   setup   generate → pattern change (drift) → trace build
//           [+ CSR build and lookup keys for the sparse leg]
//   plan    GRA as sra_seeded_population + evolve_population (the
//           composition the registry's "gra" runs at islands=1), or
//           decentralized GRA (dist::run_decentralized_gra)
//           [+ sparse SRA on the CSR instance]
//   retune  AGRA (registry "agra") or decentralized adapt
//           (dist::run_decentralized_adapt), on the drifted demand
//   replay  sim::replay_trace of the drifted trace against the retuned scheme
//   serve   SchemeSnapshot::freeze + serve::serve_trace (2 workers, 3 pinned
//           retunes) [+ kSparse freeze and seeded serve_cell lookups]
//
// Set-up runs several times, before and between the repetitions (same seed,
// so the same inputs). The pipeline runs once untimed as a warm-up, then
// repeats until --seconds have passed.
// With --trace 1 every other repetition runs traced: spans (name, start,
// end, parent, run id) are kept in memory around each library call and
// written out at the end, next to a few probes (a standalone SRA with its
// counters, the registry's plan at 1 vs 4 threads). Output checks run
// outside the timed regions; drepbench/run.py turns the document into
// metrics and fails the run on any mismatch.
//
//   drepbench --workload static-ga --seed 1 --seconds 25 --trace 0 --out r.json
//
// --sparse-objects N resizes static-ga's sparse leg (for scaling sweeps).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/gra.hpp"
#include "algo/solver.hpp"
#include "algo/sra_sparse.hpp"
#include "audit/invariants.hpp"
#include "core/cost_model.hpp"
#include "core/sparse_scheme.hpp"
#include "dist/dagra.hpp"
#include "dist/dgra.hpp"
#include "dist/solver.hpp"
#include "obs/json.hpp"
#include "serve/audit.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"
#include "sim/access_replay.hpp"
#include "sim/fault_plan.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/pattern_change.hpp"
#include "workload/stream_gen.hpp"
#include "workload/trace.hpp"

namespace {

using drep::obs::Json;
using Clock = std::chrono::steady_clock;

// --- workloads -------------------------------------------------------------

struct SparseLeg {
  std::size_t sites = 1000;
  std::size_t objects = 100'000;
  std::size_t lookups = 4'000'000;
};

// Shared by every workload: the paper's GA (Np, Ng), and serve_trace with
// two workers and three retunes pinned to trace positions.
constexpr std::size_t kPopulation = 50;
constexpr std::size_t kGenerations = 80;
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kServeRetunes = 3;
// The retune (AGRA, decentralized adapt) runs on one thread on every
// workload. At 4 threads decentralized adapt runs its per-site AGRA tasks in
// waves of 4 tiny pool tasks; its wall time then swung by 1.4-2.6 s between
// the repetitions of one run, while dgra at 4 threads stayed within 15%.
constexpr std::size_t kRetuneThreads = 1;
// Decentralized adapt's changed-object threshold. At the default 100% no
// site triggers: a site's local view moves only its own row of the demand.
constexpr double kDadaptChangeThresholdPercent = 10.0;

struct Workload {
  std::string name;
  drep::workload::GeneratorConfig generator{};
  drep::workload::PatternChangeConfig drift{};
  /// Plan with dgra and retune with decentralized adapt over the DES,
  /// instead of the registry's gra and agra.
  bool decentralized = false;
  std::size_t islands = 1;
  std::size_t threads = 1;
  std::string faults{};  // sim::FaultPlan spec; empty = perfect network
  /// serve_trace passes per repetition, so each repetition serves long
  /// enough to time (serve_rps is the median over all passes).
  std::size_t serve_passes = 1;
  std::optional<SparseLeg> sparse{};
};

std::vector<Workload> workloads() {
  std::vector<Workload> all;

  Workload ga;
  ga.name = "static-ga";
  ga.generator.sites = 50;
  ga.generator.objects = 500;
  ga.generator.update_ratio_percent = 5.0;
  ga.generator.capacity_percent = 15.0;
  ga.generator.reads_lo = 1;
  ga.generator.reads_hi = 4;
  ga.serve_passes = 4;
  ga.sparse = SparseLeg{};
  all.push_back(ga);

  Workload hot;
  hot.name = "replay-hot";
  hot.generator.sites = 50;
  hot.generator.objects = 100;
  hot.generator.update_ratio_percent = 5.0;
  hot.generator.capacity_percent = 15.0;
  hot.generator.reads_lo = 1;
  hot.generator.reads_hi = 300;
  hot.serve_passes = 4;
  all.push_back(hot);

  Workload faulty;
  faulty.name = "faulty-writes";
  faulty.generator.sites = 50;
  faulty.generator.objects = 250;
  faulty.generator.update_ratio_percent = 15.0;
  faulty.generator.capacity_percent = 15.0;
  faulty.generator.reads_lo = 1;
  faulty.generator.reads_hi = 4;
  faulty.drift.read_share_percent = 20.0;
  faulty.decentralized = true;
  faulty.islands = 4;
  faulty.threads = 4;
  faulty.faults = "seed=7,drop=0.05,crash=3@100..2000";
  faulty.serve_passes = 8;
  all.push_back(faulty);

  return all;
}

// --- tracing ---------------------------------------------------------------

/// Benchmark-side spans around the library calls. Disabled tracers record
/// nothing; the stage stopwatches run either way.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
    long run = -1;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { enabled_ = on; }
  void set_run(long run) { run_ = run; }

  /// Runs `body`, returns its wall seconds, and records a span around it
  /// when enabled.
  template <class Body>
  double timed(const char* name, Body&& body) {
    long index = -1;
    if (enabled_) {
      index = static_cast<long>(spans_.size());
      spans_.push_back({name, now(), 0.0, open_, run_});
      open_ = index;
    }
    const Clock::time_point start = Clock::now();
    body();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (enabled_) {
      spans_[static_cast<std::size_t>(index)].end = now();
      open_ = spans_[static_cast<std::size_t>(index)].parent;
    }
    return seconds;
  }

  [[nodiscard]] Json to_json() const {
    Json out = Json::array();
    for (const Span& span : spans_) {
      Json row = Json::object();
      row["name"] = Json(span.name);
      row["start"] = Json(span.start);
      row["end"] = Json(span.end);
      row["parent"] = Json(span.parent);
      row["run"] = Json(span.run);
      out.push_back(std::move(row));
    }
    return out;
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  long run_ = -1;
  long open_ = -1;
  std::vector<Span> spans_;
};

// --- inputs ------------------------------------------------------------------

struct Lookup {
  std::size_t cell;
  drep::core::ObjectId object;
  bool is_write;
};

struct Inputs {
  drep::core::Problem base;
  drep::core::Problem drifted;
  std::vector<drep::core::ObjectId> changed;
  std::vector<drep::workload::Request> trace;
  std::optional<drep::core::SparseInstance> sparse;
  std::vector<Lookup> lookups;
};

std::uint64_t fnv(const void* data, std::size_t size, std::uint64_t seed) {
  return drep::serve::fnv1a(data, size, seed);
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::uint64_t trace_hash(std::span<const drep::workload::Request> trace) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const auto& request : trace) {
    const std::uint64_t packed = (std::uint64_t{request.site} << 40) ^
                                 (std::uint64_t{request.object} << 1) ^
                                 (request.is_write ? 1u : 0u);
    hash = fnv(&packed, sizeof packed, hash);
  }
  return hash;
}

std::uint64_t sparse_scheme_hash(const drep::core::SparseReplicationScheme& s,
                                 std::size_t objects) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (drep::core::ObjectId k = 0; k < objects; ++k) {
    const auto& list = s.replicas(k);
    hash = fnv(list.data(), list.size() * sizeof list[0], hash);
    const std::uint64_t end = ~std::uint64_t{0};
    hash = fnv(&end, sizeof end, hash);
  }
  return hash;
}

/// One set-up: everything the pipeline consumes, built from the seed alone.
Inputs make_inputs(const Workload& w, std::uint64_t seed, Tracer& tracer,
                   Json& times) {
  drep::util::Rng rng(seed);
  std::optional<drep::core::Problem> base;
  std::optional<drep::core::Problem> drifted;
  std::vector<drep::core::ObjectId> changed;
  const double generate_s = tracer.timed("workload.generate", [&] {
    base = drep::workload::generate(w.generator, rng);
    drifted = *base;
    changed = drep::workload::apply_pattern_change(*drifted, w.drift, rng)
                  .all_changed();
    std::sort(changed.begin(), changed.end());
  });
  std::vector<drep::workload::Request> trace;
  const double trace_s = tracer.timed("workload.trace", [&] {
    trace = drep::workload::build_trace(*drifted, rng);
  });
  Inputs in{std::move(*base), std::move(*drifted), std::move(changed),
            std::move(trace), std::nullopt, {}};
  double sparse_s = 0.0;
  if (w.sparse) {
    sparse_s = tracer.timed("sparse.build", [&] {
      drep::workload::StreamConfig config;
      config.sites = w.sparse->sites;
      config.objects = w.sparse->objects;
      config.seed = seed;
      in.sparse = drep::workload::build_sparse_instance(config);
      drep::util::Rng keys = rng.fork(0x5ea5e);
      in.lookups.reserve(w.sparse->lookups);
      for (std::size_t n = 0; n < w.sparse->lookups; ++n) {
        const auto k = static_cast<drep::core::ObjectId>(
            keys.uniform_u64(0, w.sparse->objects - 1));
        const std::size_t lo = in.sparse->demand_begin(k);
        const std::size_t hi = in.sparse->demand_end(k);
        const std::size_t z = lo + keys.uniform_u64(0, hi - lo - 1);
        in.lookups.push_back({z, k, keys.uniform_u64(0, 99) < 5});
      }
    });
  }
  times["generate_s"] = Json(generate_s);
  times["trace_s"] = Json(trace_s);
  times["sparse_build_s"] = Json(sparse_s);
  times["setup_s"] = Json(generate_s + trace_s + sparse_s);
  std::uint64_t digest = trace_hash(in.trace);
  digest = fnv(in.changed.data(), in.changed.size() * sizeof in.changed[0],
               digest);
  if (in.sparse) {
    const auto sites = in.sparse->demand_sites();
    digest = fnv(sites.data(), sites.size() * sizeof sites[0], digest);
  }
  times["input_hash"] = Json(hex(digest));
  times["requests"] = Json(in.trace.size());
  return in;
}

// --- checks ------------------------------------------------------------------

/// Collects output-check failures; run.py fails the run when any is present.
struct Checks {
  Json failures = Json::array();

  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(Json(what));
  }
  void audit(const drep::audit::Violations& violations,
             const std::string& what) {
    for (const auto& v : violations)
      failures.push_back(Json(what + ": " + v.invariant + " " + v.detail));
  }
  void finite_cost(double cost, const std::string& what) {
    expect(std::isfinite(cost) && cost >= 0.0, what + " cost is not finite");
  }
};

bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- the pipeline --------------------------------------------------------------

drep::algo::GraConfig gra_config(const Workload& w, std::size_t threads,
                                 std::uint64_t seed) {
  drep::algo::GraConfig config;
  config.population = kPopulation;
  config.generations = kGenerations;
  config.islands = w.islands;
  config.common.threads = threads;
  config.common.seed = seed;
  return config;
}

std::vector<drep::ga::Chromosome> genes_of(
    const std::vector<drep::algo::Individual>& population) {
  std::vector<drep::ga::Chromosome> genes;
  genes.reserve(population.size());
  for (const auto& individual : population) genes.push_back(individual.genes);
  return genes;
}

/// The static plan: scheme, retained population and counters.
struct PlanOutcome {
  drep::algo::AlgorithmResult result;
  std::vector<drep::algo::Individual> population;
  Json counters = Json::object();
};

PlanOutcome run_plan(const Workload& w, const drep::core::Problem& problem,
                     std::uint64_t seed, std::size_t threads, bool registry,
                     Tracer& tracer, Json& times) {
  Json counters = Json::object();
  const drep::algo::GraConfig config = gra_config(w, threads, seed);
  if (w.decentralized) {
    drep::dist::DgraOptions options;
    options.gra = config;
    if (!w.faults.empty())
      options.faults = drep::sim::FaultPlan::parse(w.faults);
    std::optional<drep::dist::DgraResult> run;
    times["dgra_s"] = Json(tracer.timed("dgra", [&] {
      drep::util::Rng rng(seed);
      run = drep::dist::run_decentralized_gra(problem, options, rng);
    }));
    counters["gra.evaluations"] = Json(run->merged.evaluations);
    counters["gra.full_equiv_evals"] =
        Json(run->merged.full_equivalent_evaluations);
    counters["dgra.migrations_sent"] = Json(run->migrations_sent);
    counters["dgra.migrations_missed"] = Json(run->migrations_missed);
    counters["dgra.elites_readmitted"] = Json(run->elites_readmitted);
    counters["dgra.retries"] = Json(run->retry_stats.retries);
    return {std::move(run->merged.best), std::move(run->merged.population),
            std::move(counters)};
  }
  if (!registry) {
    // The pipeline times GRA's two halves; at islands=1 the registry's
    // "gra" is exactly this composition on one stream (the probes check it).
    drep::util::Rng rng(seed);
    std::vector<drep::ga::Chromosome> initial;
    times["gra_seed_s"] = Json(tracer.timed("gra.seed", [&] {
      initial = drep::algo::sra_seeded_population(
          problem, config.population, config.perturb_fraction, rng);
    }));
    std::optional<drep::algo::GraResult> run;
    times["gra_evolve_s"] = Json(tracer.timed("gra.evolve", [&] {
      run = drep::algo::evolve_population(problem, std::move(initial), config,
                                          rng);
    }));
    counters["gra.evaluations"] = Json(run->evaluations);
    counters["gra.full_equiv_evals"] = Json(run->full_equivalent_evaluations);
    return {std::move(run->best), std::move(run->population),
            std::move(counters)};
  }
  drep::algo::SolverOptions options;
  options.gra = config;
  options.common = config.common;
  std::optional<drep::algo::SolveResponse> response;
  tracer.timed("gra", [&] {
    response = drep::algo::solver_registry().at("gra").solve({problem, options});
  });
  counters["gra.evaluations"] = response->details["evaluations"];
  counters["gra.full_equiv_evals"] =
      response->details["full_equivalent_evaluations"];
  return {std::move(response->result), std::move(response->population),
          std::move(counters)};
}

struct RetuneOutcome {
  drep::algo::AlgorithmResult result;
  Json counters = Json::object();
};

RetuneOutcome run_retune(const Workload& w, const Inputs& in,
                         const PlanOutcome& plan, std::uint64_t seed,
                         Tracer& tracer, Json& times) {
  Json counters = Json::object();
  drep::algo::AgraConfig agra;
  agra.common.threads = kRetuneThreads;
  agra.common.seed = seed;
  const std::vector<drep::ga::Chromosome> retained = genes_of(plan.population);
  if (w.decentralized) {
    drep::dist::DadaptOptions options;
    options.agra = agra;
    options.current_scheme = plan.result.scheme.matrix();
    options.retained_population = retained;
    options.change_threshold_percent = kDadaptChangeThresholdPercent;
    options.seed = seed;
    options.trace_seed = seed;
    if (!w.faults.empty())
      options.faults = drep::sim::FaultPlan::parse(w.faults);
    std::optional<drep::dist::DadaptResult> run;
    times["dadapt_s"] = Json(tracer.timed("dadapt", [&] {
      run = drep::dist::run_decentralized_adapt(in.base, in.drifted, options);
    }));
    counters["dadapt.retunes_run"] = Json(run->retunes_run);
    counters["dadapt.updates_sent"] = Json(run->updates_sent);
    counters["dadapt.updates_applied"] = Json(run->updates_applied);
    counters["dadapt.updates_ignored"] = Json(run->updates_ignored);
    counters["dadapt.directives_failed"] = Json(run->directives_failed);
    counters["dadapt.retries"] = Json(run->retry_stats.retries);
    counters["agra.changed_objects"] = Json(run->changed_objects.size());
    return {std::move(run->result), std::move(counters)};
  }
  drep::algo::SolverOptions options;
  options.agra = agra;
  options.common = agra.common;
  drep::algo::SolveRequest request{in.drifted, options};
  request.adapt = drep::algo::AdaptContext{&plan.result.scheme.matrix(),
                                           retained, in.changed};
  std::optional<drep::algo::SolveResponse> response;
  times["agra_s"] = Json(tracer.timed("agra", [&] {
    response = drep::algo::solver_registry().at("agra").solve(request);
  }));
  counters["agra.changed_objects"] = Json(in.changed.size());
  counters["agra.repairs"] = response->details["transcription_repairs"];
  counters["agra.micro_ga_s"] = response->details["micro_ga_seconds"];
  return {std::move(response->result), std::move(counters)};
}

/// One pass of the pipeline; returns its record.
Json run_pipeline(const Workload& w, const Inputs& in, std::uint64_t seed,
                  bool traced, Tracer& tracer) {
  Json times = Json::object();
  Json counters = Json::object();
  Json outputs = Json::object();
  Checks checks;

  std::optional<PlanOutcome> plan;
  std::optional<drep::algo::SparseSraResult> sparse_plan;
  drep::algo::SraStats sparse_stats;
  std::optional<RetuneOutcome> retune;
  std::optional<drep::sim::ReplayResult> replay;
  std::optional<drep::serve::SchemeSnapshot> snapshot;
  std::vector<drep::serve::ServeReport> served;
  std::optional<drep::serve::SchemeSnapshot> sparse_snapshot;
  double lookup_cost = 0.0;
  std::uint64_t lookup_hash = 1469598103934665603ULL;

  double plan_s = 0.0;
  double retune_s = 0.0;
  double replay_s = 0.0;
  double serve_s = 0.0;
  const double pipeline_s = tracer.timed("pipeline", [&] {
    plan_s = tracer.timed("plan", [&] {
      plan = run_plan(w, in.base, seed, w.threads, false, tracer, times);
      if (in.sparse) {
        times["sparse_sra_s"] = Json(tracer.timed("sparse_sra", [&] {
          drep::util::Rng rng(seed);
          sparse_plan = drep::algo::solve_sra_sparse(
              *in.sparse, drep::algo::SraConfig{}, rng, &sparse_stats);
        }));
      }
    });
    drep::util::ThreadPool::configure_shared(kRetuneThreads);
    retune_s = tracer.timed("retune", [&] {
      retune = run_retune(w, in, *plan, seed, tracer, times);
    });
    drep::util::ThreadPool::configure_shared(w.threads);
    replay_s = tracer.timed("replay", [&] {
      drep::sim::ReplayOptions options;
      if (!w.faults.empty())
        options.faults = drep::sim::FaultPlan::parse(w.faults);
      tracer.timed("replay_trace", [&] {
        replay =
            drep::sim::replay_trace(retune->result.scheme, in.trace, options);
      });
    });
    serve_s = tracer.timed("serve", [&] {
      times["serve_freeze_s"] = Json(tracer.timed("serve.freeze", [&] {
        snapshot = drep::serve::SchemeSnapshot::freeze(retune->result.scheme, 1);
      }));
      drep::serve::ServeConfig config;
      config.workers = kServeWorkers;
      config.seed = seed;
      config.retune_every =
          (in.trace.size() + kServeRetunes) / (kServeRetunes + 1);
      Json passes = Json::array();
      double serve_trace_s = 0.0;
      for (std::size_t pass = 0; pass < w.serve_passes; ++pass) {
        const double seconds = tracer.timed("serve.trace", [&] {
          served.push_back(
              drep::serve::serve_trace(in.drifted, in.trace, config));
        });
        passes.push_back(Json(seconds));
        serve_trace_s += seconds;
      }
      times["serve_trace_s"] = Json(serve_trace_s);
      times["serve_pass_s"] = std::move(passes);
      if (in.sparse) {
        times["sparse_freeze_s"] = Json(tracer.timed("sparse_serve.freeze", [&] {
          sparse_snapshot =
              drep::serve::SchemeSnapshot::freeze(sparse_plan->scheme, 1);
        }));
        times["sparse_lookup_s"] = Json(tracer.timed("sparse_serve.lookup", [&] {
          for (const Lookup& key : in.lookups) {
            const drep::serve::Outcome outcome =
                sparse_snapshot->serve_cell(key.cell, key.object, key.is_write);
            lookup_cost += outcome.cost;
            lookup_hash ^= outcome.served_by;
            lookup_hash *= 1099511628211ULL;
          }
        }));
      }
    });
  });
  times["plan_s"] = Json(plan_s);
  times["retune_s"] = Json(retune_s);
  times["replay_s"] = Json(replay_s);
  times["serve_s"] = Json(serve_s);
  times["pipeline_s"] = Json(pipeline_s);

  // Counters.
  for (const Json* group : {&plan->counters, &retune->counters})
    for (const auto& [key, value] : group->as_object()) counters[key] = value;
  const auto& traffic = replay->traffic;
  counters["replay.requests"] = Json(in.trace.size());
  counters["replay.messages"] = Json(traffic.sent_messages);
  counters["replay.local_reads"] = Json(replay->local_reads);
  counters["replay.remote_reads"] = Json(replay->remote_reads);
  counters["replay.retries"] = Json(replay->retry_stats.retries);
  counters["replay.timeouts"] = Json(replay->retry_stats.timeouts);
  counters["replay.failed_reads"] = Json(replay->failed_reads);
  counters["replay.failed_writes"] = Json(replay->failed_writes);
  counters["replay.stale_updates"] = Json(replay->stale_replica_updates);
  counters["serve.requests"] = Json(served[0].requests);
  counters["serve.generations"] = Json(served[0].generations);
  counters["serve.reclaimed"] = Json(served[0].reclaimed);
  if (in.sparse) {
    counters["sparse.demand_cells"] = Json(in.sparse->demand_cells());
    counters["sparse_sra.site_visits"] = Json(sparse_stats.site_visits);
    counters["sparse_sra.benefit_evals"] =
        Json(sparse_stats.benefit_evaluations);
    counters["sparse_serve.lookups"] = Json(in.lookups.size());
  }

  // Outputs, compared across repetitions and between traced and untraced
  // runs (doubles are written shortest-round-trip, so equal text = equal
  // bits).
  outputs["plan_cost"] = Json(plan->result.cost);
  outputs["plan_savings_pct"] = Json(plan->result.savings_percent);
  outputs["plan_hash"] =
      Json(hex(drep::dist::chromosome_hash(plan->result.scheme.matrix())));
  outputs["retune_cost"] = Json(retune->result.cost);
  outputs["retune_savings_pct"] = Json(retune->result.savings_percent);
  outputs["retune_hash"] =
      Json(hex(drep::dist::chromosome_hash(retune->result.scheme.matrix())));
  outputs["replay_data_traffic"] = Json(traffic.data_traffic);
  outputs["replay_read_latency"] = Json(replay->read_latency.mean());
  outputs["serve_outcome_hash"] = Json(hex(served[0].outcome_hash));
  outputs["serve_served_cost"] = Json(served[0].served_cost);
  outputs["snapshot_checksum"] = Json(hex(snapshot->checksum()));
  if (in.sparse) {
    outputs["sparse_cost"] = Json(sparse_plan->cost);
    outputs["sparse_savings_pct"] = Json(sparse_plan->savings_percent);
    outputs["sparse_hash"] = Json(
        hex(sparse_scheme_hash(sparse_plan->scheme, in.sparse->objects())));
    outputs["sparse_lookup_hash"] = Json(hex(lookup_hash));
    outputs["sparse_lookup_cost"] = Json(lookup_cost);
  }

  // Output checks (untimed).
  checks.audit(drep::audit::check_scheme(plan->result.scheme), "plan scheme");
  checks.audit(drep::audit::check_scheme(retune->result.scheme),
               "retune scheme");
  checks.finite_cost(plan->result.cost, "plan");
  checks.finite_cost(retune->result.cost, "retune");
  checks.expect(near(plan->result.cost,
                     drep::core::total_cost(plan->result.scheme)),
                "plan cost differs from the Eq. 4 cost of its scheme");
  checks.expect(near(retune->result.cost,
                     drep::core::total_cost(retune->result.scheme)),
                "retune cost differs from the Eq. 4 cost of its scheme");
  checks.audit(drep::audit::check_snapshot_coherence(*snapshot,
                                                     retune->result.scheme),
               "dense snapshot");
  if (w.faults.empty()) {
    checks.expect(near(traffic.data_traffic,
                       drep::core::total_cost(retune->result.scheme)),
                  "replayed data_traffic " + std::to_string(traffic.data_traffic) +
                      " != Eq. 4 cost " +
                      std::to_string(drep::core::total_cost(retune->result.scheme)));
    checks.expect(replay->failed_reads + replay->failed_writes == 0,
                  "operations failed on a perfect network");
  }
  for (const drep::serve::ServeReport& pass : served) {
    checks.expect(pass.requests == in.trace.size(),
                  "serve_trace did not route every request");
    checks.expect(pass.generations == kServeRetunes + 1,
                  "serve_trace ran an unexpected number of generations");
    checks.expect(pass.outcome_hash == served[0].outcome_hash &&
                      pass.served_cost == served[0].served_cost,
                  "serve_trace passes disagree");
  }
  checks.expect(std::isfinite(served[0].served_cost), "served cost not finite");
  if (in.sparse) {
    checks.audit(drep::audit::check_sparse_scheme(sparse_plan->scheme),
                 "sparse scheme");
    checks.finite_cost(sparse_plan->cost, "sparse plan");
    checks.expect(near(sparse_plan->cost,
                       drep::core::total_cost(sparse_plan->scheme)),
                  "sparse plan cost differs from its Eq. 4 cost");
    checks.audit(drep::audit::check_snapshot_coherence(*sparse_snapshot,
                                                       sparse_plan->scheme),
                 "sparse snapshot");
    checks.expect(std::isfinite(lookup_cost), "lookup cost not finite");
  }

  Json record = Json::object();
  record["traced"] = Json(traced);
  record["times"] = std::move(times);
  record["counters"] = std::move(counters);
  record["outputs"] = std::move(outputs);
  record["failures"] = std::move(checks.failures);
  return record;
}

/// Traced-run probes: a standalone SRA with its counters, and the plan through
/// the solver registry at 1 and 4 threads. Both plans must equal the
/// pipeline's (run.py compares plan_hash and plan_cost).
Json run_probes(const Workload& w, const Inputs& in, std::uint64_t seed,
                Tracer& tracer) {
  Json probes = Json::object();
  Checks checks;
  drep::algo::SolverOptions options;
  options.common.seed = seed;
  std::optional<drep::algo::SolveResponse> sra;
  probes["sra_s"] = Json(tracer.timed("probe.sra", [&] {
    sra = drep::algo::solver_registry().at("sra").solve({in.base, options});
  }));
  probes["sra_site_visits"] = Json(sra->details["site_visits"]);
  probes["sra_benefit_evals"] = Json(sra->details["benefit_evaluations"]);
  checks.audit(drep::audit::check_scheme(sra->result.scheme), "sra scheme");
  checks.audit(drep::audit::check_sra_terminal(sra->result.scheme),
               "sra terminal");

  Json probe_times = Json::object();
  std::optional<PlanOutcome> one;
  std::optional<PlanOutcome> four;
  drep::util::ThreadPool::configure_shared(1);
  probes["plan_threads1_s"] = Json(tracer.timed("probe.plan_threads1", [&] {
    one = run_plan(w, in.base, seed, 1, true, tracer, probe_times);
  }));
  drep::util::ThreadPool::configure_shared(4);
  probes["plan_threads4_s"] = Json(tracer.timed("probe.plan_threads4", [&] {
    four = run_plan(w, in.base, seed, 4, true, tracer, probe_times);
  }));
  drep::util::ThreadPool::configure_shared(w.threads);
  checks.expect(drep::dist::chromosome_hash(one->result.scheme.matrix()) ==
                        drep::dist::chromosome_hash(four->result.scheme.matrix()) &&
                    one->result.cost == four->result.cost,
                "plan differs between 1 and 4 threads");
  probes["plan_cost"] = Json(one->result.cost);
  probes["plan_hash"] =
      Json(hex(drep::dist::chromosome_hash(one->result.scheme.matrix())));
  probes["failures"] = std::move(checks.failures);
  return probes;
}

Json provenance(const Workload& w, std::uint64_t seed) {
  // run.py adds git describe and a source digest when it runs, so the
  // stamp is fresh even when the build directory is reused.
  Json p = Json::object();
  p["build_type"] = Json(DREPBENCH_BUILD_TYPE);
#ifdef NDEBUG
  p["ndebug"] = Json(true);
#else
  p["ndebug"] = Json(false);
#endif
#ifdef DREP_OBS_DISABLED
  p["drep_obs"] = Json(false);
#else
  p["drep_obs"] = Json(true);
#endif
#ifdef DREP_AUDIT_ENABLED
  p["drep_audit"] = Json(true);
#else
  p["drep_audit"] = Json(false);
#endif
  p["compiler"] = Json(DREPBENCH_COMPILER);
  p["nproc"] = Json(std::thread::hardware_concurrency());
  p["threads"] = Json(w.threads);
  p["retune_threads"] = Json(kRetuneThreads);
  p["serve_workers"] = Json(kServeWorkers);
  p["seed"] = Json(seed);
  return p;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t sparse_objects = 0;  // 0 = the workload's own size
  std::string out;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value != "0";
    else if (flag == "--sparse-objects") args.sparse_objects = std::stoul(value);
    else if (flag == "--out") args.out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (args.out.empty()) throw std::invalid_argument("--out is required");
  return args;
}

int run(const Args& args) {
  drep::dist::register_dist_solvers();
  const std::vector<Workload> all = workloads();
  const auto found = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (found == all.end())
    throw std::invalid_argument("unknown workload " + args.workload);
  Workload w = *found;
  if (args.sparse_objects != 0) {
    if (!w.sparse) throw std::invalid_argument(w.name + " has no sparse leg");
    w.sparse->objects = args.sparse_objects;
  }

  // As the CLI's --threads does: the shared pool (GRA's parallel evaluation,
  // AGRA, dgra islands) gets the workload's thread count, so threads=1 runs
  // the solvers on one thread.
  drep::util::ThreadPool::configure_shared(w.threads);

  const Clock::time_point origin = Clock::now();
  Tracer tracer(origin);
  Json doc = Json::object();
  doc["workload"] = Json(w.name);
  doc["provenance"] = provenance(w, args.seed);

  // Set-up runs kMinSetups times before the warm-up, then again between
  // repetitions until set-ups have taken kSetupShare of the measured window
  // (at least once per repetition). The samples thus span the whole run, so
  // their median does not hinge on the host's speed in one moment. Same
  // seed, so every set-up must match.
  constexpr std::size_t kMinSetups = 3;
  constexpr double kSetupShare = 0.1;
  Json setups = Json::array();
  std::optional<Inputs> inputs;
  const auto set_up = [&](bool traced) {
    Json times = Json::object();
    inputs.reset();
    tracer.set_enabled(traced);
    tracer.set_run(-1);
    const Clock::time_point begin = Clock::now();
    inputs = make_inputs(w, args.seed, tracer, times);
    setups.push_back(std::move(times));
    return std::chrono::duration<double>(Clock::now() - begin).count();
  };
  for (std::size_t n = 0; n < kMinSetups; ++n) set_up(args.trace && n == 0);

  // One untimed warm-up repetition (first-touch allocation, lazy pool
  // start-up), then the measured window: untraced repetitions for
  // --seconds, or, when tracing, untraced and traced ones alternating.
  Json reps = Json::array();
  tracer.set_enabled(false);
  Json warmup = run_pipeline(w, *inputs, args.seed, false, tracer);
  warmup["warmup"] = Json(true);
  reps.push_back(std::move(warmup));
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  double setup_busy = 0.0;
  long run_id = 1;
  do {
    const bool traced = args.trace && run_id % 2 == 0;
    tracer.set_enabled(traced);
    tracer.set_run(run_id);
    Json rep = run_pipeline(w, *inputs, args.seed, traced, tracer);
    rep["warmup"] = Json(false);
    reps.push_back(std::move(rep));
    ++run_id;
    do {
      setup_busy += set_up(false);
    } while (setup_busy < kSetupShare * elapsed());
  } while (elapsed() < args.seconds || (args.trace && run_id < 3));
  doc["setups"] = std::move(setups);
  doc["reps"] = std::move(reps);

  if (args.trace) {
    tracer.set_enabled(true);
    tracer.set_run(run_id);
    doc["probes"] = run_probes(w, *inputs, args.seed, tracer);
  }
  doc["peak_rss_mb"] = Json(peak_rss_mb());
  doc["spans"] = tracer.to_json();

  std::ofstream file(args.out);
  file << doc.dump() << '\n';
  if (!file) throw std::runtime_error("cannot write " + args.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "drepbench: " << error.what() << '\n';
    return 1;
  }
}
