// End-to-end pipeline benchmark runner (see README.md in this directory).
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--size full|smoke] [--spans FILE] [--commit ID]
//
// Runs one workload in this process, checks its outputs, and prints two
// lines on stdout: a full record (host fingerprint, every metric under both
// its listed name and its workload name, check results) and, last, the
// result object {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are the
// per-layer set, taken from spans recorded around each layer call.  Exits 1
// when any check fails.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "checks.hpp"
#include "common/thread_pool.hpp"
#include "core/agt_ram.hpp"
#include "core/online.hpp"
#include "core/regional_tiled.hpp"
#include "drp/builder.hpp"
#include "drp/cost_model.hpp"
#include "drp/kernels.hpp"
#include "net/clustering.hpp"
#include "net/shortest_paths.hpp"
#include "net/tiled_distances.hpp"
#include "runtime/event_sim.hpp"
#include "runtime/message_bus.hpp"
#include "srv/routing_table.hpp"
#include "srv/serving_engine.hpp"
#include "srv/workload.hpp"
#include "trace/pipeline.hpp"
#include "trace/worldcup.hpp"
#include "tracer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace agtram;
using perfbench::Clock;
using perfbench::seconds_since;
using perfbench::Tracer;

constexpr int kSetupRepeats = 5;          // set-ups per run; median reported
constexpr std::size_t kCellSamples = 4096;  // snapshot cells checked per check
constexpr int kOraclePrefixBatches = 3;   // online-churn untimed oracle prefix
constexpr int kCostCheckEvery = 16;       // online-churn exact-cost cadence
// Fixed data sets: the topology and World-Cup trace of solve-paper and the
// instance of regional-50k stay the same on every seed (README.md, "Seeds").
constexpr std::uint64_t kPaperDataSeed = 1998;
constexpr std::uint64_t kRegionalInstanceSeed = 50000;
constexpr std::uint64_t kDispersedInstanceSeed = 3000;
// peak_rss_mb, and otc_savings_pct on the streaming workloads, are read
// after set-up and this many operations (or at the end of a shorter run): a
// fixed amount of work, so a faster program that fits more operations into
// the run is neither charged for the state they retain nor credited with
// the drift they absorb.
constexpr int kFixedPointOps = 100;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans;
  std::string commit = "unknown";
};

// --------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --------------------------------------------------------------------------
// Result of one workload run

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
};

struct Result {
  std::vector<double> setup_s;      ///< one per set-up repetition
  std::vector<double> op_ms;        ///< untraced operations
  std::vector<double> traced_op_ms; ///< traced operations (--trace 1)
  double otc_savings_pct = 0.0;
  double peak_rss_mb = 0.0;         ///< see kFixedPointOps
  double gen_s = 0.0;               ///< load generator total, untimed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> layer;             ///< per-layer metrics
  std::vector<std::pair<std::string, Metric>> named;  ///< workload names
  std::string op_name;              ///< what one operation is
};

/// Counts one operation; it failed if any reason is non-empty.
void record_op(Result& r, const std::vector<std::string>& reasons) {
  ++r.attempted;
  bool failed = false;
  for (const std::string& why : reasons) {
    if (why.empty()) continue;
    failed = true;
    if (r.failures.size() < 16) r.failures.push_back(why);
  }
  if (failed) ++r.failed;
}

// The per-layer metric set.  A workload that bypasses a layer reports that
// layer's metrics as 0.  The listed subset (the traced run's result line,
// in the order BENCHMARK.json lists it) leaves out the per-call times, which
// are 0 on every run of a workload that never makes the call; the layers'
// shares of traced time (`*.self_frac`) stand for them there, and the full
// record carries every metric.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* better;
  bool listed;  ///< in BENCHMARK.json and the traced result line
};

const std::vector<LayerMetric>& layer_metric_specs() {
  static const std::vector<LayerMetric> specs = {
      {"net.self_frac", "frac", "lower", true},
      {"net.topology_ms", "ms", "lower", false},
      {"net.closure_s", "s", "lower", false},
      {"net.closure_mb", "MB", "lower", true},
      {"net.partition_s", "s", "lower", false},
      {"net.tile_mb", "MB", "lower", true},
      {"trace.self_frac", "frac", "lower", true},
      {"trace.generate_s", "s", "lower", false},
      {"trace.pipeline_s", "s", "lower", false},
      {"trace.requests", "count", "lower", true},
      {"drp.self_frac", "frac", "lower", true},
      {"drp.build_s", "s", "lower", false},
      {"drp.sparse_instance_s", "s", "lower", false},
      {"drp.demand_cells", "count", "lower", true},
      {"core.self_frac", "frac", "lower", true},
      {"core.mechanism_s", "s", "lower", false},
      {"core.rounds", "count", "lower", true},
      {"core.reports_computed", "count", "lower", true},
      {"core.candidate_evaluations", "count", "lower", true},
      {"core.allocations_per_report", "ratio", "higher", true},
      {"core.report_mode", "mode", "higher", true},
      {"core.dirty_agents_per_batch", "count", "lower", true},
      {"core.repair_rounds_per_batch", "count", "lower", true},
      {"core.reports_saved_frac", "frac", "higher", true},
      {"core.candidate_evaluations_per_batch", "count", "lower", true},
      {"core.replicas_lost", "count", "lower", true},
      {"core.regional_run_s", "s", "lower", false},
      {"core.regional_reports_computed", "count", "lower", true},
      {"core.regional_wire_bytes", "bytes", "lower", true},
      {"srv.self_frac", "frac", "lower", true},
      {"srv.snapshot_ms", "ms", "lower", false},
      {"srv.route_s", "s", "lower", false},
      {"srv.route_mreq_s", "Mreq/s", "higher", true},
      {"srv.trigger_s", "s", "lower", false},
      {"srv.reconverge_s", "s", "lower", false},
      {"srv.reconverges", "count", "lower", true},
      {"srv.drift_triggers", "count", "lower", true},
      {"srv.replicas_evicted", "count", "lower", true},
      {"srv.demand_delta_cells", "count", "lower", true},
      {"srv.local_read_frac", "frac", "higher", true},
      {"runtime.serving_wire_mb", "MB", "lower", true},
      {"bench.gen_s", "s", "lower", true},
      {"bench.trace_overhead_frac", "frac", "lower", true},
  };
  return specs;
}

void add_named(Result& r, const std::string& name, double value,
               const std::string& unit, const std::string& better) {
  r.named.push_back({name, Metric{value, unit, better}});
}

/// Median self time (seconds) per operation of the spans named `name`.
double span_median(const Tracer& tracer, const std::string& name) {
  return median(tracer.self_per_op(name));
}

/// Mechanism counters of one MechanismResult into the core.* metrics.
void mechanism_layer(Result& r, const core::MechanismResult& result) {
  r.layer["core.rounds"] = static_cast<double>(result.rounds.size());
  r.layer["core.reports_computed"] =
      static_cast<double>(result.reports_computed);
  r.layer["core.candidate_evaluations"] =
      static_cast<double>(result.candidate_evaluations);
  r.layer["core.allocations_per_report"] =
      result.reports_computed == 0
          ? 0.0
          : static_cast<double>(result.rounds.size()) /
                static_cast<double>(result.reports_computed);
  r.layer["core.report_mode"] =
      result.resolved_mode == core::ReportMode::Incremental ? 1.0 : 0.0;
}

double closure_mb(std::size_t servers) {
  return static_cast<double>(servers) * static_cast<double>(servers) *
         sizeof(net::Cost) / (1024.0 * 1024.0);
}

// --------------------------------------------------------------------------
// Instance specs

drp::InstanceSpec paper_spec(std::uint64_t seed, bool smoke) {
  drp::InstanceSpec spec;
  spec.servers = smoke ? 300 : 3718;
  spec.objects = smoke ? 2000 : 25000;
  spec.topology = net::TopologyKind::PowerLaw;
  spec.demand = drp::DemandModel::Trace;
  spec.instance.capacity_fraction = bench::capacity_fraction(30.0);
  spec.instance.rw_ratio = 0.90;
  spec.seed = seed;
  return spec;
}

drp::InstanceSpec dispersed_spec(std::uint64_t seed, bool smoke) {
  drp::InstanceSpec spec;
  spec.servers = smoke ? 256 : 3000;
  spec.objects = smoke ? 2560 : 25600;
  spec.topology = net::TopologyKind::PowerLaw;
  spec.demand = drp::DemandModel::Dispersed;
  spec.readers_per_object = 8.0;
  spec.instance.capacity_fraction = bench::capacity_fraction(30.0);
  spec.instance.rw_ratio = 0.90;
  spec.seed = seed;
  return spec;
}

drp::InstanceSpec regional_spec(std::uint64_t seed, bool smoke) {
  drp::InstanceSpec spec;
  spec.servers = smoke ? 2000 : 50000;
  spec.objects = smoke ? 4000 : 100000;
  spec.topology = net::TopologyKind::PowerLaw;
  spec.demand = drp::DemandModel::Dispersed;
  spec.seed = seed;
  return spec;
}

core::TiledRegionalConfig regional_config(bool smoke) {
  core::TiledRegionalConfig cfg;
  cfg.regions = smoke ? 8 : 32;
  cfg.execution = core::RegionalExecution::Sharded;
  cfg.distance_budget_bytes = 4ull << 30;
  return cfg;
}

// --------------------------------------------------------------------------
// Instance construction through the public sub-stages
//
// drp::make_instance is one enclosing call.  solve-paper calls the public
// stages it is made of instead, so each layer gets its own span, and so the
// topology, the World-Cup trace and its client-to-server mapping can stay
// one fixed data set (`data_seed`) as in the paper, while the primaries,
// capacities and writers follow the run's seed (`config_seed`).  The
// trace-demand parameters below mirror make_instance's trace path;
// check_staged_matches_make_instance holds them to it.

drp::Problem staged_trace_instance(const drp::InstanceSpec& spec,
                                   std::uint64_t data_seed,
                                   std::uint64_t config_seed, Tracer& tracer,
                                   Result& r) {
  drp::InstanceSpec topo = spec;
  topo.seed = data_seed;
  const net::Graph graph = tracer.timed(
      "net.make_topology", [&] { return drp::make_topology(topo); });
  net::DistanceMatrixPtr distances =
      tracer.timed("net.DistanceMatrix::compute", [&] {
        return std::make_shared<const net::DistanceMatrix>(
            net::DistanceMatrix::compute(graph));
      });

  trace::WorldCupConfig wc;
  wc.core_objects = spec.objects;
  wc.object_universe =
      spec.objects + std::max<std::uint32_t>(spec.objects / 2, 16);
  wc.clients = std::max<std::uint32_t>(24, spec.servers / 4);
  wc.days = 5;
  wc.requests_per_day = std::max<std::uint64_t>(
      spec.objects,
      static_cast<std::uint64_t>(spec.requests_per_object *
                                 static_cast<double>(spec.objects) /
                                 static_cast<double>(wc.days)));
  wc.seed = data_seed ^ 0x9e3779b97f4a7c15ULL;
  const std::vector<trace::DayLog> days =
      tracer.timed("trace.generate_worldcup_trace",
                   [&] { return trace::generate_worldcup_trace(wc); });

  trace::PipelineConfig pipe;
  pipe.servers = spec.servers;
  pipe.top_clients = wc.clients;
  pipe.max_fanout = std::min<std::uint32_t>(2, spec.servers);
  pipe.seed = data_seed ^ 0x1234abcd5678ef00ULL;
  trace::Workload workload = tracer.timed(
      "trace.run_pipeline", [&] { return trace::run_pipeline(days, pipe); });
  if (workload.object_count() > spec.objects) {
    workload.object_ids.resize(spec.objects);
    workload.object_units.resize(spec.objects);
    workload.size_variance.resize(spec.objects);
    workload.reads.resize(spec.objects);
  }
  r.layer["trace.requests"] = static_cast<double>(workload.total_requests);

  drp::InstanceConfig inst = spec.instance;
  inst.seed = config_seed ^ 0x0f0f0f0f0f0f0f0fULL;
  return tracer.timed("drp.build_problem", [&] {
    return drp::build_problem(std::move(distances), workload, inst);
  });
}

/// Dispersed demand has no public stage of its own: the distance-free part
/// comes from make_sparse_instance (which matches make_instance field for
/// field) and the closure is attached after.
drp::Problem staged_dispersed_instance(const drp::InstanceSpec& spec,
                                       Tracer& tracer) {
  const net::Graph graph = tracer.timed(
      "net.make_topology", [&] { return drp::make_topology(spec); });
  net::DistanceMatrixPtr distances =
      tracer.timed("net.DistanceMatrix::compute", [&] {
        return std::make_shared<const net::DistanceMatrix>(
            net::DistanceMatrix::compute(graph));
      });
  drp::SparseInstance sparse = tracer.timed(
      "drp.make_sparse_instance", [&] { return drp::make_sparse_instance(spec); });
  return tracer.timed("drp.build_problem", [&] {
    drp::Problem problem = std::move(sparse.base);
    problem.distances = std::move(distances);
    problem.validate();
    return problem;
  });
}

/// With make_instance's own seeds, the staged trace instance must equal
/// drp::make_instance's (checked at smoke size, outside any timed span).
void check_staged_matches_make_instance(Result& r, std::uint64_t seed) {
  const drp::InstanceSpec spec = paper_spec(seed, /*smoke=*/true);
  Tracer none(false);
  const drp::Problem staged =
      staged_trace_instance(spec, spec.seed, spec.seed, none, r);
  record_op(r, {perfbench::check_same_problem(staged,
                                              drp::make_instance(spec))});
}

// --------------------------------------------------------------------------
// Operation loop shared by the workloads
//
// Runs `op(traced)` until `seconds` of operation time have been measured.
// In a traced run operations alternate untraced / traced, so the two
// medians give the tracing overhead; at least one of each runs.

void run_ops(const Options& opt, Tracer& tracer, Result& r,
             const std::function<double(bool traced, int index)>& op,
             const std::function<void()>& at_fixed_point = [] {}) {
  double measured = 0.0;
  int index = 0;
  const auto fixed_point = [&] {
    r.peak_rss_mb = peak_rss_mb();
    at_fixed_point();
  };
  while (true) {
    const bool traced = opt.trace && index % 2 == 1;
    tracer.set_op(index);
    tracer.pause(!traced);
    double ms = 0.0;
    try {
      ms = op(traced, index);
    } catch (const std::exception& e) {
      tracer.set_op(-1);
      tracer.pause(false);
      record_op(r, {std::string("operation threw: ") + e.what()});
      break;
    }
    tracer.set_op(-1);
    tracer.pause(false);
    (traced ? r.traced_op_ms : r.op_ms).push_back(ms);
    measured += ms / 1e3;
    if (++index == kFixedPointOps) fixed_point();
    const bool have_both = !opt.trace || (!r.op_ms.empty() &&
                                          !r.traced_op_ms.empty());
    if (measured >= opt.seconds && have_both) break;
  }
  if (index < kFixedPointOps) fixed_point();
}

// --------------------------------------------------------------------------
// solve-paper: spec -> topology -> closure -> trace -> instance -> AGT-RAM
// -> first installed RoutingSnapshot, repeated cold.

struct Solved {
  std::unique_ptr<drp::Problem> problem;
  std::optional<core::MechanismResult> result;
  srv::RoutingTable table;
};

/// One cold solve.  Returns the wall time in ms; the solve stays in `out`
/// (its destruction is left outside the timed interval).
double solve_once(const drp::InstanceSpec& spec, Tracer& tracer, Result& r,
                  Solved& out) {
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope root = tracer.scope("bench.solve");
    out.problem = std::make_unique<drp::Problem>(
        staged_trace_instance(spec, kPaperDataSeed, spec.seed, tracer, r));
    out.result.emplace(tracer.timed("core.run_agt_ram", [&] {
      return core::run_agt_ram(*out.problem);
    }));
    auto snapshot = tracer.timed("srv.RoutingSnapshot", [&] {
      return std::make_shared<const srv::RoutingSnapshot>(
          out.result->placement, 1);
    });
    Tracer::Scope install = tracer.scope("srv.RoutingTable::install");
    out.table.install(std::move(snapshot));
  }
  return seconds_since(t0) * 1e3;
}

Result run_solve_paper(const Options& opt, Tracer& tracer) {
  Result r;
  r.op_name = "cold solve, spec to installed routing snapshot";
  // Set-up: warm-up solves at smoke size (thread pool start, page faults,
  // allocator growth) so the timed cold solves measure the pipeline only.
  const drp::InstanceSpec warm = paper_spec(opt.seed, /*smoke=*/true);
  for (int i = 0; i < kSetupRepeats; ++i) {
    Tracer none(false);
    Solved solved;
    r.setup_s.push_back(solve_once(warm, none, r, solved) / 1e3);
  }
  check_staged_matches_make_instance(r, opt.seed);

  std::optional<std::size_t> first_rounds;
  std::optional<double> first_cost;
  run_ops(opt, tracer, r, [&](bool traced, int index) {
    // The load generator here is only the spec the solve starts from.
    const Clock::time_point g0 = Clock::now();
    const drp::InstanceSpec op_spec = paper_spec(opt.seed, opt.smoke);
    r.gen_s += seconds_since(g0);
    Solved solved;
    const double ms = solve_once(op_spec, tracer, r, solved);

    Tracer::Scope check = tracer.scope("bench.check");
    const drp::ReplicaPlacement& place = solved.result->placement;
    const srv::RoutingSnapshot& snap = *solved.table.acquire();
    const double cost = drp::CostModel::total_cost(place);
    const double initial = drp::CostModel::initial_cost(*solved.problem);
    std::vector<std::string> reasons;
    reasons.push_back(perfbench::check_feasible(place));
    if (!perfbench::close_enough(perfbench::snapshot_cost(snap), cost, 1e-9)) {
      reasons.push_back("snapshot-implied cost disagrees with total_cost");
    }
    reasons.push_back(perfbench::check_snapshot_cells(
        snap, place, kCellSamples, opt.seed + static_cast<std::uint64_t>(index)));
    if (!first_rounds) {
      first_rounds = solved.result->rounds.size();
      first_cost = cost;
    } else if (*first_rounds != solved.result->rounds.size() ||
               *first_cost != cost) {
      reasons.push_back("repeated cold solve gave different rounds or cost");
    }
    record_op(r, reasons);
    r.otc_savings_pct = 100.0 * (initial - cost) / initial;

    if (traced) {
      mechanism_layer(r, *solved.result);
      r.layer["drp.demand_cells"] =
          static_cast<double>(solved.problem->access.nonzeros());
    }
    return ms;
  });

  r.layer["net.closure_mb"] = closure_mb(paper_spec(opt.seed, opt.smoke).servers);
  r.layer["net.topology_ms"] = span_median(tracer, "net.make_topology") * 1e3;
  r.layer["net.closure_s"] = span_median(tracer, "net.DistanceMatrix::compute");
  r.layer["trace.generate_s"] =
      span_median(tracer, "trace.generate_worldcup_trace");
  r.layer["trace.pipeline_s"] = span_median(tracer, "trace.run_pipeline");
  r.layer["drp.build_s"] = span_median(tracer, "drp.build_problem");
  r.layer["core.mechanism_s"] = span_median(tracer, "core.run_agt_ram");
  r.layer["srv.snapshot_ms"] =
      (span_median(tracer, "srv.RoutingSnapshot") +
       span_median(tracer, "srv.RoutingTable::install")) * 1e3;

  add_named(r, "solve_s", median(r.op_ms) / 1e3, "s", "lower");
  add_named(r, "otc_savings_pct", r.otc_savings_pct, "%", "higher");
  return r;
}

struct ServeEngine {
  std::unique_ptr<runtime::MessageBus> bus;  // outlives the engine
  std::unique_ptr<srv::ServingEngine> engine;
};

const drp::ReplicaPlacement& engine_placement(const ServeEngine& e) {
  return e.engine->placement();
}
const drp::ReplicaPlacement& engine_placement(const core::OnlineMechanism& e) {
  return e.placement();
}

// --------------------------------------------------------------------------
// Set-up shared by serve-drift and online-churn: the dispersed instance,
// then the engine the timed loop reuses.  Untraced set-ups call
// make_instance; the traced one calls its stages and a separate
// core::run_agt_ram whose placement must equal the engine's initial one.

template <typename Engine, typename MakeEngine>
std::unique_ptr<Engine> dispersed_setup(const Options& opt, Tracer& tracer,
                                        Result& r,
                                        const drp::InstanceSpec& spec,
                                        std::unique_ptr<drp::Problem>& keep,
                                        const MakeEngine& make_engine) {
  std::unique_ptr<Engine> engine;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    keep.reset();
    const Clock::time_point t0 = Clock::now();
    keep = std::make_unique<drp::Problem>(drp::make_instance(spec));
    engine = make_engine(*keep);
    r.setup_s.push_back(seconds_since(t0));
  }
  if (!opt.trace) return engine;

  // Traced set-up, timed per layer; the untraced engine above is kept.
  tracer.set_op(0);
  {
    Tracer::Scope root = tracer.scope("bench.setup");
    drp::Problem staged = staged_dispersed_instance(spec, tracer);
    const core::MechanismResult solved = tracer.timed(
        "core.run_agt_ram", [&] { return core::run_agt_ram(staged); });
    mechanism_layer(r, solved);
    r.layer["drp.demand_cells"] =
        static_cast<double>(staged.access.nonzeros());
    std::string why;
    Tracer::Scope check = tracer.scope("bench.check");
    if (!core::placements_identical(solved.placement, engine_placement(*engine),
                                    &why)) {
      why = "engine initial placement differs from run_agt_ram: " + why;
    }
    record_op(r, {why, perfbench::check_same_problem(staged, *keep)});
  }
  tracer.set_op(-1);
  r.layer["net.topology_ms"] = span_median(tracer, "net.make_topology") * 1e3;
  r.layer["net.closure_s"] = span_median(tracer, "net.DistanceMatrix::compute");
  r.layer["drp.build_s"] = span_median(tracer, "drp.make_sparse_instance") +
                           span_median(tracer, "drp.build_problem");
  r.layer["core.mechanism_s"] = span_median(tracer, "core.run_agt_ram");
  r.layer["net.closure_mb"] = closure_mb(spec.servers);
  return engine;
}

// --------------------------------------------------------------------------
// serve-drift: closed loop, one client, OnDrift re-convergence.

Result run_serve_drift(const Options& opt, Tracer& tracer) {
  Result r;
  r.op_name = "ServingEngine::run_batch";
  const drp::InstanceSpec spec =
      dispersed_spec(kDispersedInstanceSeed, opt.smoke);
  std::unique_ptr<drp::Problem> problem;
  auto make = [](const drp::Problem& p) {
    auto e = std::make_unique<ServeEngine>();
    e->bus = std::make_unique<runtime::MessageBus>(
        p, runtime::MessageBus::pick_centre(p));
    srv::ServingConfig cfg;
    cfg.policy = srv::ReconvergePolicy::OnDrift;
    cfg.eviction_limit = 32;
    cfg.bus = e->bus.get();
    e->engine = std::make_unique<srv::ServingEngine>(drp::Problem(p), cfg);
    return e;
  };
  std::unique_ptr<ServeEngine> serve =
      dispersed_setup<ServeEngine>(opt, tracer, r, spec, problem, make);
  srv::ServingEngine& engine = *serve->engine;

  srv::WorkloadConfig wcfg;
  wcfg.requests_per_batch = opt.smoke ? 4096 : 32768;
  wcfg.mean_count = 8;
  wcfg.drift_interval = 2;
  wcfg.drift_fraction = 0.5;
  wcfg.drift_objects = spec.objects / 4;
  wcfg.seed = opt.seed;
  srv::SyntheticWorkload workload(engine.problem(), wcfg);

  std::vector<srv::Request> batch;
  std::vector<double> route_s;
  std::vector<double> trigger_s;
  double reconverge_total = 0.0;
  std::uint64_t requests_total = 0;
  double wall_total_s = 0.0;
  const srv::ServingStats start = engine.stats();
  const runtime::MessageStats bus_start = serve->bus->stats();
  run_ops(opt, tracer, r, [&](bool /*traced*/, int index) {
    const Clock::time_point g0 = Clock::now();
    workload.next_batch(batch);
    std::uint64_t expected = 0;
    for (const srv::Request& req : batch) expected += req.count;
    r.gen_s += seconds_since(g0);

    const srv::ServingStats before = engine.stats();
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span = tracer.scope("srv.run_batch");
      engine.run_batch(batch);
    }
    const double wall = seconds_since(t0);

    const srv::ServingStats& after = engine.stats();
    const double route = after.serve_seconds - before.serve_seconds;
    const double reconverge =
        after.reconverge_seconds - before.reconverge_seconds;
    route_s.push_back(route);
    trigger_s.push_back(wall - route - reconverge);
    reconverge_total += reconverge;
    requests_total += expected;
    wall_total_s += wall;

    std::vector<std::string> reasons;
    if (after.requests - before.requests != expected) {
      reasons.push_back("routed requests differ from generated requests");
    }
    if (after.reconverges != before.reconverges) {
      Tracer::Scope check = tracer.scope("bench.check");
      reasons.push_back(perfbench::check_snapshot_cells(
          *engine.snapshot(), engine.placement(), kCellSamples / 16,
          opt.seed + static_cast<std::uint64_t>(index)));
    }
    record_op(r, reasons);
    return wall * 1e3;
  }, [&] {
    const double initial = drp::CostModel::initial_cost(engine.problem());
    r.otc_savings_pct =
        100.0 * (initial - engine.online()->total_cost()) / initial;
  });

  const srv::ServingStats& end = engine.stats();
  {
    Tracer::Scope check = tracer.scope("bench.check");
    record_op(r, {perfbench::check_snapshot_cells(*engine.snapshot(),
                                                  engine.placement(),
                                                  kCellSamples, opt.seed),
                  perfbench::check_feasible(engine.placement())});
  }
  const auto batches = static_cast<double>(end.batches - start.batches);
  const std::uint64_t reconverges = end.reconverges - start.reconverges;
  const std::uint64_t reads = end.reads - start.reads;
  double route_total = 0.0;
  for (const double s : route_s) route_total += s;
  r.layer["srv.route_s"] = mean(route_s);
  r.layer["srv.route_mreq_s"] =
      route_total > 0.0 ? static_cast<double>(requests_total) / route_total / 1e6
                        : 0.0;
  r.layer["srv.trigger_s"] = mean(trigger_s);
  r.layer["srv.reconverge_s"] =
      reconverges == 0 ? 0.0 : reconverge_total / static_cast<double>(reconverges);
  r.layer["srv.reconverges"] = static_cast<double>(reconverges);
  r.layer["srv.drift_triggers"] =
      static_cast<double>(end.drift_triggers - start.drift_triggers);
  r.layer["srv.replicas_evicted"] =
      static_cast<double>(end.replicas_evicted - start.replicas_evicted);
  r.layer["srv.demand_delta_cells"] =
      static_cast<double>(end.demand_delta_cells - start.demand_delta_cells);
  r.layer["srv.local_read_frac"] =
      reads == 0 ? 0.0
                 : static_cast<double>(end.local_reads - start.local_reads) /
                       static_cast<double>(reads);
  const runtime::MessageStats& bus = serve->bus->stats();
  const std::uint64_t wire =
      (bus.route_bytes - bus_start.route_bytes) +
      (bus.delta_bytes - bus_start.delta_bytes) +
      (bus.install_bytes - bus_start.install_bytes);
  r.layer["runtime.serving_wire_mb"] =
      batches > 0.0 ? static_cast<double>(wire) / (1024.0 * 1024.0) / batches
                    : 0.0;
  if (opt.trace) {
    // Snapshot build cost from outside, on the final placement.
    std::vector<double> build_ms;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const Clock::time_point t0 = Clock::now();
      Tracer::Scope span = tracer.scope("srv.RoutingSnapshot");
      const srv::RoutingSnapshot snap(engine.placement(), 0);
      build_ms.push_back(seconds_since(t0) * 1e3);
    }
    r.layer["srv.snapshot_ms"] = median(build_ms);
  }

  add_named(r, "serve_mreq_s",
            wall_total_s > 0.0
                ? static_cast<double>(requests_total) / wall_total_s / 1e6
                : 0.0,
            "Mreq/s", "higher");
  add_named(r, "batch_p50_ms", median(r.op_ms), "ms", "lower");
  add_named(r, "batch_p95_ms", percentile(r.op_ms, 0.95), "ms", "lower");
  add_named(r, "read_cost_mean", end.mean_read_cost(), "cost/read", "lower");
  add_named(r, "otc_savings_pct", r.otc_savings_pct, "%", "higher");
  return r;
}

// --------------------------------------------------------------------------
// online-churn: failure and churn events through OnlineMechanism.

Result run_online_churn(const Options& opt, Tracer& tracer) {
  Result r;
  r.op_name = "OnlineMechanism::apply_events";
  const drp::InstanceSpec spec =
      dispersed_spec(kDispersedInstanceSeed, opt.smoke);
  std::unique_ptr<drp::Problem> problem;
  auto make = [](const drp::Problem& p) {
    return std::make_unique<core::OnlineMechanism>(drp::Problem(p));
  };
  std::unique_ptr<core::OnlineMechanism> engine =
      dispersed_setup<core::OnlineMechanism>(opt, tracer, r, spec, problem,
                                             make);

  runtime::OnlineEventModel model;
  model.seed = opt.seed;

  // Untimed prefix with the differential oracle on: every repair must be
  // byte-identical to a full warm re-solve (apply_events throws if not).
  {
    Tracer::Scope check = tracer.scope("bench.check");
    core::OnlineConfig oracle_cfg;
    oracle_cfg.differential_oracle = true;
    core::OnlineMechanism oracle(drp::Problem(*problem), oracle_cfg);
    runtime::OnlineEventSource oracle_source(oracle, model);
    int checked = 0;
    for (int b = 0; b < kOraclePrefixBatches; ++b) {
      std::string why;
      try {
        checked += oracle.apply_events(oracle_source.next_batch())
                       .oracle_checked ? 1 : 0;
      } catch (const std::exception& e) {
        why = std::string("differential oracle: ") + e.what();
      }
      record_op(r, {why});
    }
    record_op(r, {checked > 0 ? "" : "oracle prefix checked no batch"});
  }

  runtime::OnlineEventSource source(*engine, model);
  std::vector<double> dirty;
  std::vector<double> rounds;
  std::vector<double> saved;
  std::vector<double> evals;
  std::vector<double> lost;
  const double servers = static_cast<double>(spec.servers);
  run_ops(opt, tracer, r, [&](bool /*traced*/, int index) {
    const Clock::time_point g0 = Clock::now();
    const std::vector<core::OnlineEvent> batch = source.next_batch();
    r.gen_s += seconds_since(g0);

    const Clock::time_point t0 = Clock::now();
    const core::BatchOutcome out = tracer.timed(
        "core.apply_events", [&] { return engine->apply_events(batch); });
    const double ms = seconds_since(t0) * 1e3;

    dirty.push_back(static_cast<double>(out.dirty_agents));
    rounds.push_back(static_cast<double>(out.repair_rounds));
    saved.push_back(static_cast<double>(out.reports_saved) / servers);
    evals.push_back(static_cast<double>(out.candidate_evaluations));
    lost.push_back(static_cast<double>(out.replicas_lost));

    std::vector<std::string> reasons;
    if (out.events_applied != batch.size()) {
      reasons.push_back("apply_events skipped events");
    }
    if (index % kCostCheckEvery == 0) {
      Tracer::Scope check = tracer.scope("bench.check");
      if (engine->total_cost() !=
          drp::CostModel::total_cost(engine->placement())) {
        reasons.push_back("total_cost() differs from CostModel::total_cost");
      }
    }
    record_op(r, reasons);
    return ms;
  }, [&] {
    const double initial = drp::CostModel::initial_cost(engine->problem());
    r.otc_savings_pct = 100.0 * (initial - engine->total_cost()) / initial;
  });

  {
    Tracer::Scope check = tracer.scope("bench.check");
    std::string why;
    if (engine->total_cost() !=
        drp::CostModel::total_cost(engine->placement())) {
      why = "final total_cost() differs from CostModel::total_cost";
    }
    record_op(r, {why, perfbench::check_feasible(engine->placement())});
  }
  r.layer["core.dirty_agents_per_batch"] = mean(dirty);
  r.layer["core.repair_rounds_per_batch"] = mean(rounds);
  r.layer["core.reports_saved_frac"] = mean(saved);
  r.layer["core.candidate_evaluations_per_batch"] = mean(evals);
  r.layer["core.replicas_lost"] = mean(lost);

  add_named(r, "repair_p50_ms", median(r.op_ms), "ms", "lower");
  add_named(r, "repair_p95_ms", percentile(r.op_ms, 0.95), "ms", "lower");
  add_named(r, "otc_savings_pct", r.otc_savings_pct, "%", "higher");
  return r;
}

// --------------------------------------------------------------------------
// regional-50k: sparse instance -> tiled partition -> sharded regional run.

struct RegionalSolved {
  std::optional<drp::SparseInstance> instance;
  std::optional<core::TiledPartition> partition;
  core::TiledRegionalResult result;
};

double regional_once(const drp::InstanceSpec& spec,
                     const core::TiledRegionalConfig& cfg, bool traced,
                     Tracer& tracer, RegionalSolved& out) {
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope root = tracer.scope("bench.solve");
    out.instance.emplace(tracer.timed("drp.make_sparse_instance", [&] {
      return drp::make_sparse_instance(spec);
    }));
    if (traced) {
      // make_tiled_partition's public stages, each in its own span.
      core::TiledPartition partition;
      net::SampledClusteringConfig ccfg;
      ccfg.regions = cfg.regions;
      ccfg.seed = cfg.seed;
      ccfg.refine_iterations = cfg.refine_iterations;
      ccfg.max_members = 2 * ((spec.servers + cfg.regions - 1) / cfg.regions);
      partition.clustering = tracer.timed("net.cluster_servers_sampled", [&] {
        return net::cluster_servers_sampled(out.instance->graph, ccfg);
      });
      partition.tile_bytes = net::TiledDistances::estimate_bytes(
          partition.clustering);
      partition.within_budget =
          partition.tile_bytes <= cfg.distance_budget_bytes;
      if (partition.within_budget) {
        partition.tiles = tracer.timed("net.TiledDistances::build", [&] {
          return net::TiledDistances::build(out.instance->graph,
                                            partition.clustering);
        });
      }
      out.partition.emplace(std::move(partition));
    } else {
      out.partition.emplace(core::make_tiled_partition(*out.instance, cfg));
    }
    out.result = tracer.timed("core.run_regional_tiled", [&] {
      return core::run_regional_tiled(*out.instance, *out.partition, cfg);
    });
  }
  return seconds_since(t0) * 1e3;
}

Result run_regional(const Options& opt, Tracer& tracer) {
  Result r;
  r.op_name = "sparse instance, tiled partition and sharded regional run";
  const core::TiledRegionalConfig cfg = regional_config(opt.smoke);

  // Set-up: warm-up runs at smoke size, as for solve-paper.
  for (int i = 0; i < kSetupRepeats; ++i) {
    Tracer none(false);
    RegionalSolved solved;
    r.setup_s.push_back(regional_once(regional_spec(opt.seed, true),
                                      regional_config(true), false, none,
                                      solved) / 1e3);
  }

  std::optional<std::size_t> first_allocations;
  std::optional<double> first_cost;
  bool staged_checked = false;
  run_ops(opt, tracer, r, [&](bool traced, int /*index*/) {
    const Clock::time_point g0 = Clock::now();
    const drp::InstanceSpec op_spec =
        regional_spec(kRegionalInstanceSeed, opt.smoke);
    r.gen_s += seconds_since(g0);
    RegionalSolved solved;
    const double ms = regional_once(op_spec, cfg, traced, tracer, solved);

    Tracer::Scope check = tracer.scope("bench.check");
    const core::TiledRegionalResult& res = solved.result;
    std::vector<std::string> reasons;
    if (!res.within_budget) reasons.push_back("tiles refused by the budget");
    reasons.push_back(
        perfbench::check_allocations(solved.instance->base, res.allocations));
    if (!(res.final_cost <= res.initial_cost)) {
      reasons.push_back("regional run raised the cost");
    }
    if (!first_allocations) {
      first_allocations = res.allocations.size();
      first_cost = res.final_cost;
    } else if (*first_allocations != res.allocations.size() ||
               *first_cost != res.final_cost) {
      reasons.push_back("repeated regional solve gave different results");
    }
    record_op(r, reasons);
    r.otc_savings_pct = 100.0 * res.savings();
    r.layer["net.tile_mb"] =
        static_cast<double>(res.tile_bytes) / (1024.0 * 1024.0);

    if (traced) {
      std::uint64_t reports = 0;
      std::uint64_t wire = 0;
      for (const core::TiledShardOutcome& shard : res.shards) {
        reports += shard.reports_computed;
        wire += shard.wire_bytes;
      }
      r.layer["core.regional_reports_computed"] = static_cast<double>(reports);
      r.layer["core.regional_wire_bytes"] = static_cast<double>(wire);
      r.layer["drp.demand_cells"] =
          static_cast<double>(solved.instance->base.access.nonzeros());
      if (!staged_checked) {
        // The staged partition must equal make_tiled_partition's; the
        // tiles are freed first so two never coexist.
        staged_checked = true;
        const net::Clustering staged = solved.partition->clustering;
        const std::uint64_t staged_bytes = solved.partition->tile_bytes;
        solved.partition.reset();
        const core::TiledPartition reference =
            core::make_tiled_partition(*solved.instance, cfg);
        std::string why;
        if (reference.clustering.assignment != staged.assignment ||
            reference.clustering.medoids != staged.medoids ||
            reference.tile_bytes != staged_bytes) {
          why = "staged partition differs from make_tiled_partition";
        }
        record_op(r, {why});
      }
    }
    return ms;
  });

  r.layer["drp.sparse_instance_s"] =
      span_median(tracer, "drp.make_sparse_instance");
  r.layer["net.partition_s"] =
      span_median(tracer, "net.cluster_servers_sampled") +
      span_median(tracer, "net.TiledDistances::build");
  r.layer["core.regional_run_s"] =
      span_median(tracer, "core.run_regional_tiled");

  add_named(r, "solve_s", median(r.op_ms) / 1e3, "s", "lower");
  add_named(r, "otc_savings_pct", r.otc_savings_pct, "%", "higher");
  return r;
}

// --------------------------------------------------------------------------
// Host fingerprint and output

std::string json_escape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string host_json(const Options& opt) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  std::ostringstream o;
  o << "{\"cpu_model\": \"" << json_escape(cpu_model()) << "\""
    << ", \"logical_cpus\": " << std::thread::hardware_concurrency()
    << ", \"affinity_cpus\": " << affinity
    << ", \"pool_threads\": "
    << common::ThreadPool::shared().thread_count()
    << ", \"compiler\": \"" << json_escape(__VERSION__) << "\""
    << ", \"simd_compiled\": "
    << (drp::kernels::simd_compiled() ? "true" : "false")
    << ", \"simd_supported\": "
    << (drp::kernels::simd_supported() ? "true" : "false")
    << ", \"simd_active\": "
    << (drp::kernels::simd_active() ? "true" : "false")
    << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
    << ", \"commit\": \"" << json_escape(opt.commit) << "\"}";
  return o.str();
}

/// The end-to-end set, identical names on every workload.
std::vector<std::pair<std::string, Metric>> end_to_end(const Result& r) {
  return {
      {"setup_s", {median(r.setup_s), "s", "lower"}},
      {"op_p50_ms", {median(r.op_ms), "ms", "lower"}},
      {"op_p95_ms", {percentile(r.op_ms, 0.95), "ms", "lower"}},
      {"op_mean_ms", {mean(r.op_ms), "ms", "lower"}},
      {"peak_rss_mb", {r.peak_rss_mb, "MB", "lower"}},
      {"otc_savings_pct", {r.otc_savings_pct, "%", "higher"}},
  };
}

/// Every per-layer metric, and the listed subset of them.
struct LayerMetrics {
  std::vector<std::pair<std::string, Metric>> all;
  std::vector<std::pair<std::string, Metric>> listed;
};

LayerMetrics per_layer(Result& r, const Tracer& tracer) {
  const std::size_t ops = r.op_ms.size() + r.traced_op_ms.size();
  r.layer["bench.gen_s"] = ops == 0 ? 0.0 : r.gen_s / static_cast<double>(ops);
  const double untraced = median(r.op_ms);
  r.layer["bench.trace_overhead_frac"] =
      untraced > 0.0 && !r.traced_op_ms.empty()
          ? median(r.traced_op_ms) / untraced - 1.0
          : 0.0;
  for (const auto& [layer, frac] : tracer.layer_self_fractions()) {
    r.layer[layer + ".self_frac"] = frac;
  }
  LayerMetrics out;
  for (const LayerMetric& spec : layer_metric_specs()) {
    const auto it = r.layer.find(spec.name);
    std::pair<std::string, Metric> metric{
        spec.name, Metric{it == r.layer.end() ? 0.0 : it->second, spec.unit,
                          spec.better}};
    if (spec.listed) out.listed.push_back(metric);
    out.all.push_back(std::move(metric));
  }
  return out;
}

std::string metrics_json(const std::vector<std::pair<std::string, Metric>>& ms,
                         bool with_direction) {
  std::ostringstream o;
  o << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i].second;
    o << (i ? ", " : "") << "\"" << ms[i].first << "\": {\"value\": "
      << num(m.value) << ", \"unit\": \"" << m.unit << "\"";
    if (with_direction) o << ", \"better\": \"" << m.better << "\"";
    o << "}";
  }
  o << "}";
  return o.str();
}

void print_report(const Options& opt, const Result& r,
                  const std::vector<std::pair<std::string, Metric>>& e2e,
                  const std::vector<std::pair<std::string, Metric>>& layers) {
  std::fprintf(stderr,
               "workload %s (%s), seed %llu: %zu x %s (medians and p95 over "
               "these), %zu traced, %zu set-ups\n",
               opt.workload.c_str(), opt.smoke ? "smoke" : "full",
               static_cast<unsigned long long>(opt.seed), r.op_ms.size(),
               r.op_name.c_str(), r.traced_op_ms.size(), r.setup_s.size());
  const auto table = [](const char* title, const auto& metrics) {
    std::fprintf(stderr, "  %s\n", title);
    for (const auto& [name, m] : metrics) {
      std::fprintf(stderr, "    %-38s %16.6g %-10s (%s is better)\n",
                   name.c_str(), m.value, m.unit.c_str(), m.better.c_str());
    }
  };
  table("end-to-end", e2e);
  table("workload metrics", r.named);
  if (opt.trace) table("per-layer (traced run)", layers);
  std::fprintf(stderr, "  checks: %llu attempted, %llu failed\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  for (const std::string& why : r.failures) {
    std::fprintf(stderr, "    FAILED: %s\n", why.c_str());
  }
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value != "0";
    else if (key == "--size") opt.smoke = value == "smoke";
    else if (key == "--spans") opt.spans = value;
    else if (key == "--commit") opt.commit = value;
    else return false;
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: perfbench_runner --workload NAME --seed N "
                   "--seconds S --trace 0|1 [--size full|smoke] "
                   "[--spans FILE] [--commit ID]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }

  const std::map<std::string, std::function<Result(const Options&, Tracer&)>>
      workloads = {{"solve-paper", run_solve_paper},
                   {"serve-drift", run_serve_drift},
                   {"online-churn", run_online_churn},
                   {"regional-50k", run_regional}};
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  Tracer tracer(opt.trace);
  Result r;
  try {
    r = it->second(opt, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (r.op_ms.empty()) {
    r.failures.push_back("no operation completed");
    ++r.attempted;
    ++r.failed;
  }
  add_named(r, "setup_s", median(r.setup_s), "s", "lower");
  add_named(r, "peak_rss_mb", r.peak_rss_mb, "MB", "lower");
  add_named(r, "failed_ops_frac",
            static_cast<double>(r.failed) /
                static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)),
            "frac", "lower");

  const auto e2e = end_to_end(r);
  const LayerMetrics layers = per_layer(r, tracer);
  print_report(opt, r, e2e, layers.all);
  if (opt.trace && !opt.spans.empty() && !tracer.write_jsonl(opt.spans)) {
    std::fprintf(stderr, "could not write spans to %s\n", opt.spans.c_str());
  }

  const bool correct = r.failed == 0;
  std::ostringstream failures;
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    failures << (i ? ", " : "") << "\"" << json_escape(r.failures[i]) << "\"";
  }
  std::printf(
      "{\"record\": \"perfbench\", \"workload\": \"%s\", \"size\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %s, \"host\": %s, "
      "\"operation\": \"%s\", \"samples\": {\"setup\": %zu, \"op\": %zu, "
      "\"traced_op\": %zu}, \"failed_ops_frac\": %s, \"failures\": [%s], "
      "\"workload_metrics\": %s, \"end_to_end\": %s, \"per_layer\": %s}\n",
      opt.workload.c_str(), opt.smoke ? "smoke" : "full",
      static_cast<unsigned long long>(opt.seed), num(opt.seconds).c_str(),
      opt.trace ? "true" : "false", host_json(opt).c_str(),
      json_escape(r.op_name).c_str(), r.setup_s.size(), r.op_ms.size(),
      r.traced_op_ms.size(),
      num(static_cast<double>(r.failed) /
          static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)))
          .c_str(),
      failures.str().c_str(), metrics_json(r.named, true).c_str(),
      metrics_json(e2e, true).c_str(), metrics_json(layers.all, true).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(opt.trace ? layers.listed : e2e, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
