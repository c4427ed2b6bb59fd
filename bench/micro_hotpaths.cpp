/// \file micro_hotpaths.cpp
/// google-benchmark microbenchmarks of the library's hot paths: utilization
/// bookkeeping, IMR mapping, full permutation decode (the PSG inner loop),
/// eq. (5)-(6) estimation, the simplex, and the discrete-event simulator.

#include <benchmark/benchmark.h>

#include <thread>

#include "analysis/estimates.hpp"
#include "dag/allocator.hpp"
#include "dag/generator.hpp"
#include "model/serialization.hpp"
#include "analysis/session.hpp"
#include "core/decode.hpp"
#include "core/evaluator.hpp"
#include "core/imr.hpp"
#include "core/local_search.hpp"
#include "lp/upper_bound.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"

namespace {

using namespace tsce;

model::SystemModel make_instance(std::size_t machines, std::size_t strings,
                                 std::uint64_t seed = 99) {
  util::Rng rng(seed);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = machines;
  config.num_strings = strings;
  return workload::generate(config, rng);
}

void BM_UtilizationAddRemove(benchmark::State& state) {
  const auto m = make_instance(8, static_cast<std::size_t>(state.range(0)));
  model::Allocation alloc(m);
  util::Rng rng(1);
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    for (std::size_t i = 0; i < m.strings[k].size(); ++i) {
      alloc.assign(static_cast<model::StringId>(k), static_cast<model::AppIndex>(i),
                   static_cast<model::MachineId>(rng.bounded(8)));
    }
    alloc.set_deployed(static_cast<model::StringId>(k), true);
  }
  analysis::UtilizationState util(m);
  for (auto _ : state) {
    for (std::size_t k = 0; k < m.num_strings(); ++k) {
      util.add_string(alloc, static_cast<model::StringId>(k));
    }
    for (std::size_t k = 0; k < m.num_strings(); ++k) {
      util.remove_string(alloc, static_cast<model::StringId>(k));
    }
    benchmark::DoNotOptimize(util.slackness());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(m.num_strings()));
}
BENCHMARK(BM_UtilizationAddRemove)->Arg(16)->Arg(64);

void BM_ImrMapString(benchmark::State& state) {
  const auto m = make_instance(static_cast<std::size_t>(state.range(0)), 20);
  const analysis::UtilizationState util(m);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::imr_map_string(m, util, static_cast<model::StringId>(k)));
    k = (k + 1) % m.num_strings();
  }
}
BENCHMARK(BM_ImrMapString)->Arg(4)->Arg(12);

void BM_DecodeOrder(benchmark::State& state) {
  const auto m =
      make_instance(6, static_cast<std::size_t>(state.range(0)));
  const auto order = core::identity_order(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode_order(m, order));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.num_strings()));
}
BENCHMARK(BM_DecodeOrder)->Arg(12)->Arg(24)->Arg(48);

/// Swap-neighborhood candidate stream (the hill-climb / PSG-mutation access
/// pattern): each candidate is one transposition away from the incumbent and
/// is rejected afterwards.  Decoded incrementally through one DecodeContext,
/// so only the divergent suffix is re-committed per candidate.
void BM_DecodePrefixReuse(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  const std::size_t q = m.num_strings();
  auto order = core::identity_order(m);
  util::Rng shuffle_rng(5);
  shuffle_rng.shuffle(order);
  core::DecodeContext ctx(m);
  util::Rng rng(17);
  for (auto _ : state) {
    const std::size_t i = rng.bounded(q);
    std::size_t j = rng.bounded(q);
    while (j == i) j = rng.bounded(q);
    std::swap(order[i], order[j]);
    benchmark::DoNotOptimize(core::decode_order_into(ctx, order));
    std::swap(order[i], order[j]);  // reject the neighbor
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["reused/decode"] =
      static_cast<double>(ctx.strings_reused()) /
      static_cast<double>(ctx.decodes());
  state.counters["commits/decode"] =
      static_cast<double>(ctx.commits_attempted()) /
      static_cast<double>(ctx.decodes());
}
BENCHMARK(BM_DecodePrefixReuse)->Arg(32)->Arg(64)->Arg(128);

/// The same candidate stream decoded from scratch each time (the pre-engine
/// behavior): baseline for BM_DecodePrefixReuse.
void BM_DecodeFromScratch(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  const std::size_t q = m.num_strings();
  auto order = core::identity_order(m);
  util::Rng shuffle_rng(5);
  shuffle_rng.shuffle(order);
  util::Rng rng(17);
  for (auto _ : state) {
    const std::size_t i = rng.bounded(q);
    std::size_t j = rng.bounded(q);
    while (j == i) j = rng.bounded(q);
    std::swap(order[i], order[j]);
    benchmark::DoNotOptimize(core::decode_order(m, order));
    std::swap(order[i], order[j]);  // reject the neighbor
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DecodeFromScratch)->Arg(32)->Arg(64)->Arg(128);

/// Cost of fanning a decoded prototype out to a replica via
/// clone_state_from (the tempering / BatchEvaluator stamping primitive):
/// O(state bytes) memcpys, allocation-free once the replica's buffers are
/// sized.  Arg = number of strings decoded into the prototype.
void BM_SnapshotClone(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  auto order = core::identity_order(m);
  util::Rng shuffle_rng(5);
  shuffle_rng.shuffle(order);
  core::DecodeContext prototype(m);
  benchmark::DoNotOptimize(core::decode_order_into(prototype, order));
  core::DecodeContext replica(m);
  replica.clone_state_from(prototype);  // warm: size the replica's buffers
  for (auto _ : state) {
    replica.clone_state_from(prototype);
    benchmark::DoNotOptimize(replica.depth());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(prototype.state_bytes()));
  state.counters["depth"] = static_cast<double>(prototype.depth());
}
BENCHMARK(BM_SnapshotClone)->Arg(32)->Arg(64)->Arg(128);

/// Population-sized batch evaluation through BatchEvaluator (the GENITOR
/// initial-population path); Arg = worker threads.
void BM_BatchEvaluate(benchmark::State& state) {
  const auto m = make_instance(6, 48);
  std::vector<std::vector<model::StringId>> orders(
      32, core::identity_order(m));
  util::Rng rng(23);
  for (auto& o : orders) rng.shuffle(o);
  core::BatchEvaluator evaluator(m, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate_fitness(orders));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(orders.size()));
}
BENCHMARK(BM_BatchEvaluate)->Arg(1)->Arg(2)->UseRealTime();

/// Full parallel-tempering run (4 replicas) at a fixed decode budget; Arg =
/// AnnealingOptions::threads.  Same total Metropolis steps and the same
/// result at every thread count, so the wall-clock differences isolate pool
/// overhead (at 1 core) or speedup (at N).  Timed in real time: the workers'
/// CPU time is not the main thread's.
void BM_AnnealTempering(benchmark::State& state) {
  const auto m = make_instance(6, 48);
  core::AnnealingOptions options;
  options.iterations = 4000;
  options.replicas = 4;
  options.exchange_interval = 64;
  options.threads = static_cast<std::size_t>(state.range(0));
  const core::SimulatedAnnealing search(options);
  std::size_t evaluations = 0;
  int worth = 0;
  for (auto _ : state) {
    util::Rng rng(31);
    const auto result = search.allocate(m, rng);
    evaluations += result.evaluations;
    worth = result.fitness.total_worth;
    benchmark::DoNotOptimize(result.fitness);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(evaluations));
  state.counters["worth"] = static_cast<double>(worth);
}
BENCHMARK(BM_AnnealTempering)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// Thread churn with no metrics activity: the baseline spawn/join cost that
/// BM_ThreadChurnShardRetirement is compared against.
void BM_ThreadChurnBaseline(benchmark::State& state) {
  for (auto _ : state) {
    std::thread worker([] {});
    worker.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ThreadChurnBaseline);

/// Thread churn where each short-lived thread touches one registry counter,
/// so its shard is folded-and-removed under the registry mutex on thread
/// exit.  The delta over BM_ThreadChurnBaseline is the full shard-retirement
/// cost (ROADMAP: decide whether the mutex needs replacing with a lock-free
/// list — see DESIGN.md for the recorded verdict).
void BM_ThreadChurnShardRetirement(benchmark::State& state) {
  for (auto _ : state) {
    std::thread worker([] {
      obs::MetricsRegistry::instance()
          .counter(obs::names::kBenchMicroCounter)
          .add(1);
    });
    worker.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ThreadChurnShardRetirement);

void BM_EstimateAll(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  const auto decoded = core::decode_order(m, core::identity_order(m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::estimate_all(m, decoded.allocation));
  }
}
BENCHMARK(BM_EstimateAll)->Arg(12)->Arg(24);

/// Paper-shaped upper-bound LP (multi-app strings, full flow/route blocks)
/// solved by either engine: Arg0 = strings, Arg1 = 0 sparse / 1 dense.  The
/// dense engine's explicit basis inverse is O(m^2) per pivot, so the gap
/// widens with the instance; the pair of rows per Arg0 is the before/after
/// column of BENCH_lp.json.
void BM_SimplexUpperBound(benchmark::State& state) {
  const auto m = make_instance(4, static_cast<std::size_t>(state.range(0)));
  lp::UpperBoundOptions options;
  options.simplex.engine = state.range(1) == 0 ? lp::SimplexEngine::kSparse
                                               : lp::SimplexEngine::kDense;
  lp::UpperBoundResult last;
  for (auto _ : state) {
    last = lp::upper_bound_worth(m, options);
    benchmark::DoNotOptimize(last);
  }
  state.SetLabel(state.range(1) == 0 ? "sparse" : "dense");
  state.counters["rows"] = static_cast<double>(last.lp_rows);
  state.counters["cols"] = static_cast<double>(last.lp_cols);
  state.counters["iters"] = static_cast<double>(last.iterations);
  state.counters["refactors"] = static_cast<double>(last.refactorisations);
}
BENCHMARK(BM_SimplexUpperBound)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({24, 0})
    ->Args({24, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Unit(benchmark::kMillisecond);

/// Sparse engine head-to-head on one mid-size paper-shaped LP, reusing the
/// assembled problem (the UpperBoundSolver service path) so the measurement
/// isolates the solve itself.
void BM_SimplexSparse(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  const lp::LpProblem problem = lp::build_upper_bound_lp(
      m, /*complete=*/false, lp::UbObjective::kTotalWorth);
  lp::SimplexOptions options;  // kSparse default
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(problem, options));
  }
  state.counters["rows"] = static_cast<double>(problem.num_rows());
  state.counters["nnz"] = static_cast<double>(problem.num_nonzeros());
}
BENCHMARK(BM_SimplexSparse)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

/// Fleet-scale workload: hundreds of machines, thousands of single-app
/// strings (the TDM-client shape — no inter-app edges, so the route-capacity
/// block vanishes and the LP is Q deployment rows + M capacity rows).  The
/// dense engine is not benchmarked here: its O(m^2)-per-pivot inverse makes
/// this scale infeasible, which is the point of the sparse rewrite.
model::SystemModel fleet_instance(std::size_t machines, std::size_t strings) {
  util::Rng rng(99);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = machines;
  config.num_strings = strings;
  config.min_apps_per_string = 1;
  config.max_apps_per_string = 1;
  return workload::generate(config, rng);
}

void BM_UpperBoundFleet(benchmark::State& state) {
  const auto m = fleet_instance(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)));
  lp::UpperBoundSolver solver;  // reuse the assembled problem across runs
  lp::UpperBoundResult last;
  for (auto _ : state) {
    last = solver.worth(m);
    benchmark::DoNotOptimize(last);
  }
  state.SetLabel(lp::to_string(last.status));
  state.counters["rows"] = static_cast<double>(last.lp_rows);
  state.counters["cols"] = static_cast<double>(last.lp_cols);
  state.counters["iters"] = static_cast<double>(last.iterations);
  state.counters["refactors"] = static_cast<double>(last.refactorisations);
}
BENCHMARK(BM_UpperBoundFleet)
    ->Args({200, 2000})
    ->Args({400, 4000})
    ->Unit(benchmark::kMillisecond);

void BM_Simulate(benchmark::State& state) {
  const auto m = make_instance(6, 8, 123);
  const auto decoded = core::decode_order(m, core::identity_order(m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate(m, decoded.allocation, {.horizon_s = 200.0}));
  }
  state.SetLabel("200 simulated seconds");
}
BENCHMARK(BM_Simulate)->Unit(benchmark::kMillisecond);

void BM_DagMapString(benchmark::State& state) {
  util::Rng rng(7);
  dag::DagGeneratorConfig config;
  config.num_machines = static_cast<std::size_t>(state.range(0));
  config.num_strings = 12;
  const auto m = dag::generate_dag_system(config, rng);
  const dag::DagUtilization util(m);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dag::dag_map_string(m, util, static_cast<model::StringId>(k)));
    k = (k + 1) % m.num_strings();
  }
}
BENCHMARK(BM_DagMapString)->Arg(4)->Arg(12);

void BM_JsonModelRoundTrip(benchmark::State& state) {
  const auto m = make_instance(6, static_cast<std::size_t>(state.range(0)));
  const std::string text = model::to_json(m).dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::system_model_from_json(util::Json::parse(text)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_JsonModelRoundTrip)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

/// Cost of one registry counter increment (the obs hot-path primitive): a
/// thread-local relaxed load+store, no lock, no RMW.
void BM_MetricsCounterAdd(benchmark::State& state) {
  auto& counter = obs::MetricsRegistry::instance().counter(obs::names::kBenchMicroCounter);
  for (auto _ : state) {
    counter.add(1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterAdd);

/// Cost of a span + event when no trace is open: three clock reads and two
/// flight-recorder slots.  Spans sit at trial/restart granularity, so this is
/// the whole always-on span cost an untraced run pays.
void BM_TracingDisabledSpan(benchmark::State& state) {
  for (auto _ : state) {
    obs::Span span(obs::FrKind::kBenchMicroSpan, 0, 1);
    obs::trace_event(obs::FrKind::kBenchMicroEvent, 0, 2);
    benchmark::DoNotOptimize(obs::tracing_active());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracingDisabledSpan);

void BM_SessionCommitUncommit(benchmark::State& state) {
  const auto m = make_instance(6, 16);
  analysis::AllocationSession session(m);
  // Pre-commit half the strings as steady background load.
  for (model::StringId k = 0; k < 8; ++k) {
    const auto assignment = core::imr_map_string(m, session.util(), k);
    (void)session.try_commit(k, assignment);
  }
  const auto assignment = core::imr_map_string(m, session.util(), 8);
  for (auto _ : state) {
    if (session.try_commit(8, assignment)) session.uncommit(8);
  }
}
BENCHMARK(BM_SessionCommitUncommit);

}  // namespace

BENCHMARK_MAIN();
