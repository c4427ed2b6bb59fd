// DAG strings through the one pipeline: the IMR's frontier walk, the
// sequential MWF/decode rules, every search engine and the LP bound.

#include <gtest/gtest.h>

#include "analysis/feasibility.hpp"
#include "analysis/utilization.hpp"
#include "core/decode.hpp"
#include "core/exact.hpp"
#include "core/imr.hpp"
#include "core/local_search.hpp"
#include "core/ordered.hpp"
#include "core/psg.hpp"
#include "lp/upper_bound.hpp"
#include "workload/generator.hpp"

namespace tsce::core {
namespace {

using model::MachineId;
using model::StringId;
using model::SystemModel;

SystemModel random_dag_system(std::uint64_t seed, std::size_t machines = 4,
                              std::size_t strings = 8) {
  util::Rng rng(seed);
  workload::GeneratorConfig config;
  config.num_machines = machines;
  config.num_strings = strings;
  config.min_apps_per_string = 2;
  config.max_apps_per_string = 8;
  return workload::generate_dag(config, rng);
}

/// Single machine holding \p utils.size() single-app strings of the given
/// utilizations (period 10, relaxed latency).
SystemModel single_app_strings(std::initializer_list<double> utils) {
  model::SystemModelBuilder b(1);
  for (const double u : utils) {
    b.begin_string(10.0, 1000.0);
    b.add_app(u * 10.0, 1.0);
  }
  return b.build();
}

TEST(DagMapper, AssignsEveryApplication) {
  const SystemModel m = random_dag_system(1);
  const analysis::UtilizationState util(m);
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    const auto assignment = imr_map_string(m, util, static_cast<StringId>(k));
    ASSERT_EQ(assignment.size(), m.strings[k].size());
    for (const auto j : assignment) {
      EXPECT_GE(j, 0);
      EXPECT_LT(j, 4);
    }
  }
}

TEST(DagMapper, Deterministic) {
  const SystemModel m = random_dag_system(2);
  const analysis::UtilizationState util(m);
  ImrScratch scratch;
  std::vector<MachineId> reused;
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    const auto fresh = imr_map_string(m, util, static_cast<StringId>(k));
    imr_map_string_into(m, util, static_cast<StringId>(k), scratch, reused);
    EXPECT_EQ(fresh, reused);
    EXPECT_EQ(fresh, imr_map_string(m, util, static_cast<StringId>(k)));
  }
}

TEST(DagMapper, SlowNetworkEncouragesColocation) {
  model::SystemModel m;
  m.network = model::Network(2);
  m.network.set_bandwidth_mbps(0, 1, 0.05);
  m.network.set_bandwidth_mbps(1, 0, 0.05);
  model::AppString s;
  s.apps.resize(3);
  for (auto& a : s.apps) {
    a.nominal_time_s = {2.0, 2.0};
    a.nominal_util = {0.3, 0.3};
  }
  s.edges = {{0, 1, 1000.0}, {0, 2, 1000.0}};
  s.period_s = 20.0;
  s.max_latency_s = 1000.0;
  m.strings.push_back(s);
  ASSERT_TRUE(m.validate().empty());
  const analysis::UtilizationState util(m);
  const auto assignment = imr_map_string(m, util, 0);
  EXPECT_EQ(assignment[0], assignment[1]);
  EXPECT_EQ(assignment[0], assignment[2]);
}

TEST(DagAllocator, MostWorthFirstIsFeasible) {
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    const SystemModel m = random_dag_system(seed);
    util::Rng rng(1);
    const auto result = MostWorthFirst{}.allocate(m, rng);
    EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible()) << seed;
    EXPECT_EQ(result.fitness.total_worth, analysis::total_worth(m, result.allocation));
    EXPECT_GT(result.allocation.num_deployed(), 0u);
  }
}

TEST(DagAllocator, LightLoadDeploysEverything) {
  const SystemModel m = random_dag_system(6, 8, 4);
  util::Rng rng(1);
  const auto result = MostWorthFirst{}.allocate(m, rng);
  EXPECT_EQ(result.allocation.num_deployed(), m.num_strings());
  EXPECT_EQ(result.fitness.total_worth, m.total_worth_available());
}

TEST(DagAllocator, OverloadStopsSequentialProcess) {
  // Single machine; identical 0.6-utilization strings: only one fits, and the
  // stop-at-first-failure rule leaves the third untouched.
  const SystemModel m = single_app_strings({0.6, 0.6, 0.6});
  const DecodeResult result = decode_order(m, identity_order(m));
  EXPECT_EQ(result.strings_deployed, 1u);
  EXPECT_EQ(result.first_failed, 1);
  EXPECT_TRUE(result.allocation.deployed(0));
  EXPECT_FALSE(result.allocation.deployed(1));
  EXPECT_FALSE(result.allocation.deployed(2));
}

TEST(DagAllocator, DecodeOrderMatters) {
  const SystemModel m = single_app_strings({0.4, 0.7, 0.05});
  const std::vector<StringId> bad_order = {0, 1, 2};   // 0.4 then 0.7 fails
  const std::vector<StringId> good_order = {2, 0, 1};  // 0.05 + 0.4 fit
  EXPECT_EQ(decode_order(m, bad_order).strings_deployed, 1u);
  EXPECT_EQ(decode_order(m, good_order).strings_deployed, 2u);
}

PsgOptions quick_psg() {
  PsgOptions options;
  options.ga.population_size = 20;
  options.ga.max_iterations = 80;
  options.ga.stagnation_limit = 40;
  options.trials = 2;
  return options;
}

TEST(DagPipeline, EverySearchYieldsAFeasibleAllocation) {
  const SystemModel m = random_dag_system(21, 4, 12);
  HillClimbOptions climb;
  climb.restarts = 2;
  climb.max_evaluations = 200;
  AnnealingOptions anneal;
  anneal.iterations = 200;
  std::vector<AllocatorPtr> allocators;
  allocators.push_back(std::make_unique<Psg>(quick_psg()));
  allocators.push_back(std::make_unique<SeededPsg>(quick_psg()));
  allocators.push_back(std::make_unique<SimulatedAnnealing>(anneal));
  allocators.push_back(std::make_unique<HillClimb>(climb));
  for (const auto& allocator : allocators) {
    util::Rng rng(99);
    const auto result = allocator->allocate(m, rng);
    EXPECT_TRUE(analysis::check_feasibility(m, result.allocation).feasible())
        << allocator->name();
    EXPECT_EQ(result.fitness.total_worth, analysis::total_worth(m, result.allocation))
        << allocator->name();
    EXPECT_GT(result.fitness.total_worth, 0) << allocator->name();
  }
}

TEST(DagPipeline, ExactSearchOnThreeStrings) {
  const SystemModel m = random_dag_system(22, 2, 3);
  util::Rng rng(1);
  const auto exact = ExactPermutationSearch{}.allocate(m, rng);
  EXPECT_TRUE(analysis::check_feasibility(m, exact.allocation).feasible());
  std::vector<StringId> order = identity_order(m);
  do {
    EXPECT_FALSE(exact.fitness < decode_order(m, order).fitness);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(DagPipeline, UpperBoundDominatesPsg) {
  const SystemModel m = random_dag_system(23, 4, 12);
  util::Rng rng(5);
  const auto psg = Psg(quick_psg()).allocate(m, rng);
  const auto ub = lp::upper_bound_worth(m);
  ASSERT_EQ(ub.status, lp::SolveStatus::kOptimal);
  EXPECT_GE(ub.value + 1e-6, psg.fitness.total_worth);
  // Route rows and one y block per edge.
  std::size_t edges = 0;
  for (const auto& s : m.strings) edges += s.edges.size();
  std::size_t apps = m.num_apps();
  EXPECT_EQ(ub.lp_cols, apps * 4 + edges * 16);
}

}  // namespace
}  // namespace tsce::core
