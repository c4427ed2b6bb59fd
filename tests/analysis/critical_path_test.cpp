// Analysis on edge-list strings: chains keep their historical fold orders
// bit for bit (ChainEquivalence), and DAG strings get critical-path latency,
// per-edge route loads and stage-two checks.

#include <gtest/gtest.h>

#include <vector>

#include "analysis/estimates.hpp"
#include "analysis/feasibility.hpp"
#include "analysis/session.hpp"
#include "analysis/tightness.hpp"
#include "analysis/utilization.hpp"
#include "testing/builders.hpp"
#include "workload/generator.hpp"

namespace tsce::analysis {
namespace {

using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

/// A chain run through the edge-list code must reproduce the chain formulas,
/// recomputed here in their historical fold orders: utilizations summed per
/// resource in deployment order, tightness folded c0 + t0 + c1 + ..., and
/// eq. (1) latency folded over all computations, then all transfers.
class ChainEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChainEquivalence, UtilizationTightnessEstimatesAndVerdictMatch) {
  util::Rng rng(GetParam());
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = 4;
  config.num_strings = 8;
  const SystemModel m = workload::generate(config, rng);
  model::Allocation alloc(m);
  util::Rng assign_rng(GetParam() + 99);
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    for (std::size_t i = 0; i < m.strings[k].size(); ++i) {
      alloc.assign(static_cast<StringId>(k), static_cast<AppIndex>(i),
                   static_cast<MachineId>(assign_rng.bounded(4)));
    }
    alloc.set_deployed(static_cast<StringId>(k), true);
  }

  // Utilizations: per-resource left folds in string order.
  std::vector<double> machine(4, 0.0);
  std::vector<double> route(16, 0.0);
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    const auto& s = m.strings[k];
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto j = static_cast<std::size_t>(
          alloc.machine_of(static_cast<StringId>(k), static_cast<AppIndex>(i)));
      machine[j] += s.apps[i].cpu_work(j) / s.period_s;
      if (i + 1 == s.size()) continue;
      const MachineId j2 =
          alloc.machine_of(static_cast<StringId>(k), static_cast<AppIndex>(i + 1));
      if (static_cast<MachineId>(j) == j2) continue;
      route[j * 4 + static_cast<std::size_t>(j2)] +=
          model::kbytes_to_megabits(s.edges[i].kbytes) / s.period_s /
          m.network.bandwidth_mbps(static_cast<MachineId>(j), j2);
    }
  }
  const auto util = UtilizationState::from_allocation(m, alloc);
  for (MachineId j = 0; j < 4; ++j) {
    EXPECT_EQ(util.machine_util(j), machine[static_cast<std::size_t>(j)]);
    for (MachineId j2 = 0; j2 < 4; ++j2) {
      EXPECT_EQ(util.route_util(j, j2),
                route[static_cast<std::size_t>(j * 4 + j2)]);
    }
  }

  const TimeEstimates est = estimate_all(m, alloc);
  bool feasible = util.max_machine_util() <= 1.0 + 2e-9 &&
                  util.max_route_util() <= 1.0 + 2e-9;
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    const auto sk = static_cast<StringId>(k);
    const auto& s = m.strings[k];
    double tightness = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const MachineId j = alloc.machine_of(sk, static_cast<AppIndex>(i));
      tightness += s.apps[i].nominal_time_s[static_cast<std::size_t>(j)];
      if (i + 1 < s.size()) {
        const MachineId j2 = alloc.machine_of(sk, static_cast<AppIndex>(i + 1));
        tightness += m.network.transfer_s(s.edges[i].kbytes, j, j2);
      }
    }
    EXPECT_EQ(relative_tightness(m, alloc, sk), tightness / s.max_latency_s);

    double latency = 0.0;
    for (const double c : est.comp[k]) latency += c;
    for (const double t : est.tran[k]) latency += t;
    EXPECT_EQ(est.latency(sk), latency);
    for (const double c : est.comp[k]) feasible = feasible && within(c, s.period_s);
    for (const double t : est.tran[k]) feasible = feasible && within(t, s.period_s);
    feasible = feasible && within(latency, s.max_latency_s);
  }
  EXPECT_EQ(check_feasibility(m, alloc).feasible(), feasible);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(DagAnalysis, DiamondLatencyIsCriticalPathNotSum) {
  // Diamond on one machine: comp 1 each, transfers free (same machine).
  // Chain-sum latency would be 4; the critical path is 3 (0 -> {1,2} -> 3).
  const SystemModel m = testing::diamond_system();
  model::Allocation alloc(m);
  for (AppIndex i = 0; i < 4; ++i) alloc.assign(0, i, 0);
  alloc.set_deployed(0, true);
  const auto est = estimate_all(m, alloc);
  EXPECT_DOUBLE_EQ(est.latency(0), 3.0);
  EXPECT_DOUBLE_EQ(relative_tightness(m, alloc, 0), 3.0 / 50.0);

  // The session's eq. (1) check uses the same critical path: Lmax = 3.5
  // admits the diamond although its chain sum (4) would not fit.
  SystemModel tight = m;
  tight.strings[0].max_latency_s = 3.5;
  AllocationSession session(tight);
  EXPECT_TRUE(session.try_commit(0, {0, 0, 0, 0}));
  EXPECT_EQ(session.constraint_violation(0), ConstraintViolation::kNone);
}

TEST(DagAnalysis, CriticalPathLatencySumsThePathOnly) {
  const model::AppString s = testing::diamond_string(1);
  const std::vector<double> comp = {1.0, 5.0, 1.0, 2.0};
  const std::vector<double> tran = {0.25, 0.5, 0.125, 4.0};  // 0-1 0-2 1-3 2-3
  std::vector<double> start(4);
  std::vector<AppIndex> pred(4);
  // 0 -> 1 -> 3 takes 1 + 0.25 + 5 + 0.125 + 2 = 8.375; 0 -> 2 -> 3 takes
  // 1 + 0.5 + 1 + 4 + 2 = 8.5 and is the critical path.
  EXPECT_DOUBLE_EQ(critical_path_latency(s, comp, tran, start, pred), 8.5);
}

TEST(DagAnalysis, ParallelBranchTransfersLoadRoutesIndependently) {
  // Diamond split across two machines: branch transfers use different routes.
  SystemModel m;
  m.network = model::Network(2, 8.0);
  m.strings.push_back(testing::diamond_string(2, 0.25));
  for (auto& e : m.strings[0].edges) e.kbytes = 100.0;
  model::Allocation alloc(m);
  alloc.assign(0, 0, 0);
  alloc.assign(0, 1, 1);  // branch 1 crosses 0->1 then 1->0
  alloc.assign(0, 2, 0);
  alloc.assign(0, 3, 0);
  alloc.set_deployed(0, true);
  const auto util = UtilizationState::from_allocation(m, alloc);
  // Route 0->1 carries edge (0,1): 0.8 Mb / 10 s / 8 = 0.01.
  EXPECT_NEAR(util.route_util(0, 1), 0.01, 1e-12);
  // Route 1->0 carries edge (1,3): same.
  EXPECT_NEAR(util.route_util(1, 0), 0.01, 1e-12);
  ASSERT_EQ(util.transfers_on(0, 1).size(), 1u);
  EXPECT_EQ(util.transfers_on(0, 1)[0], (AppRef{0, 0}));
  ASSERT_EQ(util.transfers_on(1, 0).size(), 1u);
  EXPECT_EQ(util.transfers_on(1, 0)[0], (AppRef{0, 2}));
  const auto est = estimate_all(m, alloc);
  ASSERT_EQ(est.tran[0].size(), 4u);
  EXPECT_DOUBLE_EQ(est.tran[0][0], 0.1);  // 0.8 Mb at 8 Mb/s
  EXPECT_DOUBLE_EQ(est.tran[0][1], 0.0);  // same machine
}

TEST(DagAnalysis, StageTwoViolationDetected) {
  // One machine; a DAG string whose branches fit alone, next to a tighter
  // string that preempts it past its period.
  SystemModel m;
  m.network = model::Network(1, 5.0);
  model::AppString tight;
  tight.apps.resize(1);
  tight.apps[0].nominal_time_s = {8.0};
  tight.apps[0].nominal_util = {0.9};
  tight.period_s = 20.0;
  tight.max_latency_s = 10.0;  // T = 0.8: high priority
  m.strings.push_back(tight);
  m.strings.push_back(testing::diamond_string(1, 0.2));
  m.strings[1].apps[1].nominal_time_s = {2.0};
  m.strings[1].max_latency_s = 1000.0;

  model::Allocation alloc(m);
  alloc.assign(0, 0, 0);
  for (AppIndex i = 0; i < 4; ++i) alloc.assign(1, i, 0);
  alloc.set_deployed(0, true);
  alloc.set_deployed(1, true);
  // Diamond app 1 waits on the tight string's work 7.2 scaled by P/20: with
  // P = 3 its t_comp = 2 + 1.08 > 3, while stage one (0.36 + 1.0/3) passes.
  m.strings[1].period_s = 3.0;
  const auto report = check_feasibility(m, alloc);
  EXPECT_TRUE(report.stage_one_ok);
  EXPECT_FALSE(report.stage_two_ok);
}

TEST(DagString, EdgeAdjacency) {
  // UtilizationState derives each string's undirected incidence lists once.
  const SystemModel m = testing::diamond_system();
  const UtilizationState util(m);
  auto edges_of = [&](AppIndex i) {
    const auto span = util.incident_edges(0, i);
    return std::vector<AppIndex>(span.begin(), span.end());
  };
  EXPECT_EQ(edges_of(0), (std::vector<AppIndex>{0, 1}));
  EXPECT_EQ(edges_of(1), (std::vector<AppIndex>{0, 2}));
  EXPECT_EQ(edges_of(2), (std::vector<AppIndex>{1, 3}));
  EXPECT_EQ(edges_of(3), (std::vector<AppIndex>{2, 3}));
}

TEST(DagAnalysis, GeneratedSystemsAreValid) {
  util::Rng rng(7);
  workload::GeneratorConfig config;
  config.num_machines = 6;
  config.num_strings = 12;
  config.min_apps_per_string = 2;
  config.max_apps_per_string = 8;
  const SystemModel m = workload::generate_dag(config, rng);
  EXPECT_TRUE(m.validate().empty());
  EXPECT_EQ(m.num_strings(), 12u);
  std::size_t extra_edges = 0;
  for (const auto& s : m.strings) {
    EXPECT_GE(s.edges.size(), s.size() - 1);  // spanning tree at minimum
    extra_edges += s.edges.size() - (s.size() - 1);
    EXPECT_GT(s.period_s, 0.0);
    EXPECT_GT(s.max_latency_s, 0.0);
  }
  EXPECT_GT(extra_edges, 0u);  // some strings are not trees
}

TEST(DagAnalysis, SessionMatchesBatchOnDags) {
  util::Rng rng(11);
  workload::GeneratorConfig config;
  config.num_machines = 3;
  config.num_strings = 6;
  config.min_apps_per_string = 2;
  config.max_apps_per_string = 6;
  const SystemModel m = workload::generate_dag(config, rng);
  AllocationSession session(m);
  util::Rng assign_rng(3);
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    std::vector<MachineId> assignment(m.strings[k].size());
    for (auto& j : assignment) j = static_cast<MachineId>(assign_rng.bounded(3));
    (void)session.try_commit(static_cast<StringId>(k), assignment);
  }
  ASSERT_GT(session.allocation().num_deployed(), 0u);
  const TimeEstimates batch = estimate_all(m, session.allocation());
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    const auto sk = static_cast<StringId>(k);
    if (!session.allocation().deployed(sk)) continue;
    const auto comp = session.comp_estimates(sk);
    const auto tran = session.tran_estimates(sk);
    ASSERT_EQ(tran.size(), m.strings[k].edges.size());
    for (std::size_t i = 0; i < comp.size(); ++i) EXPECT_EQ(comp[i], batch.comp[k][i]);
    for (std::size_t e = 0; e < tran.size(); ++e) EXPECT_EQ(tran[e], batch.tran[k][e]);
    EXPECT_EQ(session.constraint_violation(sk), ConstraintViolation::kNone);
  }
  EXPECT_TRUE(check_feasibility(m, session.allocation()).feasible());
}

}  // namespace
}  // namespace tsce::analysis
