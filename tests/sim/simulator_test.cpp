#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "model/system_model.hpp"
#include "testing/builders.hpp"

namespace tsce::sim {
namespace {

using model::Allocation;
using model::SystemModel;
using model::SystemModelBuilder;
using model::Worth;

TEST(Simulator, SingleStringSingleMachineTimings) {
  const SystemModel m = testing::minimal_system();  // t=3, u=0.6, P=10
  Allocation a(m);
  a.assign(0, 0, 0);
  a.set_deployed(0, true);
  const SimResult r = simulate(m, a, {.horizon_s = 100.0});
  // Alone on the machine at its nominal utilization: comp time = t = 3.
  EXPECT_NEAR(r.apps[0][0].comp_s.mean(), 3.0, 1e-9);
  EXPECT_NEAR(r.strings[0].latency_s.mean(), 3.0, 1e-9);
  EXPECT_EQ(r.strings[0].latency_violations, 0u);
  // Releases at 0,10,...,100 = 11 data sets, all complete by 103 except the
  // one at t=100 (completes at 103 > horizon).
  EXPECT_EQ(r.strings[0].datasets_completed, 10u);
}

TEST(Simulator, PipelineAcrossMachinesIncludesTransfer) {
  const SystemModel m = SystemModelBuilder(2)
                            .uniform_bandwidth(8.0)
                            .begin_string(10.0, 100.0, Worth::kLow)
                            .add_app(1.0, 1.0, 100.0)  // 0.8 Mb / 8 Mb/s = 0.1 s
                            .add_app(1.0, 1.0, 0.0)
                            .build();
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(0, 1, 1);
  a.set_deployed(0, true);
  const SimResult r = simulate(m, a, {.horizon_s = 50.0});
  EXPECT_NEAR(r.apps[0][0].comp_s.mean(), 1.0, 1e-9);
  EXPECT_NEAR(r.apps[0][0].tran_s.mean(), 0.1, 1e-9);
  EXPECT_NEAR(r.apps[0][1].comp_s.mean(), 1.0, 1e-9);
  EXPECT_NEAR(r.strings[0].latency_s.mean(), 2.1, 1e-9);
}

TEST(Simulator, SameMachineTransferIsFree) {
  const SystemModel m = SystemModelBuilder(1)
                            .begin_string(10.0, 100.0, Worth::kLow)
                            .add_app(1.0, 0.5, 500.0)
                            .add_app(1.0, 0.5, 0.0)
                            .build();
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(0, 1, 0);
  a.set_deployed(0, true);
  const SimResult r = simulate(m, a, {.horizon_s = 50.0});
  EXPECT_NEAR(r.apps[0][0].tran_s.mean(), 0.0, 1e-12);
  EXPECT_NEAR(r.strings[0].latency_s.mean(), 2.0, 1e-9);
}

TEST(Simulator, RouteContentionDelaysLowerPriority) {
  // Two 2-app strings pushing large outputs over the same 1 Mb/s route.
  SystemModelBuilder b(2);
  b.uniform_bandwidth(1.0);
  b.begin_string(10.0, 12.0, Worth::kHigh, "tight");  // T = high
  b.add_app(1.0, 1.0, 250.0);                         // 2 Mb -> 2 s transfer
  b.add_app(1.0, 1.0, 0.0);
  b.begin_string(10.0, 1000.0, Worth::kLow, "loose");  // T = low
  b.add_app(1.0, 1.0, 125.0);                          // 1 Mb -> 1 s transfer
  b.add_app(1.0, 1.0, 0.0);
  const SystemModel m = b.build();
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(0, 1, 1);
  a.assign(1, 0, 0);
  a.assign(1, 1, 1);
  for (int k = 0; k < 2; ++k) a.set_deployed(k, true);
  const SimResult r = simulate(m, a, {.horizon_s = 100.0});
  // Tight string's transfer gets the route first: exactly 2 s.
  EXPECT_NEAR(r.apps[0][0].tran_s.mean(), 2.0, 1e-9);
  // Loose string's transfer waits behind it.
  EXPECT_GT(r.apps[1][0].tran_s.mean(), 1.0 + 0.5);
}

TEST(Simulator, CpuContentionMatchesPriorities) {
  // Both apps want the full CPU; the tight one wins, the loose one queues.
  const SystemModel m = testing::figure2_system(10.0, 10.0, 1.0, 3.0, 2.0);
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(1, 0, 0);
  for (int k = 0; k < 2; ++k) a.set_deployed(k, true);
  const SimResult r = simulate(m, a, {.horizon_s = 100.0});
  EXPECT_NEAR(r.apps[0][0].comp_s.mean(), 3.0, 1e-9);
  EXPECT_NEAR(r.apps[1][0].comp_s.mean(), 5.0, 1e-9);  // 2 + 3 waiting
}

TEST(Simulator, UndeployedStringsIgnored) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(0, 1, 0);
  a.set_deployed(0, true);
  // String 1 untouched.
  const SimResult r = simulate(m, a, {.horizon_s = 50.0});
  EXPECT_TRUE(r.apps[1].empty());
  EXPECT_EQ(r.strings[1].datasets_completed, 0u);
  EXPECT_GT(r.strings[0].datasets_completed, 0u);
}

TEST(Simulator, DefaultHorizonIsTwentyPeriods) {
  const SystemModel m = testing::minimal_system();  // P = 10
  Allocation a(m);
  a.assign(0, 0, 0);
  a.set_deployed(0, true);
  const SimResult r = simulate(m, a);
  EXPECT_DOUBLE_EQ(r.simulated_s, 200.0);
}

TEST(Simulator, MaxEventsSafetyValve) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  for (int i = 0; i < 2; ++i) a.assign(0, i, 0);
  a.set_deployed(0, true);
  SimOptions options;
  options.horizon_s = 1e6;
  options.max_events = 10;
  const SimResult r = simulate(m, a, options);
  EXPECT_LE(r.events, 10u);
}

TEST(Simulator, DeterministicRepeats) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  for (int i = 0; i < 2; ++i) a.assign(0, i, 0);
  for (int i = 0; i < 2; ++i) a.assign(1, i, i);
  a.set_deployed(0, true);
  a.set_deployed(1, true);
  const SimResult r1 = simulate(m, a, {.horizon_s = 100.0});
  const SimResult r2 = simulate(m, a, {.horizon_s = 100.0});
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_DOUBLE_EQ(r1.strings[0].latency_s.mean(), r2.strings[0].latency_s.mean());
  EXPECT_DOUBLE_EQ(r1.strings[1].latency_s.mean(), r2.strings[1].latency_s.mean());
}

TEST(Simulator, TotalViolationsAggregates) {
  const SystemModel m = testing::figure2_system(3.0, 3.0, 1.0);
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(1, 0, 0);
  for (int k = 0; k < 2; ++k) a.set_deployed(k, true);
  const SimResult r = simulate(m, a, {.horizon_s = 30.0});
  EXPECT_GT(r.total_violations(), 0u);
}

TEST(ScaleInputWorkload, ScalesTimesAndOutputsOnly) {
  const SystemModel m = testing::two_machine_system();
  const SystemModel scaled = scale_input_workload(m, 1.5);
  EXPECT_DOUBLE_EQ(scaled.strings[0].apps[0].nominal_time_s[0], 3.0);
  EXPECT_DOUBLE_EQ(scaled.strings[0].edges[0].kbytes, 150.0);
  EXPECT_DOUBLE_EQ(scaled.strings[0].apps[0].nominal_util[0], 0.5);  // unchanged
  EXPECT_DOUBLE_EQ(scaled.strings[0].period_s, 10.0);                // unchanged
  EXPECT_DOUBLE_EQ(scaled.strings[0].max_latency_s, 30.0);           // unchanged
}

TEST(ScaleInputWorkload, FactorOneIsIdentity) {
  const SystemModel m = testing::two_machine_system();
  const SystemModel scaled = scale_input_workload(m, 1.0);
  EXPECT_DOUBLE_EQ(scaled.strings[1].apps[0].nominal_time_s[0],
                   m.strings[1].apps[0].nominal_time_s[0]);
}

TEST(Simulator, OverloadedSystemDetectsViolationsUnderScaling) {
  // A feasible allocation stays clean at factor 1 and violates at factor 3.
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  for (int i = 0; i < 2; ++i) a.assign(0, i, 0);
  for (int i = 0; i < 2; ++i) a.assign(1, i, 1);
  a.set_deployed(0, true);
  a.set_deployed(1, true);
  const SimResult clean = simulate(m, a, {.horizon_s = 200.0});
  EXPECT_EQ(clean.total_violations(), 0u);
  const SystemModel stressed = scale_input_workload(m, 3.0);
  const SimResult dirty = simulate(stressed, a, {.horizon_s = 200.0});
  EXPECT_GT(dirty.total_violations(), 0u);
}

}  // namespace
}  // namespace tsce::sim
