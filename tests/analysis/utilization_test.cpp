#include "analysis/utilization.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/builders.hpp"

namespace tsce::analysis {
namespace {

using model::Allocation;
using model::MachineId;
using model::SystemModel;

// two_machine_system() hand-computed utilization contributions:
//   a0: 2*0.5/10  = 0.1      a1: 4*1.0/10  = 0.4
//   b0: 5*0.8/20  = 0.2      b1: 2*0.25/20 = 0.025
//   a0 transfer (100 KB / P=10 over 8 Mb/s): 0.8/10/8   = 0.01
//   b0 transfer (50 KB / P=20 over 8 Mb/s):  0.4/20/8   = 0.0025

TEST(Utilization, MachineDeltaMatchesHandComputation) {
  const SystemModel m = testing::two_machine_system();
  UtilizationState util(m);
  EXPECT_DOUBLE_EQ(util.machine_delta(0, 0, 0), 0.1);
  EXPECT_DOUBLE_EQ(util.machine_delta(0, 1, 0), 0.4);
  EXPECT_DOUBLE_EQ(util.machine_delta(1, 0, 1), 0.2);
  EXPECT_DOUBLE_EQ(util.machine_delta(1, 1, 1), 0.025);
}

TEST(Utilization, RouteDeltaMatchesHandComputation) {
  const SystemModel m = testing::two_machine_system();
  UtilizationState util(m);
  EXPECT_DOUBLE_EQ(util.route_delta(0, 0, 0, 1), 0.01);
  EXPECT_DOUBLE_EQ(util.route_delta(1, 0, 1, 0), 0.0025);
  EXPECT_DOUBLE_EQ(util.route_delta(0, 0, 1, 1), 0.0);  // intra-machine
}

TEST(Utilization, AddStringAccumulates) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(0, 1, 1);
  a.set_deployed(0, true);
  UtilizationState util(m);
  util.add_string(a, 0);
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.1);
  EXPECT_DOUBLE_EQ(util.machine_util(1), 0.4);
  EXPECT_DOUBLE_EQ(util.route_util(0, 1), 0.01);
  EXPECT_DOUBLE_EQ(util.route_util(1, 0), 0.0);
  EXPECT_EQ(util.apps_on(0).size(), 1u);
  EXPECT_EQ(util.apps_on(1).size(), 1u);
  EXPECT_EQ(util.transfers_on(0, 1).size(), 1u);
}

TEST(Utilization, SameMachineTransferNotOnRoute) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(0, 1, 0);
  a.set_deployed(0, true);
  UtilizationState util(m);
  util.add_string(a, 0);
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.5);
  EXPECT_DOUBLE_EQ(util.route_util(0, 1), 0.0);
  EXPECT_TRUE(util.transfers_on(0, 1).empty());
}

TEST(Utilization, RemoveStringIsExactInverse) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(0, 1, 1);
  a.set_deployed(0, true);
  a.assign(1, 0, 1);
  a.assign(1, 1, 0);
  a.set_deployed(1, true);
  UtilizationState util(m);
  util.add_string(a, 0);
  UtilizationState only_first(m);
  only_first.add_string(a, 0);
  util.add_string(a, 1);
  util.undo_add(1);
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.1);
  EXPECT_DOUBLE_EQ(util.machine_util(1), 0.4);
  EXPECT_DOUBLE_EQ(util.route_util(1, 0), 0.0);
  EXPECT_TRUE(util.apps_on(0).size() == 1 && util.apps_on(1).size() == 1);
  // Bitwise, not just close: the undo restores the journaled values.
  for (MachineId j = 0; j < 2; ++j) {
    EXPECT_EQ(util.machine_util(j), only_first.machine_util(j));
    EXPECT_TRUE(std::ranges::equal(util.apps_on(j), only_first.apps_on(j)));
    for (MachineId j2 = 0; j2 < 2; ++j2) {
      EXPECT_EQ(util.route_util(j, j2), only_first.route_util(j, j2));
      EXPECT_TRUE(std::ranges::equal(util.transfers_on(j, j2),
                                     only_first.transfers_on(j, j2)));
    }
  }
  EXPECT_EQ(util.slackness(), only_first.slackness());
}

TEST(Utilization, FromAllocationSkipsUndeployed) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  a.assign(0, 0, 0);
  a.assign(0, 1, 0);
  a.set_deployed(0, true);
  // String 1 assigned but NOT deployed: must not count.
  a.assign(1, 0, 1);
  a.assign(1, 1, 1);
  const auto util = UtilizationState::from_allocation(m, a);
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.5);
  EXPECT_DOUBLE_EQ(util.machine_util(1), 0.0);
}

TEST(Utilization, WhatIfQueriesDoNotMutate) {
  const SystemModel m = testing::two_machine_system();
  UtilizationState util(m);
  EXPECT_DOUBLE_EQ(util.machine_util_if(0, 0, 1), 0.4);
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.0);
  EXPECT_DOUBLE_EQ(util.route_util_if(0, 1, 0, 0), 0.01);
  EXPECT_DOUBLE_EQ(util.route_util(0, 1), 0.0);
}

TEST(Utilization, SlacknessIsMinResidualCapacity) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  for (int i = 0; i < 2; ++i) a.assign(0, i, 0);
  for (int i = 0; i < 2; ++i) a.assign(1, i, 0);
  a.set_deployed(0, true);
  a.set_deployed(1, true);
  const auto util = UtilizationState::from_allocation(m, a);
  // Machine 0 carries everything: 0.1+0.4+0.2+0.025 = 0.725.
  EXPECT_DOUBLE_EQ(util.machine_util(0), 0.725);
  EXPECT_NEAR(util.slackness(), 0.275, 1e-12);
  EXPECT_DOUBLE_EQ(util.max_machine_util(), 0.725);
  EXPECT_DOUBLE_EQ(util.max_route_util(), 0.0);
}

TEST(Utilization, EmptySystemHasFullSlack) {
  const SystemModel m = testing::two_machine_system();
  UtilizationState util(m);
  EXPECT_DOUBLE_EQ(util.slackness(), 1.0);
}

}  // namespace
}  // namespace tsce::analysis
