#include "analysis/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/feasibility.hpp"
#include "model/system_model.hpp"
#include "testing/builders.hpp"

namespace tsce::analysis {
namespace {

using model::MachineId;
using model::SystemModel;
using model::SystemModelBuilder;
using model::Worth;

TEST(Session, CommitFeasibleString) {
  const SystemModel m = testing::two_machine_system();
  AllocationSession session(m);
  EXPECT_TRUE(session.try_commit(0, {0, 1}));
  EXPECT_TRUE(session.allocation().deployed(0));
  EXPECT_DOUBLE_EQ(session.util().machine_util(0), 0.1);
  EXPECT_DOUBLE_EQ(session.util().machine_util(1), 0.4);
  EXPECT_EQ(session.fitness().total_worth, 100);
}

TEST(Session, EstimatesMatchBatchComputation) {
  const SystemModel m = testing::two_machine_system();
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(0, {0, 0}));
  ASSERT_TRUE(session.try_commit(1, {0, 0}));
  const TimeEstimates batch = estimate_all(m, session.allocation());
  for (std::size_t k = 0; k < 2; ++k) {
    const auto& inc = session.comp_estimates(static_cast<model::StringId>(k));
    ASSERT_EQ(inc.size(), batch.comp[k].size());
    for (std::size_t i = 0; i < inc.size(); ++i) {
      EXPECT_DOUBLE_EQ(inc[i], batch.comp[k][i]) << "k=" << k << " i=" << i;
    }
  }
}

TEST(Session, RejectsStageOneOverload) {
  SystemModelBuilder b(1);
  for (int k = 0; k < 3; ++k) {
    b.begin_string(10.0, 1000.0, Worth::kLow);
    b.add_app(4.0, 1.0, 0.0);  // 0.4 utilization each
  }
  const SystemModel m = b.build();
  AllocationSession session(m);
  EXPECT_TRUE(session.try_commit(0, {0}));
  EXPECT_TRUE(session.try_commit(1, {0}));
  EXPECT_FALSE(session.try_commit(2, {0}));  // 1.2 > 1
  EXPECT_FALSE(session.allocation().deployed(2));
  EXPECT_DOUBLE_EQ(session.util().machine_util(0), 0.8);
}

TEST(Session, RejectsWhenNewStringBreaksExistingOne) {
  // The loose string is feasible alone; the tighter one, added later, steals
  // priority and pushes the loose string over its latency bound.
  const SystemModel m =
      SystemModelBuilder(1)
          .begin_string(20.0, 15.0, Worth::kHigh, "tight")
          .add_app(10.0, 0.9, 0.0)
          .begin_string(5.0, 4.0, Worth::kLow, "loose")
          .add_app(2.0, 0.2, 0.0)
          .build();
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(1, {0}));  // loose alone: latency 2 <= 4
  EXPECT_FALSE(session.try_commit(0, {0}));  // would make loose 4.25 > 4
  EXPECT_TRUE(session.allocation().deployed(1));
  EXPECT_FALSE(session.allocation().deployed(0));
}

TEST(Session, RollbackRestoresEstimates) {
  const SystemModel m =
      SystemModelBuilder(1)
          .begin_string(20.0, 15.0, Worth::kHigh, "tight")
          .add_app(10.0, 0.9, 0.0)
          .begin_string(5.0, 4.0, Worth::kLow, "loose")
          .add_app(2.0, 0.2, 0.0)
          .build();
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(1, {0}));
  const double before = session.comp_estimates(1)[0];
  ASSERT_FALSE(session.try_commit(0, {0}));
  EXPECT_DOUBLE_EQ(session.comp_estimates(1)[0], before);
  // Utilization restored too.
  EXPECT_DOUBLE_EQ(session.util().machine_util(0), 2.0 * 0.2 / 5.0);
}

TEST(Session, FitnessTracksWorthAndSlackness) {
  const SystemModel m = testing::two_machine_system();
  AllocationSession session(m);
  EXPECT_EQ(session.fitness().total_worth, 0);
  EXPECT_DOUBLE_EQ(session.fitness().slackness, 1.0);
  ASSERT_TRUE(session.try_commit(0, {0, 0}));
  EXPECT_EQ(session.fitness().total_worth, 100);
  EXPECT_NEAR(session.fitness().slackness, 0.5, 1e-12);
  ASSERT_TRUE(session.try_commit(1, {1, 1}));
  EXPECT_EQ(session.fitness().total_worth, 110);
  EXPECT_NEAR(session.fitness().slackness, 0.5, 1e-12);
}

/// Two machines, four low-utilization strings with cross-machine transfers:
/// every commit order and machine split below is feasible, so the rollback
/// tests can focus on state restoration.
SystemModel four_string_system() {
  return SystemModelBuilder(2)
      .uniform_bandwidth(8.0)
      .begin_string(10.0, 100.0, Worth::kHigh, "s0")
      .add_app(1.0, 0.5, 20.0, "a0")
      .add_app(0.5, 1.0, 0.0, "a1")
      .begin_string(20.0, 200.0, Worth::kMedium, "s1")
      .add_app(2.0, 0.4, 10.0, "b0")
      .add_app(1.0, 0.5, 0.0, "b1")
      .begin_string(25.0, 250.0, Worth::kLow, "s2")
      .add_app(1.5, 0.6, 15.0, "c0")
      .add_app(0.5, 0.8, 0.0, "c1")
      .begin_string(40.0, 400.0, Worth::kMedium, "s3")
      .add_app(3.0, 0.3, 5.0, "d0")
      .add_app(1.0, 0.4, 0.0, "d1")
      .build();
}

/// Exact (bitwise, via operator==) state comparison: utilization and
/// resident list (in order) of every machine and route, fitness, and the
/// cached eq. (5)-(6) estimates of every deployed string.  This is the
/// rollback invariant the prefix-reuse decode depends on, so plain EXPECT_EQ
/// on doubles is intentional.
void expect_states_identical(const AllocationSession& a,
                             const AllocationSession& b,
                             const SystemModel& m) {
  const auto machines = static_cast<MachineId>(m.num_machines());
  for (MachineId j = 0; j < machines; ++j) {
    EXPECT_EQ(a.util().machine_util(j), b.util().machine_util(j)) << "machine " << j;
    EXPECT_TRUE(std::ranges::equal(a.util().apps_on(j), b.util().apps_on(j)))
        << "residents of machine " << j;
    for (MachineId j2 = 0; j2 < machines; ++j2) {
      EXPECT_EQ(a.util().route_util(j, j2), b.util().route_util(j, j2))
          << "route " << j << "->" << j2;
      EXPECT_TRUE(std::ranges::equal(a.util().transfers_on(j, j2),
                                     b.util().transfers_on(j, j2)))
          << "residents of route " << j << "->" << j2;
    }
  }
  EXPECT_EQ(a.fitness().total_worth, b.fitness().total_worth);
  EXPECT_EQ(a.fitness().slackness, b.fitness().slackness);
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    const auto id = static_cast<model::StringId>(k);
    ASSERT_EQ(a.allocation().deployed(id), b.allocation().deployed(id)) << "k=" << k;
    if (!a.allocation().deployed(id)) continue;
    const auto& ca = a.comp_estimates(id);
    const auto& cb = b.comp_estimates(id);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i], cb[i]) << "comp k=" << k << " i=" << i;
    }
    const auto& ta = a.tran_estimates(id);
    const auto& tb = b.tran_estimates(id);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i], tb[i]) << "tran k=" << k << " i=" << i;
    }
  }
}

TEST(Session, UncommitRestoresPreviousState) {
  const SystemModel m = testing::two_machine_system();
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(0, {0, 0}));
  SessionSnapshot snap;
  session.snapshot_into(snap);
  ASSERT_TRUE(session.try_commit(1, {0, 0}));
  session.restore_from(snap);
  EXPECT_FALSE(session.allocation().deployed(1));
  EXPECT_TRUE(session.allocation().deployed(0));
  EXPECT_EQ(session.fitness().total_worth, 100);

  AllocationSession fresh(m);
  ASSERT_TRUE(fresh.try_commit(0, {0, 0}));
  expect_states_identical(session, fresh, m);
}

TEST(Session, UncommitRestoresLowerPriorityEstimates) {
  // Taking back the tighter string must give the looser one its waiting back.
  const SystemModel m = testing::figure2_system(4.0, 4.0, 1.0);
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(1, {0}));  // loose alone: comp = 2
  EXPECT_DOUBLE_EQ(session.comp_estimates(1)[0], 2.0);
  SessionSnapshot snap;
  session.snapshot_into(snap);
  ASSERT_TRUE(session.try_commit(0, {0}));  // now loose waits: comp = 4
  EXPECT_DOUBLE_EQ(session.comp_estimates(1)[0], 4.0);
  session.restore_from(snap);
  EXPECT_DOUBLE_EQ(session.comp_estimates(1)[0], 2.0);

  AllocationSession fresh(m);
  ASSERT_TRUE(fresh.try_commit(1, {0}));
  expect_states_identical(session, fresh, m);
}

TEST(Session, UncommitThenRecommitIsIdempotent) {
  const SystemModel m = testing::two_machine_system();
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(0, {0, 1}));
  SessionSnapshot snap;
  session.snapshot_into(snap);
  ASSERT_TRUE(session.try_commit(1, {1, 0}));
  session.restore_from(snap);
  ASSERT_TRUE(session.try_commit(1, {1, 0}));

  AllocationSession fresh(m);
  ASSERT_TRUE(fresh.try_commit(0, {0, 1}));
  ASSERT_TRUE(fresh.try_commit(1, {1, 0}));
  expect_states_identical(session, fresh, m);
}

TEST(Session, CommitUncommitRecommitRoundTripBitIdentical) {
  const SystemModel m = four_string_system();
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(0, {0, 1}));
  SessionSnapshot snap;
  session.snapshot_into(snap);
  ASSERT_TRUE(session.try_commit(1, {1, 0}));
  ASSERT_TRUE(session.try_commit(2, {0, 0}));
  session.restore_from(snap);
  ASSERT_TRUE(session.try_commit(1, {1, 0}));
  ASSERT_TRUE(session.try_commit(2, {0, 0}));

  AllocationSession fresh(m);
  ASSERT_TRUE(fresh.try_commit(0, {0, 1}));
  ASSERT_TRUE(fresh.try_commit(1, {1, 0}));
  ASSERT_TRUE(fresh.try_commit(2, {0, 0}));
  expect_states_identical(session, fresh, m);
}

/// Three residents on machine 0 (one with a transfer to machine 1), then a
/// 3-app string that puts two apps on machine 0 — its fifth entry outgrows
/// the slab's initial capacity of 4, so the add moves the slab — and one on
/// machine 1 across route 0->1.  \p overload_machine makes the string
/// overload machine 0 (stage-one rejection); otherwise it fits and its own
/// latency bound fails after it has preempted every resident (stage-two
/// rejection, with the estimate journals in play).
SystemModel rejected_grower_system(bool overload_machine) {
  return SystemModelBuilder(2)
      .uniform_bandwidth(8.0)
      .begin_string(10.0, 1000.0, Worth::kHigh, "r0")
      .add_app(1.0, 0.5, 10.0, "r0a")
      .add_app(1.0, 0.5, 0.0, "r0b")
      .begin_string(10.0, 1000.0, Worth::kMedium, "r1")
      .add_app(1.0, 0.5, 0.0, "r1a")
      .begin_string(10.0, 1000.0, Worth::kLow, "r2")
      .add_app(1.0, 0.5, 0.0, "r2a")
      .begin_string(10.0, overload_machine ? 1000.0 : 0.5, Worth::kHigh, "grow")
      .add_app(overload_machine ? 10.0 : 1.0, 1.0, 20.0, "g0")
      .add_app(1.0, 0.5, 30.0, "g1")
      .add_app(1.0, 0.5, 0.0, "g2")
      .build();
}

TEST(Session, RejectedCommitThatMovesASlabRestoresEveryObservable) {
  for (const bool overload_machine : {true, false}) {
    SCOPED_TRACE(overload_machine ? "stage one" : "stage two");
    const SystemModel m = rejected_grower_system(overload_machine);
    AllocationSession session(m);
    ASSERT_TRUE(session.try_commit(0, {0, 1}));
    ASSERT_TRUE(session.try_commit(1, {0}));
    ASSERT_TRUE(session.try_commit(2, {0}));
    ASSERT_EQ(session.util().apps_on(0).size(), 3u);
    SessionSnapshot snap;
    session.snapshot_into(snap);
    AllocationSession before(m);
    before.restore_from(snap);
    const std::size_t bytes_before = session.util().state_bytes();

    const double machine0_after = session.util().machine_util(0) +
                                  session.util().machine_delta(3, 0, 0) +
                                  session.util().machine_delta(3, 1, 0);
    EXPECT_EQ(machine0_after > 1.0, overload_machine);
    EXPECT_FALSE(session.try_commit(3, {0, 0, 1}));
    EXPECT_FALSE(session.allocation().deployed(3));
    // The grown slab stays where it moved to; nothing observable changed.
    EXPECT_GT(session.util().state_bytes(), bytes_before);
    expect_states_identical(session, before, m);
  }
}

TEST(Session, SessionResultMatchesBatchFeasibility) {
  const SystemModel m = testing::two_machine_system();
  AllocationSession session(m);
  ASSERT_TRUE(session.try_commit(0, {0, 1}));
  ASSERT_TRUE(session.try_commit(1, {1, 0}));
  const auto report = check_feasibility(m, session.allocation());
  EXPECT_TRUE(report.feasible());
}

}  // namespace
}  // namespace tsce::analysis
