#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/rng.hpp"

namespace tsce::lp {
namespace {

/// Verifies x satisfies every row and bound of the problem within tolerance.
void expect_primal_feasible(const LpProblem& p, const std::vector<double>& x,
                            double tol = 1e-6) {
  ASSERT_EQ(x.size(), p.num_variables());
  for (std::size_t v = 0; v < x.size(); ++v) {
    EXPECT_GE(x[v], p.lower(static_cast<std::int32_t>(v)) - tol) << "var " << v;
    EXPECT_LE(x[v], p.upper(static_cast<std::int32_t>(v)) + tol) << "var " << v;
  }
  std::vector<double> activity(p.num_rows(), 0.0);
  for (const auto& t : p.triplets()) {
    activity[static_cast<std::size_t>(t.row)] += t.value * x[static_cast<std::size_t>(t.col)];
  }
  for (std::size_t r = 0; r < p.num_rows(); ++r) {
    const double rhs = p.rhs(static_cast<std::int32_t>(r));
    switch (p.relation(static_cast<std::int32_t>(r))) {
      case Relation::kLessEqual:
        EXPECT_LE(activity[r], rhs + tol) << "row " << r;
        break;
      case Relation::kGreaterEqual:
        EXPECT_GE(activity[r], rhs - tol) << "row " << r;
        break;
      case Relation::kEqual:
        EXPECT_NEAR(activity[r], rhs, tol) << "row " << r;
        break;
    }
  }
}

TEST(Simplex, TwoVariableMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3, x,y >= 0.  Opt: (2,2) -> 10.
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 2.0, 3.0);
  const auto y = p.add_variable(0.0, 3.0, 2.0);
  const auto r = p.add_row(Relation::kLessEqual, 4.0);
  p.add_coefficient(r, x, 1.0);
  p.add_coefficient(r, y, 1.0);
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 10.0, 1e-8);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-8);
  expect_primal_feasible(p, sol.x);
}

TEST(Simplex, MinimizationWithGreaterEqualNeedsPhase1) {
  // min x + y s.t. x + y >= 2, x,y in [0,5].  Opt value 2.
  LpProblem p(Sense::kMinimize);
  const auto x = p.add_variable(0.0, 5.0, 1.0);
  const auto y = p.add_variable(0.0, 5.0, 1.0);
  const auto r = p.add_row(Relation::kGreaterEqual, 2.0);
  p.add_coefficient(r, x, 1.0);
  p.add_coefficient(r, y, 1.0);
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
  expect_primal_feasible(p, sol.x);
}

TEST(Simplex, EqualityRowNeedsPhase1) {
  // max x s.t. x + y = 3, x in [0,10], y in [0,1].  Opt: x=3, y=0.
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 10.0, 1.0);
  const auto y = p.add_variable(0.0, 1.0, 0.0);
  const auto r = p.add_row(Relation::kEqual, 3.0);
  p.add_coefficient(r, x, 1.0);
  p.add_coefficient(r, y, 1.0);
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-8);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-8);
  expect_primal_feasible(p, sol.x);
}

TEST(Simplex, NegativeRhsLessEqual) {
  // min x s.t. -x <= -2 (x >= 2), x in [0,10].  Opt 2; slack starts violated.
  LpProblem p(Sense::kMinimize);
  const auto x = p.add_variable(0.0, 10.0, 1.0);
  const auto r = p.add_row(Relation::kLessEqual, -2.0);
  p.add_coefficient(r, x, -1.0);
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  // x <= 1 and x >= 2 cannot both hold.
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 10.0, 1.0);
  const auto r1 = p.add_row(Relation::kLessEqual, 1.0);
  p.add_coefficient(r1, x, 1.0);
  const auto r2 = p.add_row(Relation::kGreaterEqual, 2.0);
  p.add_coefficient(r2, x, 1.0);
  const auto sol = solve(p);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

/// x + y >= 1.5 and x + y <= 1 over x, y in [0, 1]: phase 1 pivots once
/// before it proves infeasibility.
LpProblem infeasible_after_one_pivot() {
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 1.0, 1.0);
  const auto y = p.add_variable(0.0, 1.0, 1.0);
  const auto ge = p.add_row(Relation::kGreaterEqual, 1.5);
  p.add_coefficient(ge, x, 1.0);
  p.add_coefficient(ge, y, 1.0);
  const auto le = p.add_row(Relation::kLessEqual, 1.0);
  p.add_coefficient(le, x, 1.0);
  p.add_coefficient(le, y, 1.0);
  return p;
}

TEST(Simplex, InfeasibleSolveCountsItsPhase1Pivots) {
  const auto sol = solve(infeasible_after_one_pivot());
  ASSERT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_GT(sol.phase1_iterations, 0u);
  EXPECT_EQ(sol.iterations, sol.phase1_iterations);
  EXPECT_GT(sol.refactorisations, 0u);
}

TEST(Simplex, Phase1IterationLimitCountsItsPivots) {
  SimplexOptions options;
  options.max_iterations = 1;
  const auto sol = solve(infeasible_after_one_pivot(), options);
  ASSERT_EQ(sol.status, SolveStatus::kIterationLimit);
  EXPECT_EQ(sol.phase1_iterations, 1u);
  EXPECT_EQ(sol.iterations, 1u);
}

TEST(Simplex, DetectsUnboundedWithRow) {
  // max x s.t. y <= 1; x has no upper bound.
  LpProblem p(Sense::kMaximize);
  (void)p.add_variable(0.0, kInf, 1.0);
  const auto y = p.add_variable(0.0, kInf, 0.0);
  const auto r = p.add_row(Relation::kLessEqual, 1.0);
  p.add_coefficient(r, y, 1.0);
  const auto sol = solve(p);
  EXPECT_EQ(sol.status, SolveStatus::kUnbounded);
}

TEST(Simplex, RowFreeProblemSitsAtBounds) {
  LpProblem p(Sense::kMaximize);
  (void)p.add_variable(0.0, 3.0, 2.0);   // wants upper bound
  (void)p.add_variable(1.0, 5.0, -1.0);  // wants lower bound
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-12);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-12);
  EXPECT_NEAR(sol.objective, 5.0, 1e-12);
}

TEST(Simplex, RowFreeUnbounded) {
  LpProblem p(Sense::kMaximize);
  (void)p.add_variable(0.0, kInf, 1.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, BoundFlipPath) {
  // max x + y s.t. x + 2y <= 4 with x,y in [0,1]: both at upper bound.
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 1.0, 1.0);
  const auto y = p.add_variable(0.0, 1.0, 1.0);
  const auto r = p.add_row(Relation::kLessEqual, 4.0);
  p.add_coefficient(r, x, 1.0);
  p.add_coefficient(r, y, 2.0);
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-8);
}

TEST(Simplex, DegenerateVertexStillTerminates) {
  // Redundant constraints create degeneracy at the optimum (2,2).
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, kInf, 1.0);
  const auto y = p.add_variable(0.0, kInf, 1.0);
  for (const auto& [cx, cy, b] :
       {std::tuple{1.0, 1.0, 4.0}, {1.0, 0.0, 2.0}, {0.0, 1.0, 2.0},
        {2.0, 2.0, 8.0}}) {
    const auto r = p.add_row(Relation::kLessEqual, b);
    p.add_coefficient(r, x, cx);
    p.add_coefficient(r, y, cy);
  }
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0, 1e-8);
}

TEST(Simplex, TransportationEqualityProblem) {
  // Two sources (supply 1 each), two sinks (demand 1 each); cost matrix
  // [[1, 3], [4, 1]]: optimum ships on the diagonal, cost 2.
  LpProblem p(Sense::kMinimize);
  std::int32_t v[2][2];
  const double cost[2][2] = {{1.0, 3.0}, {4.0, 1.0}};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) v[i][j] = p.add_variable(0.0, kInf, cost[i][j]);
  }
  for (int i = 0; i < 2; ++i) {
    const auto r = p.add_row(Relation::kEqual, 1.0);
    for (int j = 0; j < 2; ++j) p.add_coefficient(r, v[i][j], 1.0);
  }
  for (int j = 0; j < 2; ++j) {
    const auto r = p.add_row(Relation::kEqual, 1.0);
    for (int i = 0; i < 2; ++i) p.add_coefficient(r, v[i][j], 1.0);
  }
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
  expect_primal_feasible(p, sol.x);
}

/// Fractional knapsack LPs have a closed-form greedy optimum: fill items by
/// value density until the capacity is exhausted.  This gives an exact
/// independent cross-check of the solver on a family of random instances.
class KnapsackLp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackLp, MatchesGreedyOptimum) {
  util::Rng rng(GetParam());
  const int n = static_cast<int>(rng.uniform_int(3, 12));
  std::vector<double> value(n), weight(n);
  for (int i = 0; i < n; ++i) {
    value[i] = rng.uniform(1.0, 10.0);
    weight[i] = rng.uniform(1.0, 5.0);
  }
  const double capacity =
      rng.uniform(0.2, 0.8) * std::accumulate(weight.begin(), weight.end(), 0.0);

  LpProblem p(Sense::kMaximize);
  for (int i = 0; i < n; ++i) (void)p.add_variable(0.0, 1.0, value[i]);
  const auto r = p.add_row(Relation::kLessEqual, capacity);
  for (int i = 0; i < n; ++i) p.add_coefficient(r, i, weight[i]);
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);

  // Greedy by density.
  std::vector<int> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](int a, int b) {
    return value[a] / weight[a] > value[b] / weight[b];
  });
  double remaining = capacity;
  double greedy = 0.0;
  for (const int i : idx) {
    const double take = std::min(1.0, remaining / weight[i]);
    greedy += take * value[i];
    remaining -= take * weight[i];
    if (remaining <= 0) break;
  }
  EXPECT_NEAR(sol.objective, greedy, 1e-6);
  expect_primal_feasible(p, sol.x);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, KnapsackLp,
                         ::testing::Range<std::uint64_t>(1, 21));

/// Assignment problems are totally unimodular: the LP optimum equals the best
/// permutation, which brute force can enumerate for small n.  This exercises
/// the equality-row phase-1 path and degenerate pivots under random data.
class AssignmentLp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AssignmentLp, MatchesBruteForcePermutationOptimum) {
  util::Rng rng(GetParam());
  const int n = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (auto& c : row) c = rng.uniform(0.0, 10.0);
  }

  LpProblem p(Sense::kMinimize);
  std::vector<std::vector<std::int32_t>> v(n, std::vector<std::int32_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) v[i][j] = p.add_variable(0.0, 1.0, cost[i][j]);
  }
  for (int i = 0; i < n; ++i) {
    const auto r = p.add_row(Relation::kEqual, 1.0);
    for (int j = 0; j < n; ++j) p.add_coefficient(r, v[i][j], 1.0);
  }
  for (int j = 0; j < n; ++j) {
    const auto r = p.add_row(Relation::kEqual, 1.0);
    for (int i = 0; i < n; ++i) p.add_coefficient(r, v[i][j], 1.0);
  }
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  expect_primal_feasible(p, sol.x);

  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += cost[i][static_cast<std::size_t>(perm[i])];
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_NEAR(sol.objective, best, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, AssignmentLp,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(Simplex, MaximizationWithMixedRowTypes) {
  // max 2x + y s.t. x + y = 3, x - y <= 1, x >= 0.5 (as >= row), x,y in [0,3].
  // From x + y = 3 and x - y <= 1: x <= 2; optimum x=2, y=1 -> 5.
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 3.0, 2.0);
  const auto y = p.add_variable(0.0, 3.0, 1.0);
  const auto r1 = p.add_row(Relation::kEqual, 3.0);
  p.add_coefficient(r1, x, 1.0);
  p.add_coefficient(r1, y, 1.0);
  const auto r2 = p.add_row(Relation::kLessEqual, 1.0);
  p.add_coefficient(r2, x, 1.0);
  p.add_coefficient(r2, y, -1.0);
  const auto r3 = p.add_row(Relation::kGreaterEqual, 0.5);
  p.add_coefficient(r3, x, 1.0);
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 5.0, 1e-8);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 1.0, 1e-8);
}

TEST(Simplex, FixedVariablesAreRespected) {
  // y fixed at 2 through identical bounds; max x + y with x + y <= 5.
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, kInf, 1.0);
  const auto y = p.add_variable(2.0, 2.0, 1.0);
  const auto r = p.add_row(Relation::kLessEqual, 5.0);
  p.add_coefficient(r, x, 1.0);
  p.add_coefficient(r, y, 1.0);
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-10);
  EXPECT_NEAR(sol.objective, 5.0, 1e-8);
}

TEST(Simplex, RowDualsMatchKnownShadowPrices) {
  // max 3x + 2y s.t. x + y <= 4 (binding), x <= 2 (var bound), y in [0,3].
  // At (2,2) the row dual is 2: one more unit of rhs lets y grow by 1.
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 2.0, 3.0);
  const auto y = p.add_variable(0.0, 3.0, 2.0);
  const auto r = p.add_row(Relation::kLessEqual, 4.0);
  p.add_coefficient(r, x, 1.0);
  p.add_coefficient(r, y, 1.0);
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  ASSERT_EQ(sol.row_duals.size(), 1u);
  EXPECT_NEAR(sol.row_duals[0], 2.0, 1e-8);
}

TEST(Simplex, NonBindingRowHasZeroDual) {
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 1.0, 1.0);
  const auto r = p.add_row(Relation::kLessEqual, 100.0);  // slack stays basic
  p.add_coefficient(r, x, 1.0);
  const auto sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.row_duals[0], 0.0, 1e-10);
}

TEST(Simplex, DualsPredictObjectiveChange) {
  // Finite-difference check: perturb the rhs of the binding knapsack row and
  // compare against the dual's prediction.
  LpProblem base(Sense::kMaximize);
  const double value[3] = {6.0, 5.0, 1.0};
  const double weight[3] = {2.0, 3.0, 1.0};
  for (int i = 0; i < 3; ++i) (void)base.add_variable(0.0, 1.0, value[i]);
  const auto r = base.add_row(Relation::kLessEqual, 3.5);
  for (int i = 0; i < 3; ++i) base.add_coefficient(r, i, weight[i]);
  const auto sol = solve(base);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);

  LpProblem bumped(Sense::kMaximize);
  for (int i = 0; i < 3; ++i) (void)bumped.add_variable(0.0, 1.0, value[i]);
  const auto r2 = bumped.add_row(Relation::kLessEqual, 3.5 + 0.25);
  for (int i = 0; i < 3; ++i) bumped.add_coefficient(r2, i, weight[i]);
  const auto bumped_sol = solve(bumped);
  ASSERT_EQ(bumped_sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(bumped_sol.objective - sol.objective, sol.row_duals[0] * 0.25, 1e-7);
}

TEST(Simplex, StatusToString) {
  EXPECT_STREQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
}

TEST(Simplex, IterationLimitReported) {
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 2.0, 3.0);
  const auto y = p.add_variable(0.0, 3.0, 2.0);
  const auto r = p.add_row(Relation::kLessEqual, 4.0);
  p.add_coefficient(r, x, 1.0);
  p.add_coefficient(r, y, 1.0);
  SimplexOptions options;
  options.max_iterations = 1;
  const auto sol = solve(p, options);
  // Either it finished in one iteration or hit the cap; both are acceptable,
  // but the status must be truthful.
  if (sol.status == SolveStatus::kOptimal) {
    EXPECT_LE(sol.iterations, 1u);
  } else {
    EXPECT_EQ(sol.status, SolveStatus::kIterationLimit);
  }
}

}  // namespace
}  // namespace tsce::lp
