// Pins the simplex pivot path bit for bit on four upper-bound LPs.  The
// values were recorded from the full-column Devex scan, before pricing
// moved to a maintained candidate set; any change to which column enters,
// which row leaves, or when the basis is refactorised moves the iteration or
// refactorisation counts, and any change to the arithmetic along the path
// moves the hexfloat objective or the digests of x and the row duals.
//
//   * WorthManyRefactors: a scenario-1 worth LP with dozens of
//     refactorisations;
//   * SlacknessWithPhase1: a scenario-3 slackness LP whose slack basis is
//     infeasible, so phase 1 runs;
//   * FleetSingleApp: the TDM-client shape (single-app strings, no route
//     rows), where columns outnumber rows 36 to 1;
//   * ReachesBlandsRule: a worth LP whose solve makes 200 consecutive
//     degenerate pivots and so prices with Bland's rule for a while.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "lp/upper_bound.hpp"
#include "workload/generator.hpp"

namespace tsce::lp {
namespace {

struct LpPin {
  workload::Scenario scenario;
  std::size_t machines;
  std::size_t strings;
  std::uint64_t seed;
  bool complete;
  bool single_app;
  // Expected:
  std::size_t rows;
  std::size_t cols;
  std::size_t iterations;
  std::size_t phase1_iterations;
  std::size_t refactorisations;
  double objective;
  std::uint64_t x_digest;
  std::uint64_t dual_digest;
};

/// FNV-1a over the raw bit patterns of \p v.
std::uint64_t digest(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double d : v) {
    const auto word = std::bit_cast<std::uint64_t>(d);
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

void expect_pinned(const LpPin& pin) {
  util::Rng rng(pin.seed);
  auto config = workload::GeneratorConfig::for_scenario(pin.scenario);
  config.num_machines = pin.machines;
  config.num_strings = pin.strings;
  if (pin.single_app) {
    config.min_apps_per_string = 1;
    config.max_apps_per_string = 1;
  }
  const model::SystemModel m = workload::generate(config, rng);
  const LpProblem problem =
      build_upper_bound_lp(m, pin.complete, UbObjective::kTotalWorth);
  ASSERT_EQ(problem.num_rows(), pin.rows);
  ASSERT_EQ(problem.num_variables(), pin.cols);

  const LpSolution s = solve(problem);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.iterations, pin.iterations);
  EXPECT_EQ(s.phase1_iterations, pin.phase1_iterations);
  EXPECT_EQ(s.refactorisations, pin.refactorisations);
  EXPECT_EQ(s.objective, pin.objective) << std::hexfloat << s.objective;
  EXPECT_EQ(digest(s.x), pin.x_digest) << std::hex << digest(s.x);
  EXPECT_EQ(digest(s.row_duals), pin.dual_digest) << std::hex << digest(s.row_duals);
}

TEST(LpPin, WorthManyRefactors) {
  expect_pinned({workload::Scenario::kHighlyLoaded, 6, 40, 1, false, false,
                 2221, 7170, 3423, 0, 55, 0x1.eb918cfbff1cep+9,
                 0xafe64562a9f200f9ULL, 0x4c14e8287bf0d6b7ULL});
}

TEST(LpPin, SlacknessWithPhase1) {
  expect_pinned({workload::Scenario::kLightlyLoaded, 8, 12, 1, true, false,
                 909, 3625, 1875, 886, 32, 0x1.83661a4c59ae8p-1,
                 0xd55a1bfe7e4dc0bdULL, 0x5c52d7e4cfbd9261ULL});
}

TEST(LpPin, FleetSingleApp) {
  expect_pinned({workload::Scenario::kHighlyLoaded, 40, 400, 1, false, true,
                 440, 16000, 754, 0, 13, 0x1.dd2p+13,
                 0x5d11a53b34ec7b30ULL, 0x288360d598148bcaULL});
}

TEST(LpPin, ReachesBlandsRule) {
  expect_pinned({workload::Scenario::kHighlyLoaded, 4, 20, 4, false, false,
                 864, 1920, 1079, 0, 18, 0x1.1267a1f8a99a2p+9,
                 0x2eb9fb706c639a2cULL, 0x54585519dcee25e7ULL});
}

}  // namespace
}  // namespace tsce::lp
