#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/feasibility.hpp"
#include "analysis/metrics.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

/// Relative slack granted to an LP bound: the simplex works to 1e-7
/// feasibility, so an exact-arithmetic optimum may sit that far below.
constexpr double kBoundTolerance = 1e-6;
/// Largest slackness difference accepted between a search's incremental
/// fitness and the from-scratch recomputation.  The two sum per-resource
/// utilization in different orders (commit order vs string order), which
/// moves the last bits; anything above this is a real disagreement.
constexpr double kSlacknessDrift = 1e-12;

std::string fitness_text(const tsce::analysis::Fitness& f) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "(worth %d, slackness %.17g)", f.total_worth, f.slackness);
  return buf;
}

}  // namespace

void Gate::record(std::vector<std::string> problems) {
  ++attempted_;
  if (problems.empty()) return;
  ++failed_;
  for (std::string& p : problems) failures_.push_back(std::move(p));
}

void Gate::allocation(const tsce::model::SystemModel& model, std::string_view who,
                      const tsce::core::AllocatorResult& result) {
  std::vector<std::string> problems;
  const std::string name(who);
  if (result.allocation.num_strings() != model.num_strings()) {
    problems.push_back(name + ": allocation does not match the model's string count");
    record(std::move(problems));
    return;
  }
  const auto report = tsce::analysis::check_feasibility(model, result.allocation);
  if (!report.feasible()) {
    problems.push_back(name + ": allocation infeasible from scratch: " +
                       (report.violations.empty() ? std::string("unreported violation")
                                                  : report.violations.front().to_string()));
  }
  const tsce::analysis::Fitness recomputed = tsce::analysis::evaluate(model, result.allocation);
  if (!(recomputed == result.fitness)) {
    const double drift = std::abs(recomputed.slackness - result.fitness.slackness);
    if (recomputed.total_worth == result.fitness.total_worth && drift <= kSlacknessDrift) {
      ++inexact_;
      max_drift_ = std::max(max_drift_, drift);
    } else {
      problems.push_back(name + ": reported fitness " + fitness_text(result.fitness) +
                         " but recomputed " + fitness_text(recomputed));
    }
  }
  record(std::move(problems));
}

void Gate::bound(std::string_view who, tsce::lp::SolveStatus status, double bound,
                 std::span<const Claim> claims) {
  std::vector<std::string> problems;
  const std::string name(who);
  if (status != tsce::lp::SolveStatus::kOptimal) {
    problems.push_back(name + ": LP status " + tsce::lp::to_string(status));
  } else if (!std::isfinite(bound)) {
    problems.push_back(name + ": non-finite bound");
  } else {
    const double slack = kBoundTolerance * std::max(1.0, std::abs(bound));
    for (const Claim& c : claims) {
      if (bound + slack < c.value) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), ": bound %.17g below %s's %.17g", bound,
                      c.who.c_str(), c.value);
        problems.push_back(name + buf);
      }
    }
  }
  record(std::move(problems));
}

}  // namespace perfbench
