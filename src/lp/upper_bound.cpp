#include "lp/upper_bound.hpp"

#include <cassert>

namespace tsce::lp {

using model::SystemModel;

namespace {

/// Variable index bookkeeping for the fractional-mapping LP.
class UbIndexer {
 public:
  explicit UbIndexer(const SystemModel& model) : m_(model.num_machines()) {
    x_base_.reserve(model.num_strings());
    y_base_.reserve(model.num_strings());
    std::int32_t next = 0;
    for (const auto& s : model.strings) {
      x_base_.push_back(next);
      next += static_cast<std::int32_t>(s.size() * m_);
      y_base_.push_back(next);
      next += static_cast<std::int32_t>(s.edges.size() * m_ * m_);
    }
    total_ = next;
  }

  [[nodiscard]] std::int32_t x(std::size_t k, std::size_t i, std::size_t j) const noexcept {
    return x_base_[k] + static_cast<std::int32_t>(i * m_ + j);
  }
  [[nodiscard]] std::int32_t y(std::size_t k, std::size_t e, std::size_t j1,
                               std::size_t j2) const noexcept {
    return y_base_[k] + static_cast<std::int32_t>(e * m_ * m_ + j1 * m_ + j2);
  }
  [[nodiscard]] std::int32_t count() const noexcept { return total_; }

 private:
  std::size_t m_;
  std::vector<std::int32_t> x_base_;
  std::vector<std::int32_t> y_base_;
  std::int32_t total_ = 0;
};

}  // namespace

std::size_t upper_bound_route_rows(const SystemModel& model) {
  const std::size_t m = model.num_machines();
  for (const auto& s : model.strings) {
    if (!s.edges.empty()) return m * (m - 1);
  }
  return 0;
}

void build_upper_bound_lp_into(LpProblem& problem, const SystemModel& model,
                               bool complete, UbObjective objective) {
  const std::size_t m = model.num_machines();
  const std::size_t q = model.num_strings();
  const UbIndexer idx(model);

  problem.clear(Sense::kMaximize);
  std::int32_t lambda = -1;  // slackness variable, complete mode only

  // Variables: all fractions in [0,1], with the objective coefficients
  // attached at creation.  Layout must match UbIndexer (asserted below).
  for (std::size_t k = 0; k < q; ++k) {
    const auto& s = model.strings[k];
    const double worth = s.worth_factor();
    for (std::size_t i = 0; i < s.size(); ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        double cost = 0.0;
        if (!complete) {
          if (objective == UbObjective::kPaperLiteral) {
            cost = worth;
          } else if (i == 0) {
            // f_k = sum_j x[0,k,j]; worth accrues once per string.
            cost = worth;
          }
        }
        const std::int32_t v = problem.add_variable(0.0, 1.0, cost);
        assert(v == idx.x(k, i, j));
        (void)v;
      }
    }
    for (std::size_t e = 0; e < s.edges.size(); ++e) {
      for (std::size_t j1 = 0; j1 < m; ++j1) {
        for (std::size_t j2 = 0; j2 < m; ++j2) {
          const std::int32_t v = problem.add_variable(0.0, 1.0, 0.0);
          assert(v == idx.y(k, e, j1, j2));
          (void)v;
        }
      }
    }
  }
  if (complete) {
    lambda = problem.add_variable(0.0, 1.0, 1.0);  // maximize slackness
  }

  // (a) deployment fraction of each string, via its first application.
  for (std::size_t k = 0; k < q; ++k) {
    const std::int32_t row =
        problem.add_row(complete ? Relation::kEqual : Relation::kLessEqual, 1.0);
    for (std::size_t j = 0; j < m; ++j) {
      problem.add_coefficient(row, idx.x(k, 0, j), 1.0);
    }
  }

  // (b) equal fractions along each string.
  for (std::size_t k = 0; k < q; ++k) {
    const auto& s = model.strings[k];
    for (std::size_t i = 1; i < s.size(); ++i) {
      const std::int32_t row = problem.add_row(Relation::kEqual, 0.0);
      for (std::size_t j = 0; j < m; ++j) {
        problem.add_coefficient(row, idx.x(k, i, j), 1.0);
        problem.add_coefficient(row, idx.x(k, 0, j), -1.0);
      }
    }
  }

  // Per edge e = (a -> b):
  // (d) the sender's fraction on j1 emits the same fraction of the edge's
  //     output: sum_{j2} y[e,k,j1,j2] = x[a,k,j1].
  // (e) and the receiver's fraction on j2 receives it:
  //     sum_{j1} y[e,k,j1,j2] = x[b,k,j2].
  for (std::size_t k = 0; k < q; ++k) {
    const auto& s = model.strings[k];
    for (std::size_t e = 0; e < s.edges.size(); ++e) {
      const auto from = static_cast<std::size_t>(s.edges[e].from);
      const auto to = static_cast<std::size_t>(s.edges[e].to);
      for (std::size_t j1 = 0; j1 < m; ++j1) {
        const std::int32_t row = problem.add_row(Relation::kEqual, 0.0);
        for (std::size_t j2 = 0; j2 < m; ++j2) {
          problem.add_coefficient(row, idx.y(k, e, j1, j2), 1.0);
        }
        problem.add_coefficient(row, idx.x(k, from, j1), -1.0);
      }
      for (std::size_t j2 = 0; j2 < m; ++j2) {
        const std::int32_t row = problem.add_row(Relation::kEqual, 0.0);
        for (std::size_t j1 = 0; j1 < m; ++j1) {
          problem.add_coefficient(row, idx.y(k, e, j1, j2), 1.0);
        }
        problem.add_coefficient(row, idx.x(k, to, j2), -1.0);
      }
    }
  }

  // (f) machine capacity: sum of per-app utilization contributions <= 1
  //     (<= 1 - lambda in complete mode).
  for (std::size_t j = 0; j < m; ++j) {
    const std::int32_t row = problem.add_row(Relation::kLessEqual, 1.0);
    for (std::size_t k = 0; k < q; ++k) {
      const auto& s = model.strings[k];
      for (std::size_t i = 0; i < s.size(); ++i) {
        const double coeff = s.apps[i].cpu_work(j) / s.period_s;
        problem.add_coefficient(row, idx.x(k, i, j), coeff);
      }
    }
    if (complete) problem.add_coefficient(row, lambda, 1.0);
  }

  // (g) route capacity.  Without any inter-app edge there are no y variables
  // and every route row would be empty (or carry only the redundant
  // lambda <= 1, already enforced by lambda's bounds) — skip the whole
  // M(M-1) block.  Fleet-scale single-app workloads (the TDM-client shape)
  // are exactly this case.
  if (upper_bound_route_rows(model) > 0) {
    for (std::size_t j1 = 0; j1 < m; ++j1) {
      for (std::size_t j2 = 0; j2 < m; ++j2) {
        if (j1 == j2) continue;  // infinite intra-machine bandwidth
        const std::int32_t row = problem.add_row(Relation::kLessEqual, 1.0);
        const double w = model.network.bandwidth_mbps(static_cast<model::MachineId>(j1),
                                                      static_cast<model::MachineId>(j2));
        for (std::size_t k = 0; k < q; ++k) {
          const auto& s = model.strings[k];
          for (std::size_t e = 0; e < s.edges.size(); ++e) {
            const double coeff =
                model::kbytes_to_megabits(s.edges[e].kbytes) / s.period_s / w;
            problem.add_coefficient(row, idx.y(k, e, j1, j2), coeff);
          }
        }
        if (complete) problem.add_coefficient(row, lambda, 1.0);
      }
    }
  }
}

LpProblem build_upper_bound_lp(const SystemModel& model, bool complete,
                               UbObjective objective) {
  LpProblem problem(Sense::kMaximize);
  build_upper_bound_lp_into(problem, model, complete, objective);
  return problem;
}

namespace {

UpperBoundResult extract_result(const LpProblem& problem,
                                const LpSolution& solution,
                                const SystemModel& model, bool complete) {
  UpperBoundResult result;
  result.status = solution.status;
  result.lp_rows = problem.num_rows();
  result.lp_cols = problem.num_variables();
  result.iterations = solution.iterations;
  result.refactorisations = solution.refactorisations;
  if (solution.status != SolveStatus::kOptimal) return result;

  // Rows were appended in the order (a), (b), (d)/(e), (f), (g): the machine
  // capacity rows start right before the M + route_rows tail (route_rows is
  // zero when the (g) block was omitted — see build_upper_bound_lp).
  {
    const std::size_t m = model.num_machines();
    const std::size_t route_rows = upper_bound_route_rows(model);
    const std::size_t machine_rows_start = problem.num_rows() - m - route_rows;
    result.machine_shadow_price.assign(m, 0.0);
    result.route_shadow_price.assign(m * m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      result.machine_shadow_price[j] = solution.row_duals[machine_rows_start + j];
    }
    if (route_rows > 0) {
      std::size_t row = machine_rows_start + m;
      for (std::size_t j1 = 0; j1 < m; ++j1) {
        for (std::size_t j2 = 0; j2 < m; ++j2) {
          if (j1 == j2) continue;
          result.route_shadow_price[j1 * m + j2] = solution.row_duals[row++];
        }
      }
    }
  }

  if (complete) {
    // Objective is lambda itself.
    result.value = solution.objective;
  } else {
    // Report total worth as sum I[k] * f_k regardless of the LP objective so
    // the number is comparable with the heuristics.
    const UbIndexer idx(model);
    const std::size_t m = model.num_machines();
    result.string_fractions.resize(model.num_strings(), 0.0);
    double worth = 0.0;
    for (std::size_t k = 0; k < model.num_strings(); ++k) {
      double f = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        f += solution.x[static_cast<std::size_t>(idx.x(k, 0, j))];
      }
      result.string_fractions[k] = f;
      worth += model.strings[k].worth_factor() * f;
    }
    result.value = worth;
  }
  return result;
}

/// Build -> solve -> extract: the one path every upper-bound entry point
/// takes.  \p problem is cleared and reassembled, keeping its capacity.
UpperBoundResult solve_upper_bound(LpProblem& problem, const SystemModel& model,
                                   bool complete, const UpperBoundOptions& options) {
  build_upper_bound_lp_into(problem, model, complete, options.objective);
  const LpSolution solution = solve(problem, options.simplex);
  return extract_result(problem, solution, model, complete);
}

}  // namespace

UpperBoundResult upper_bound_worth(const SystemModel& model,
                                   UpperBoundOptions options) {
  LpProblem problem(Sense::kMaximize);
  return solve_upper_bound(problem, model, /*complete=*/false, options);
}

UpperBoundResult upper_bound_slackness(const SystemModel& model,
                                       UpperBoundOptions options) {
  LpProblem problem(Sense::kMaximize);
  return solve_upper_bound(problem, model, /*complete=*/true, options);
}

UpperBoundResult UpperBoundSolver::worth(const SystemModel& model) {
  return solve_upper_bound(problem_, model, /*complete=*/false, options_);
}

UpperBoundResult UpperBoundSolver::slackness(const SystemModel& model) {
  return solve_upper_bound(problem_, model, /*complete=*/true, options_);
}

}  // namespace tsce::lp
