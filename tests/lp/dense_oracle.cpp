#include "lp/dense_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tsce::lp {
namespace {

/// Tolerances, equal to the library engine's.
constexpr double kOptimalityTol = 1e-7;
constexpr double kPivotTol = 1e-9;
constexpr double kFeasibilityTol = 1e-7;
constexpr std::size_t kDegeneracyLimit = 200;

enum class VarStatus : std::uint8_t { kBasic, kAtLower, kAtUpper };

/// Computational form: structural columns, then one slack per row, then
/// (during phase 1) artificials.  The basis inverse is explicit, row-major.
class DenseSolver {
 public:
  explicit DenseSolver(const LpProblem& problem)
      : m_(problem.num_rows()), n_struct_(problem.num_variables()) {
    const std::size_t n_total = n_struct_ + m_;
    lower_.reserve(n_total);
    upper_.reserve(n_total);
    cost_.reserve(n_total);
    for (std::size_t v = 0; v < n_struct_; ++v) {
      lower_.push_back(problem.lower(static_cast<std::int32_t>(v)));
      upper_.push_back(problem.upper(static_cast<std::int32_t>(v)));
      const double c = problem.cost(static_cast<std::int32_t>(v));
      cost_.push_back(problem.sense() == Sense::kMaximize ? -c : c);
    }
    rhs_.resize(m_);
    for (std::size_t r = 0; r < m_; ++r) {
      rhs_[r] = problem.rhs(static_cast<std::int32_t>(r));
      switch (problem.relation(static_cast<std::int32_t>(r))) {
        case Relation::kLessEqual:
          lower_.push_back(0.0);
          upper_.push_back(kInf);
          break;
        case Relation::kGreaterEqual:
          lower_.push_back(-kInf);
          upper_.push_back(0.0);
          break;
        case Relation::kEqual:
          lower_.push_back(0.0);
          upper_.push_back(0.0);
          break;
      }
      cost_.push_back(0.0);
    }

    // Assemble A = [structural | I] in CSC.
    std::vector<Triplet> triplets = problem.triplets();
    triplets.reserve(triplets.size() + m_);
    for (std::size_t r = 0; r < m_; ++r) {
      triplets.push_back({static_cast<std::int32_t>(r),
                          static_cast<std::int32_t>(n_struct_ + r), 1.0});
    }
    a_ = CscMatrix::from_triplets(m_, n_total, triplets);
  }

  LpSolution run(Sense sense) {
    LpSolution solution;
    if (m_ == 0) return bound_only(sense);

    initialize_basis();
    max_iterations_ = 50 * (m_ + a_.cols) + 10000;

    if (needs_phase1()) {
      const auto installed = build_artificials();
      // The basis matrix became diag(±1); keep the explicit inverse exact.
      for (const auto& rs : installed) binv_[rs.first * m_ + rs.first] = rs.second;
      compute_basic_values();
      const SolveStatus phase1 = iterate();
      solution.phase1_iterations = iterations_;
      if (phase1 == SolveStatus::kIterationLimit) {
        solution.status = phase1;
        return solution;
      }
      if (phase1_objective() > 1e-6) {
        solution.status = SolveStatus::kInfeasible;
        return solution;
      }
      seal_artificials();
    }

    const SolveStatus status = iterate();
    solution.status = status;
    solution.iterations = iterations_;
    solution.x = extract_structurals();
    solution.objective = objective_of(solution.x, sense);
    if (status == SolveStatus::kOptimal) {
      solution.row_duals = extract_row_duals(sense);
    }
    return solution;
  }

 private:
  static double finite_or(double v, double fallback) noexcept {
    return std::isfinite(v) ? v : fallback;
  }

  /// Nonbasic resting value of variable j.
  [[nodiscard]] double nonbasic_value(std::size_t j) const noexcept {
    if (vstat_[j] == VarStatus::kAtUpper) return finite_or(upper_[j], 0.0);
    return finite_or(lower_[j], 0.0);
  }

  /// Rowless problem: each variable sits at its cheaper bound.
  [[nodiscard]] LpSolution bound_only(Sense sense) const {
    LpSolution solution;
    solution.status = SolveStatus::kOptimal;
    solution.x.resize(n_struct_);
    for (std::size_t v = 0; v < n_struct_; ++v) {
      solution.x[v] = cost_[v] >= 0 ? finite_or(lower_[v], 0.0)
                                    : finite_or(upper_[v], 0.0);
      if (cost_[v] < 0 && upper_[v] == kInf) {
        solution.status = SolveStatus::kUnbounded;
        return solution;
      }
    }
    solution.objective = objective_of(solution.x, sense);
    return solution;
  }

  /// Default nonbasic statuses, the all-slack basis, B^-1 = I.
  void initialize_basis() {
    const std::size_t n_total = a_.cols;
    vstat_.assign(n_total, VarStatus::kAtLower);
    for (std::size_t j = 0; j < n_total; ++j) {
      if (!std::isfinite(lower_[j]) && std::isfinite(upper_[j])) {
        vstat_[j] = VarStatus::kAtUpper;
      }
    }
    basis_.resize(m_);
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t slack = n_struct_ + r;
      basis_[r] = static_cast<std::int32_t>(slack);
      vstat_[slack] = VarStatus::kBasic;
    }
    binv_.assign(m_ * m_, 0.0);
    for (std::size_t r = 0; r < m_; ++r) binv_[r * m_ + r] = 1.0;
    compute_basic_values();
  }

  [[nodiscard]] bool needs_phase1() const noexcept {
    for (std::size_t i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basis_[i]);
      if (xb_[i] < lower_[b] - kFeasibilityTol ||
          xb_[i] > upper_[b] + kFeasibilityTol) {
        return true;
      }
    }
    return false;
  }

  /// For every bound-violating basic slack, clamp the slack to its nearest
  /// bound (making it nonbasic) and install an artificial column that absorbs
  /// the residual with a positive basic value.  Phase 1 minimizes the sum of
  /// artificials.  Must run at the slack basis (the ±1 artificial column
  /// relies on row i of the tableau being row i of A).  Returns the
  /// (row, sign) of every installed artificial so the inverse can be patched.
  std::vector<std::pair<std::size_t, double>> build_artificials() {
    saved_cost_ = cost_;
    std::fill(cost_.begin(), cost_.end(), 0.0);

    std::vector<std::pair<std::size_t, double>> installed;
    std::vector<Triplet> extra;
    for (std::size_t i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basis_[i]);
      double violation = 0.0;
      if (xb_[i] < lower_[b] - kFeasibilityTol) {
        violation = xb_[i] - lower_[b];  // negative
      } else if (xb_[i] > upper_[b] + kFeasibilityTol) {
        violation = xb_[i] - upper_[b];  // positive
      } else {
        continue;
      }
      // Clamp the old basic variable to the violated bound.
      vstat_[b] = violation < 0.0 ? VarStatus::kAtLower : VarStatus::kAtUpper;
      const double sign = violation < 0.0 ? -1.0 : 1.0;
      const std::size_t art = lower_.size();
      lower_.push_back(0.0);
      upper_.push_back(kInf);
      cost_.push_back(1.0);
      saved_cost_.push_back(0.0);
      vstat_.push_back(VarStatus::kBasic);
      extra.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(art),
                       sign});
      basis_[i] = static_cast<std::int32_t>(art);
      installed.emplace_back(i, sign);
    }

    // Rebuild A with the artificial columns appended.
    std::vector<Triplet> triplets;
    triplets.reserve(a_.value.size() + extra.size());
    for (std::size_t c = 0; c < a_.cols; ++c) {
      for (std::int64_t p = a_.col_start[c]; p < a_.col_start[c + 1]; ++p) {
        triplets.push_back({a_.row_index[p], static_cast<std::int32_t>(c),
                            a_.value[p]});
      }
    }
    triplets.insert(triplets.end(), extra.begin(), extra.end());
    a_ = CscMatrix::from_triplets(m_, lower_.size(), triplets);
    return installed;
  }

  [[nodiscard]] double phase1_objective() const noexcept {
    double obj = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basis_[i]);
      obj += cost_[b] * xb_[i];
    }
    return obj;
  }

  /// Fixes artificials at zero and restores the real objective.
  void seal_artificials() {
    for (std::size_t j = n_struct_ + m_; j < lower_.size(); ++j) {
      upper_[j] = 0.0;
    }
    cost_ = saved_cost_;
  }

  [[nodiscard]] std::vector<double> extract_structurals() const {
    std::vector<double> x(n_struct_);
    for (std::size_t v = 0; v < n_struct_; ++v) {
      x[v] = vstat_[v] == VarStatus::kBasic ? 0.0 : nonbasic_value(v);
    }
    for (std::size_t i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basis_[i]);
      if (b < n_struct_) x[b] = xb_[i];
    }
    return x;
  }

  [[nodiscard]] double objective_of(const std::vector<double>& x,
                                    Sense sense) const noexcept {
    // cost_ holds the minimize-sense coefficients; undo the negation so the
    // value is reported in the problem's own sense.
    double obj = 0.0;
    for (std::size_t v = 0; v < n_struct_; ++v) {
      obj += (sense == Sense::kMaximize ? -cost_[v] : cost_[v]) * x[v];
    }
    return obj;
  }

  /// xB = B^-1 (rhs - sum over nonbasic j of A_j * x_j).
  void compute_basic_values() {
    std::vector<double> residual = rhs_;
    for (std::size_t j = 0; j < a_.cols; ++j) {
      if (vstat_[j] == VarStatus::kBasic) continue;
      const double xj = nonbasic_value(j);
      if (xj == 0.0) continue;
      for (std::int64_t p = a_.col_start[j]; p < a_.col_start[j + 1]; ++p) {
        residual[static_cast<std::size_t>(a_.row_index[p])] -= a_.value[p] * xj;
      }
    }
    xb_.assign(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double* row = &binv_[i * m_];
      double acc = 0.0;
      for (std::size_t r = 0; r < m_; ++r) acc += row[r] * residual[r];
      xb_[i] = acc;
    }
  }

  SolveStatus iterate() {
    std::size_t degenerate_run = 0;
    std::vector<double> y(m_);
    std::vector<double> w(m_);
    for (; iterations_ < max_iterations_; ++iterations_) {
      const bool bland = degenerate_run >= kDegeneracyLimit;

      // y = cB^T B^-1 (skip zero-cost basics: most of them in phase 2).
      std::fill(y.begin(), y.end(), 0.0);
      for (std::size_t i = 0; i < m_; ++i) {
        const double cb = cost_[static_cast<std::size_t>(basis_[i])];
        if (cb == 0.0) continue;
        const double* row = &binv_[i * m_];
        for (std::size_t r = 0; r < m_; ++r) y[r] += cb * row[r];
      }

      // Pricing: entering column with the most attractive reduced cost.
      std::ptrdiff_t enter = -1;
      double best_score = kOptimalityTol;
      int enter_dir = 0;
      for (std::size_t j = 0; j < a_.cols; ++j) {
        if (vstat_[j] == VarStatus::kBasic) continue;
        if (lower_[j] == upper_[j]) continue;  // fixed variable
        double d = cost_[j];
        for (std::int64_t p = a_.col_start[j]; p < a_.col_start[j + 1]; ++p) {
          d -= y[static_cast<std::size_t>(a_.row_index[p])] * a_.value[p];
        }
        int dir = 0;
        double score = 0.0;
        if (vstat_[j] == VarStatus::kAtLower && d < -kOptimalityTol) {
          dir = +1;
          score = -d;
        } else if (vstat_[j] == VarStatus::kAtUpper && d > kOptimalityTol) {
          dir = -1;
          score = d;
        } else {
          continue;
        }
        if (bland) {  // first eligible index
          enter = static_cast<std::ptrdiff_t>(j);
          enter_dir = dir;
          break;
        }
        if (score > best_score) {
          best_score = score;
          enter = static_cast<std::ptrdiff_t>(j);
          enter_dir = dir;
        }
      }
      if (enter < 0) return SolveStatus::kOptimal;
      const auto j_enter = static_cast<std::size_t>(enter);
      const double sigma = enter_dir;

      // w = B^-1 A_j.
      std::fill(w.begin(), w.end(), 0.0);
      for (std::int64_t p = a_.col_start[j_enter]; p < a_.col_start[j_enter + 1];
           ++p) {
        const auto r = static_cast<std::size_t>(a_.row_index[p]);
        const double v = a_.value[p];
        for (std::size_t i = 0; i < m_; ++i) w[i] += binv_[i * m_ + r] * v;
      }

      // Ratio test.  Entering moves t >= 0 in direction sigma; basics change
      // as xB_i -= t * sigma * w_i.
      const double span = upper_[j_enter] - lower_[j_enter];
      double t_limit = span;  // bound flip
      std::ptrdiff_t leave_row = -1;
      double leave_pivot = 0.0;
      int leave_to_upper = 0;
      for (std::size_t i = 0; i < m_; ++i) {
        const double rate = sigma * w[i];
        if (std::abs(rate) <= kPivotTol) continue;
        const auto b = static_cast<std::size_t>(basis_[i]);
        double ratio;
        int hits_upper;
        if (rate > 0.0) {  // basic decreases toward its lower bound
          if (!std::isfinite(lower_[b])) continue;
          ratio = (xb_[i] - lower_[b]) / rate;
          hits_upper = 0;
        } else {  // basic increases toward its upper bound
          if (!std::isfinite(upper_[b])) continue;
          ratio = (xb_[i] - upper_[b]) / rate;
          hits_upper = 1;
        }
        if (ratio < 0.0) ratio = 0.0;  // bound already (numerically) tight
        if (ratio < t_limit - 1e-12) {
          t_limit = ratio;
          leave_row = static_cast<std::ptrdiff_t>(i);
          leave_pivot = w[i];
          leave_to_upper = hits_upper;
        } else if (ratio <= t_limit + 1e-12) {
          // Tie: prefer the larger pivot for numerical stability, or the
          // lowest variable index under Bland's anti-cycling rule.
          const bool prefer =
              leave_row < 0 ||
              (bland ? basis_[i] < basis_[static_cast<std::size_t>(leave_row)]
                     : std::abs(w[i]) > std::abs(leave_pivot));
          if (prefer) {
            t_limit = std::min(t_limit, ratio);
            leave_row = static_cast<std::ptrdiff_t>(i);
            leave_pivot = w[i];
            leave_to_upper = hits_upper;
          }
        }
      }

      if (!std::isfinite(t_limit)) return SolveStatus::kUnbounded;
      degenerate_run = t_limit <= kPivotTol ? degenerate_run + 1 : 0;

      if (leave_row < 0) {
        // Bound flip: the entering variable traverses its whole range.
        for (std::size_t i = 0; i < m_; ++i) xb_[i] -= t_limit * sigma * w[i];
        vstat_[j_enter] = vstat_[j_enter] == VarStatus::kAtLower
                              ? VarStatus::kAtUpper
                              : VarStatus::kAtLower;
        continue;
      }

      // Pivot: entering becomes basic in leave_row.
      const auto r = static_cast<std::size_t>(leave_row);
      const auto b_leave = static_cast<std::size_t>(basis_[r]);
      const double enter_start = nonbasic_value(j_enter);
      for (std::size_t i = 0; i < m_; ++i) xb_[i] -= t_limit * sigma * w[i];
      const double enter_value = enter_start + sigma * t_limit;

      vstat_[b_leave] = leave_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      vstat_[j_enter] = VarStatus::kBasic;
      basis_[r] = static_cast<std::int32_t>(j_enter);
      xb_[r] = enter_value;

      // Product-form update of B^-1: pivot row r on w_r.
      const double pivot = leave_pivot;
      double* row_r = &binv_[r * m_];
      const double inv_pivot = 1.0 / pivot;
      for (std::size_t cidx = 0; cidx < m_; ++cidx) row_r[cidx] *= inv_pivot;
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == r) continue;
        const double factor = w[i];
        if (factor == 0.0) continue;
        double* row_i = &binv_[i * m_];
        for (std::size_t cidx = 0; cidx < m_; ++cidx) {
          row_i[cidx] -= factor * row_r[cidx];
        }
      }
    }
    return SolveStatus::kIterationLimit;
  }

  /// y = cB^T B^-1 at the final basis, converted to the problem's own sense
  /// (duals of a maximize problem are the negated minimize-form duals).
  [[nodiscard]] std::vector<double> extract_row_duals(Sense sense) const {
    std::vector<double> y(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = cost_[static_cast<std::size_t>(basis_[i])];
      if (cb == 0.0) continue;
      const double* row = &binv_[i * m_];
      for (std::size_t r = 0; r < m_; ++r) y[r] += cb * row[r];
    }
    if (sense == Sense::kMaximize) {
      for (double& v : y) v = -v;
    }
    return y;
  }

  std::size_t m_;
  std::size_t n_struct_;
  CscMatrix a_;
  std::vector<double> lower_, upper_, cost_, saved_cost_;
  std::vector<double> rhs_;
  std::vector<std::int32_t> basis_;
  std::vector<VarStatus> vstat_;
  std::vector<double> xb_;
  std::vector<double> binv_;  // row-major m x m
  std::size_t iterations_ = 0;
  std::size_t max_iterations_ = 0;
};

}  // namespace

LpSolution dense_oracle_solve(const LpProblem& problem) {
  DenseSolver solver(problem);
  return solver.run(problem.sense());
}

}  // namespace tsce::lp
