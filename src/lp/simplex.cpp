#include "lp/simplex.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "lp/sparse_lu.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace tsce::lp {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

namespace {

/// Dual feasibility (reduced cost) tolerance.
constexpr double kOptimalityTol = 1e-7;
/// Smallest acceptable pivot magnitude.
constexpr double kPivotTol = 1e-9;
/// Primal feasibility tolerance (bound violations).
constexpr double kFeasibilityTol = 1e-7;
/// Consecutive degenerate iterations before switching to Bland's rule.
constexpr std::size_t kDegeneracyLimit = 200;

/// Per-variable basis role in the computational form's column order.
enum class VarStatus : std::uint8_t { kBasic, kAtLower, kAtUpper };

/// Process-wide LP telemetry; handles resolved once (registry lookups are
/// name-hashed, the returned references are stable for the process).
struct LpMetrics {
  obs::Counter& iterations;
  obs::Counter& refactorisations;
  obs::Histogram& latency_ns;

  static LpMetrics& get() {
    static LpMetrics m{
        obs::MetricsRegistry::instance().counter(obs::names::kLpIterations),
        obs::MetricsRegistry::instance().counter(obs::names::kLpRefactorisations),
        obs::MetricsRegistry::instance().histogram(obs::names::kLpSolveLatencyNs)};
    return m;
  }
};

/// LU-factorised basis with product-form eta updates, sparse FTRAN/BTRAN,
/// and Devex pricing over incrementally maintained reduced costs and a
/// bitmap of the columns that can enter.  Per-iteration work scales with
/// factor/column nonzeros and the candidate count, not m² or n.
///
/// Computational form: structural columns, then one slack per row, then
/// (during phase 1) artificials.
class SparseSolver {
 public:
  SparseSolver(const LpProblem& problem, const SimplexOptions& options)
      : options_(options),
        m_(problem.num_rows()),
        n_struct_(problem.num_variables()) {
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

    max_iterations_ = options_.max_iterations != 0
                          ? options_.max_iterations
                          : 50 * (m_ + a_.cols) + 10000;
    w_.resize(m_);
    rho_.resize(m_);
    scratch_.resize(m_);
    build_csr();

    // Every exit reports the pivots and factorisations spent so far.
    const auto stop = [&](SolveStatus status) -> LpSolution& {
      solution.status = status;
      solution.iterations = iterations_;
      solution.refactorisations = refactor_count_;
      return solution;
    };
    if (!start_from_slack_basis()) return stop(SolveStatus::kIterationLimit);

    if (needs_phase1()) {
      build_artificials();
      const SolveStatus phase1 = iterate();
      solution.phase1_iterations = iterations_;
      if (phase1 == SolveStatus::kIterationLimit) return stop(phase1);
      if (phase1_objective() > 1e-6) return stop(SolveStatus::kInfeasible);
      seal_artificials();
      recompute_duals();  // same basis, new objective
      gamma_.assign(a_.cols, 1.0);
    }

    const SolveStatus status = iterate();
    stop(status);
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

  /// CSR mirror of a_ for pivot-row (BTRAN-side) products; rebuilt whenever
  /// the column set changes.  Iterating CSC columns in order leaves each row
  /// sorted by column index — deterministic scatter order.
  void build_csr() {
    ar_start_.assign(m_ + 1, 0);
    for (std::size_t p = 0; p < a_.row_index.size(); ++p) {
      ++ar_start_[static_cast<std::size_t>(a_.row_index[p]) + 1];
    }
    for (std::size_t r = 0; r < m_; ++r) ar_start_[r + 1] += ar_start_[r];
    ar_col_.resize(a_.row_index.size());
    ar_val_.resize(a_.row_index.size());
    std::vector<std::size_t> fill = ar_start_;
    for (std::size_t c = 0; c < a_.cols; ++c) {
      for (std::int64_t p = a_.col_start[c]; p < a_.col_start[c + 1]; ++p) {
        const auto r = static_cast<std::size_t>(a_.row_index[p]);
        ar_col_[fill[r]] = static_cast<std::int32_t>(c);
        ar_val_[fill[r]] = a_.value[p];
        ++fill[r];
      }
    }
  }

  [[nodiscard]] bool factorize() {
    ++refactor_count_;
    return lu_.factorize(a_, basis_, kPivotTol);
  }

  /// Full state rebuild at the current basis: fresh factors, exact basic
  /// values, exact reduced costs.
  [[nodiscard]] bool refactorize() {
    if (!factorize()) return false;
    compute_basic_values();
    recompute_duals();
    return true;
  }

  /// Default nonbasic statuses plus the all-slack basis, factorised.
  [[nodiscard]] bool start_from_slack_basis() {
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
    gamma_.assign(a_.cols, 1.0);
    return refactorize();
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
  /// artificials.  Runs at the slack basis (the ±1 artificial column relies
  /// on row i of the tableau being row i of A), then refactorises.
  void build_artificials() {
    saved_cost_ = cost_;
    std::fill(cost_.begin(), cost_.end(), 0.0);

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

    build_csr();
    gamma_.assign(a_.cols, 1.0);
    alpha_.assign(a_.cols, 0.0);
    // The artificial basis is diag(±1): factorisation cannot fail.
    const bool ok = refactorize();
    assert(ok && "artificial basis must factorize");
    (void)ok;
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

  /// xB = B^-1 (rhs - Σ nonbasic A_j x_j) via sparse FTRAN.
  void compute_basic_values() {
    scratch_.clear();
    for (std::size_t r = 0; r < m_; ++r) {
      if (rhs_[r] != 0.0) scratch_.add(static_cast<std::int32_t>(r), rhs_[r]);
    }
    for (std::size_t j = 0; j < a_.cols; ++j) {
      if (vstat_[j] == VarStatus::kBasic) continue;
      const double xj = nonbasic_value(j);
      if (xj == 0.0) continue;
      for (std::int64_t p = a_.col_start[j]; p < a_.col_start[j + 1]; ++p) {
        scratch_.add(a_.row_index[p], -a_.value[p] * xj);
      }
    }
    lu_.ftran(scratch_);
    xb_.assign(m_, 0.0);
    for (const std::int32_t i : scratch_.pattern) {
      xb_[static_cast<std::size_t>(i)] = scratch_.values[static_cast<std::size_t>(i)];
    }
    scratch_.clear();
  }

  /// True iff column j may enter the basis: nonbasic, not fixed, and its
  /// reduced cost improves the objective beyond the optimality tolerance.
  [[nodiscard]] bool can_enter(std::size_t j) const noexcept {
    if (vstat_[j] == VarStatus::kBasic || lower_[j] == upper_[j]) return false;
    return vstat_[j] == VarStatus::kAtLower ? d_[j] < -kOptimalityTol
                                            : d_[j] > kOptimalityTol;
  }

  /// Re-derives column j's candidate bit after its d_ or vstat_ changed.
  void update_candidate(std::size_t j) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (j % 64);
    if (can_enter(j)) {
      candidates_[j / 64] |= bit;
    } else {
      candidates_[j / 64] &= ~bit;
    }
  }

  /// Lowest-index candidate (Bland's rule), or -1.
  [[nodiscard]] std::ptrdiff_t first_candidate() const noexcept {
    for (std::size_t w = 0; w < candidates_.size(); ++w) {
      if (candidates_[w] != 0) {
        return static_cast<std::ptrdiff_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(candidates_[w])));
      }
    }
    return -1;
  }

  /// Devex: the candidate maximising d² / γ, or -1.  Candidates are visited
  /// in ascending index and only a strictly greater score wins, so the
  /// choice is the one a scan over every column would make.
  [[nodiscard]] std::ptrdiff_t devex_candidate() const noexcept {
    std::ptrdiff_t enter = -1;
    double best_score = 0.0;
    for (std::size_t w = 0; w < candidates_.size(); ++w) {
      for (std::uint64_t bits = candidates_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t j = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const double score = d_[j] * d_[j] / gamma_[j];
        if (score > best_score) {
          best_score = score;
          enter = static_cast<std::ptrdiff_t>(j);
        }
      }
    }
    return enter;
  }

  /// Exact reduced costs d_j = c_j - y^T a_j with y = B^-T c_B, and the
  /// candidate bitmap rebuilt from them.
  void recompute_duals() {
    scratch_.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = cost_[static_cast<std::size_t>(basis_[i])];
      if (cb != 0.0) scratch_.add(static_cast<std::int32_t>(i), cb);
    }
    lu_.btran(scratch_);
    d_.assign(a_.cols, 0.0);
    candidates_.assign((a_.cols + 63) / 64, 0);
    for (std::size_t j = 0; j < a_.cols; ++j) {
      if (vstat_[j] == VarStatus::kBasic) continue;
      double d = cost_[j];
      for (std::int64_t p = a_.col_start[j]; p < a_.col_start[j + 1]; ++p) {
        d -= scratch_.values[static_cast<std::size_t>(a_.row_index[p])] * a_.value[p];
      }
      d_[j] = d;
      update_candidate(j);
    }
    scratch_.clear();
    duals_fresh_ = true;
  }

  void clear_alpha() {
    for (const std::int32_t c : alpha_touched_) alpha_[static_cast<std::size_t>(c)] = 0.0;
    alpha_touched_.clear();
  }

  SolveStatus iterate() {
    std::size_t degenerate_run = 0;
    if (alpha_.size() != a_.cols) alpha_.assign(a_.cols, 0.0);
    while (iterations_ < max_iterations_) {
      if (lu_.eta_count() >= options_.refactor_interval) {
        if (!refactorize()) return SolveStatus::kIterationLimit;
      }
      const bool bland = degenerate_run >= kDegeneracyLimit;

      const std::ptrdiff_t enter = bland ? first_candidate() : devex_candidate();
      if (enter < 0) {
        // Incremental reduced costs may only declare optimality after an
        // exact reprice at the current basis.
        if (!duals_fresh_) {
          if (!refactorize()) return SolveStatus::kIterationLimit;
          continue;
        }
        return SolveStatus::kOptimal;
      }
      const auto j_enter = static_cast<std::size_t>(enter);
      const double sigma = vstat_[j_enter] == VarStatus::kAtLower ? 1.0 : -1.0;

      // FTRAN: w = B^-1 A_j, sparse in and out.
      w_.clear();
      for (std::int64_t p = a_.col_start[j_enter]; p < a_.col_start[j_enter + 1];
           ++p) {
        w_.add(a_.row_index[p], a_.value[p]);
      }
      lu_.ftran(w_);

      // Ratio test over the nonzero pattern only.
      const double span = upper_[j_enter] - lower_[j_enter];
      double t_limit = span;  // bound flip
      std::ptrdiff_t leave_row = -1;
      double leave_pivot = 0.0;
      int leave_to_upper = 0;
      for (const std::int32_t pi : w_.pattern) {
        const auto i = static_cast<std::size_t>(pi);
        const double wi = w_.values[i];
        const double rate = sigma * wi;
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
          leave_pivot = wi;
          leave_to_upper = hits_upper;
        } else if (ratio <= t_limit + 1e-12) {
          // Tie: prefer the larger pivot for numerical stability, or the
          // lowest variable index under Bland's anti-cycling rule.
          const bool prefer =
              leave_row < 0 ||
              (bland ? basis_[i] < basis_[static_cast<std::size_t>(leave_row)]
                     : std::abs(wi) > std::abs(leave_pivot));
          if (prefer) {
            t_limit = std::min(t_limit, ratio);
            leave_row = static_cast<std::ptrdiff_t>(i);
            leave_pivot = wi;
            leave_to_upper = hits_upper;
          }
        }
      }

      if (!std::isfinite(t_limit)) {
        // Certify unboundedness on a fresh factorisation — a long eta file
        // (or stale reduced costs) could fake an unbounded ray.
        if (lu_.eta_count() > 0 || !duals_fresh_) {
          if (!refactorize()) return SolveStatus::kIterationLimit;
          continue;
        }
        return SolveStatus::kUnbounded;
      }
      degenerate_run = t_limit <= kPivotTol ? degenerate_run + 1 : 0;

      if (leave_row < 0) {
        // Bound flip: basis unchanged, reduced costs stay valid.
        for (const std::int32_t pi : w_.pattern) {
          const auto i = static_cast<std::size_t>(pi);
          xb_[i] -= t_limit * sigma * w_.values[i];
        }
        vstat_[j_enter] = vstat_[j_enter] == VarStatus::kAtLower
                              ? VarStatus::kAtUpper
                              : VarStatus::kAtLower;
        update_candidate(j_enter);
        ++iterations_;
        continue;
      }

      const auto r = static_cast<std::size_t>(leave_row);
      const double wr = leave_pivot;

      // BTRAN pivot row: rho = B^-T e_r, then alpha_j = a_j^T rho scattered
      // through the CSR rows of rho's pattern.
      rho_.clear();
      rho_.add(static_cast<std::int32_t>(r), 1.0);
      lu_.btran(rho_);
      for (const std::int32_t pi : rho_.pattern) {
        const double yv = rho_.values[static_cast<std::size_t>(pi)];
        if (yv == 0.0) continue;
        const auto row = static_cast<std::size_t>(pi);
        for (std::size_t p = ar_start_[row]; p < ar_start_[row + 1]; ++p) {
          const auto c = static_cast<std::size_t>(ar_col_[p]);
          if (alpha_[c] == 0.0) alpha_touched_.push_back(ar_col_[p]);
          alpha_[c] += ar_val_[p] * yv;
        }
      }

      // Forrest-Tomlin-style drift watch: the pivot element is computed both
      // by FTRAN (w_r) and BTRAN (alpha_{j_enter}); disagreement beyond
      // drift_tol means the eta file has decayed — refactorise and redo the
      // iteration on exact data.  A fresh factorisation is accepted as is.
      const double alpha_q = alpha_[j_enter];
      if (std::abs(alpha_q - wr) > options_.drift_tol * (1.0 + std::abs(wr)) &&
          lu_.eta_count() > 0) {
        clear_alpha();
        if (!refactorize()) return SolveStatus::kIterationLimit;
        continue;
      }

      // Apply the pivot: entering becomes basic in row r.
      const auto b_leave = static_cast<std::size_t>(basis_[r]);
      const double enter_start = nonbasic_value(j_enter);
      for (const std::int32_t pi : w_.pattern) {
        const auto i = static_cast<std::size_t>(pi);
        xb_[i] -= t_limit * sigma * w_.values[i];
      }
      vstat_[b_leave] = leave_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      vstat_[j_enter] = VarStatus::kBasic;
      basis_[r] = static_cast<std::int32_t>(j_enter);
      xb_[r] = enter_start + sigma * t_limit;

      if (!lu_.push_eta(w_, r, kPivotTol)) {
        // Spike pivot below tolerance (the ratio test guards against this;
        // belt and braces): rebuild everything at the updated basis.
        clear_alpha();
        if (!refactorize()) return SolveStatus::kIterationLimit;
        ++iterations_;
        continue;
      }

      // Incremental reduced-cost and Devex-weight updates from the pivot
      // row.  Process-and-clear makes duplicate touched entries (an exact
      // cancellation later refilled) harmless: the second visit reads 0.
      const double d_enter = d_[j_enter];
      const double ratio_d = d_enter / wr;
      const double gamma_q = std::max(gamma_[j_enter], 1.0);
      const double wr2 = wr * wr;
      double gamma_max = 0.0;
      for (const std::int32_t ci : alpha_touched_) {
        const auto c = static_cast<std::size_t>(ci);
        const double av = alpha_[c];
        alpha_[c] = 0.0;
        if (av == 0.0) continue;
        if (vstat_[c] == VarStatus::kBasic) continue;
        d_[c] -= ratio_d * av;
        update_candidate(c);
        const double cand = gamma_q * (av * av) / wr2;
        if (cand > gamma_[c]) gamma_[c] = cand;
        if (gamma_[c] > gamma_max) gamma_max = gamma_[c];
      }
      alpha_touched_.clear();
      d_[b_leave] = -ratio_d;
      gamma_[b_leave] = std::max(gamma_q / wr2, 1.0);
      d_[j_enter] = 0.0;
      gamma_[j_enter] = 1.0;
      update_candidate(b_leave);
      update_candidate(j_enter);
      if (gamma_max > 1e10) gamma_.assign(a_.cols, 1.0);  // reset reference
      duals_fresh_ = false;
      ++iterations_;
    }
    return SolveStatus::kIterationLimit;
  }

  /// y = B^-T c_B at the final basis, in the problem's own sense.
  [[nodiscard]] std::vector<double> extract_row_duals(Sense sense) {
    scratch_.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = cost_[static_cast<std::size_t>(basis_[i])];
      if (cb != 0.0) scratch_.add(static_cast<std::int32_t>(i), cb);
    }
    lu_.btran(scratch_);
    std::vector<double> y(m_, 0.0);
    for (const std::int32_t i : scratch_.pattern) {
      y[static_cast<std::size_t>(i)] = scratch_.values[static_cast<std::size_t>(i)];
    }
    scratch_.clear();
    if (sense == Sense::kMaximize) {
      for (double& v : y) v = -v;
    }
    return y;
  }

  SimplexOptions options_;
  std::size_t m_;
  std::size_t n_struct_;
  CscMatrix a_;
  std::vector<double> lower_, upper_, cost_, saved_cost_;
  std::vector<double> rhs_;
  std::vector<std::int32_t> basis_;
  std::vector<VarStatus> vstat_;
  std::vector<double> xb_;
  std::size_t iterations_ = 0;
  std::size_t max_iterations_ = 0;

  BasisLu lu_;
  std::vector<std::size_t> ar_start_;  // CSR mirror of a_
  std::vector<std::int32_t> ar_col_;
  std::vector<double> ar_val_;
  std::vector<double> d_;      // reduced costs (0 for basics)
  std::vector<double> gamma_;  // Devex reference weights
  std::vector<std::uint64_t> candidates_;  // bit j set iff can_enter(j)
  std::vector<double> alpha_;  // pivot-row scatter scratch
  std::vector<std::int32_t> alpha_touched_;
  IndexedVector w_, rho_, scratch_;
  std::size_t refactor_count_ = 0;
  bool duals_fresh_ = false;
};

}  // namespace

LpSolution solve(const LpProblem& problem, SimplexOptions options) {
  const std::uint64_t t0 = obs::clock_ticks();
  SparseSolver solver(problem, options);
  LpSolution solution = solver.run(problem.sense());
  LpMetrics& metrics = LpMetrics::get();
  metrics.latency_ns.record(obs::ticks_to_ns(obs::clock_ticks() - t0));
  metrics.iterations.add(solution.iterations);
  metrics.refactorisations.add(solution.refactorisations);
  return solution;
}

}  // namespace tsce::lp
