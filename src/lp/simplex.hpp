/// \file simplex.hpp
/// Bounded-variable two-phase revised simplex.
///
/// This solver replaces the commercial package (Lingo 9.0) the paper used for
/// its upper-bound computation (§7).  It keeps CSC/CSR constraint storage, a
/// Markowitz-pivot LU factorisation of the basis (sparse_lu.hpp) with
/// product-form eta updates, refactorisation every `refactor_interval` pivots
/// or when the FTRAN/BTRAN pivot cross-check drifts, sparse FTRAN/BTRAN
/// exploiting rhs sparsity, and Devex pricing with incrementally maintained
/// reduced costs (recomputed exactly at every refactorisation; optimality is
/// only declared from exact ones) over a maintained bitmap of the columns
/// that can enter.  Per-iteration work scales with the factor
/// and column nonzeros instead of m², which is what lets the upper-bound LP
/// run at fleet scale (hundreds of machines, thousands of strings).  An
/// independently implemented dense engine lives in tests/lp as the
/// cross-check oracle.
///
/// Computational form: every row r becomes a_r^T x + s_r = rhs_r with a slack
/// bounded by the row relation ([0,inf) for <=, (-inf,0] for >=, [0,0] for
/// =).  The slack basis is the starting point; when it is bound-infeasible, a
/// phase-1 LP with artificial columns drives the infeasibility to zero first.
/// Degenerate runs switch pricing to Bland's rule, guaranteeing termination.
/// Duals/shadow prices are exact at optimality.  The solver is deterministic:
/// a fixed input yields a bit-identical solution path (index-ordered scans,
/// deterministic tie-breaks, no randomisation).

#pragma once

#include <cstddef>
#include <vector>

#include "lp/problem.hpp"

namespace tsce::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

[[nodiscard]] const char* to_string(SolveStatus status) noexcept;

struct SimplexOptions {
  /// Hard cap across both phases; 0 means 50*(m+n) adaptive.
  std::size_t max_iterations = 0;
  /// Eta-file length that forces a refactorisation.
  std::size_t refactor_interval = 64;
  /// Relative FTRAN-vs-BTRAN pivot disagreement that forces an early
  /// refactorisation (and a retry of the iteration).
  double drift_tol = 1e-7;
};

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Objective in the problem's own sense (max problems report the max).
  double objective = 0.0;
  /// Values of the structural variables.
  std::vector<double> x;
  /// Shadow price per row in the problem's own sense: the marginal change of
  /// the optimal objective per unit of right-hand side (only meaningful at
  /// kOptimal; zero for non-binding rows).
  std::vector<double> row_duals;
  std::size_t iterations = 0;
  std::size_t phase1_iterations = 0;
  /// Number of basis (re)factorisations performed.
  std::size_t refactorisations = 0;
};

/// Solves \p problem; deterministic for a fixed input.
[[nodiscard]] LpSolution solve(const LpProblem& problem, SimplexOptions options = {});

}  // namespace tsce::lp
