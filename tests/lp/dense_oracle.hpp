/// \file dense_oracle.hpp
/// Test-only dense simplex: the cross-check oracle for the library's sparse
/// engine (lp/simplex.hpp).
///
/// Explicit row-major basis inverse with product-form updates and Dantzig
/// pricing — O(m²) memory and per-iteration work.  It shares nothing with the
/// sparse engine but the LpProblem input and the computational form (one
/// slack per row, phase 1 over artificials on the bound-violating rows), so
/// agreement between the two on status and optimum is evidence about both.
/// Deterministic for a fixed input.

#pragma once

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace tsce::lp {

/// Solves \p problem with the dense engine.  `refactorisations` is always 0
/// (the inverse is updated in place, never refactorised).
[[nodiscard]] LpSolution dense_oracle_solve(const LpProblem& problem);

}  // namespace tsce::lp
