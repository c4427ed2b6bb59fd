/// \file tightness.hpp
/// Relative tightness T[k], eq. (4), and its allocation-independent
/// approximation used by the Tightest-First heuristic (paper §5).
///
/// Local schedulers prioritize applications and transfers of relatively
/// tighter strings (higher T).  The paper assumes distinct T values; we break
/// exact ties deterministically by string id so priorities form a strict
/// total order regardless.

#pragma once

#include <span>

#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"

namespace tsce::analysis {

/// Exact relative tightness of a fully mapped string k: the no-sharing
/// processing + transfer time of its critical path on the assigned resources
/// divided by Lmax[k].  On a chain the critical path is the whole string,
/// folded c0 + t0 + c1 + ... as eq. (4) always was.
[[nodiscard]] double relative_tightness(const model::SystemModel& model,
                                        const model::Allocation& alloc,
                                        model::StringId k);
/// Allocation-free variant for hot loops: \p start is longest-path scratch
/// of at least n_k entries.
[[nodiscard]] double relative_tightness(const model::SystemModel& model,
                                        const model::Allocation& alloc,
                                        model::StringId k,
                                        std::span<double> start) noexcept;

/// Mapping-free approximation: per-app average nominal execution time
/// (eq. 8) and average inverse bandwidth replace the assigned-resource terms
/// along the critical path.
[[nodiscard]] double approx_tightness(const model::SystemModel& model,
                                      model::StringId k);

/// Strict priority order between deployed strings z and k given their
/// tightness values: higher T wins; exact ties broken by lower string id.
[[nodiscard]] constexpr bool higher_priority(double t_z, model::StringId z, double t_k,
                                             model::StringId k) noexcept {
  if (t_z != t_k) return t_z > t_k;
  return z < k;
}

}  // namespace tsce::analysis
