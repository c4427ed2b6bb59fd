/// \file priority.hpp
/// Local-scheduler priority rules.
///
/// The paper's analysis assumes machines and routes prioritize by relative
/// tightness (eq. 4), and notes that "this analysis can be modified if a
/// different scheduling policy is used" (§3).  This header makes the rule a
/// parameter: the time-estimation equations (5)-(6), the feasibility
/// analysis, and the discrete-event simulator all accept any rule below, so
/// alternative local schedulers can be evaluated end-to-end (ablation E13).

#pragma once

#include <span>

#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"

namespace tsce::analysis {

enum class PriorityRule {
  /// The paper's rule: higher relative tightness T[k] wins.
  kRelativeTightness,
  /// Rate-monotonic flavor: shorter period wins (priority value 1/P[k]).
  kRateMonotonic,
  /// Mission-importance flavor: higher worth I[k] wins.
  kWorth,
};

[[nodiscard]] const char* to_string(PriorityRule rule) noexcept;

/// Scalar priority of deployed string k under \p rule; strictly larger value
/// means higher scheduling priority.  Exact ties are broken by lower string
/// id (see higher_priority in tightness.hpp).
[[nodiscard]] double priority_value(const model::SystemModel& model,
                                    const model::Allocation& alloc,
                                    model::StringId k, PriorityRule rule);
/// Allocation-free variant: \p start is longest-path scratch of at least
/// n_k entries (see relative_tightness).
[[nodiscard]] double priority_value(const model::SystemModel& model,
                                    const model::Allocation& alloc,
                                    model::StringId k, PriorityRule rule,
                                    std::span<double> start) noexcept;

}  // namespace tsce::analysis
