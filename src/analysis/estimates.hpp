/// \file estimates.hpp
/// Shared-resource time estimation, eqs. (5)-(6).
///
/// For every deployed application the estimated computation time is its
/// nominal time plus the average waiting caused by higher-priority
/// applications sharing the CPU; transfers are estimated analogously on
/// shared routes.  Priorities follow relative tightness (see tightness.hpp).

#pragma once

#include <span>
#include <vector>

#include "analysis/priority.hpp"
#include "analysis/utilization.hpp"
#include "model/allocation.hpp"
#include "model/system_model.hpp"

namespace tsce::analysis {

/// Per-string estimated times.  Entries for undeployed strings are empty.
struct TimeEstimates {
  /// comp[k][i] = estimated computation time of a_i^k, eq. (5).
  std::vector<std::vector<double>> comp;
  /// tran[k][e] = estimated transfer time of edge e of string k, eq. (6).
  std::vector<std::vector<double>> tran;
  /// Scheduling priority value per string under the chosen rule — relative
  /// tightness T[k] for the paper's default (NaN for undeployed strings).
  std::vector<double> tightness;
  /// critical_path_latency of each deployed string (NaN otherwise).
  std::vector<double> latency_s;

  /// Estimated end-to-end latency of string k along its critical path.
  [[nodiscard]] double latency(model::StringId k) const noexcept {
    return latency_s[static_cast<std::size_t>(k)];
  }
};

/// Eq. (1) end-to-end latency of string \p s under per-app estimates
/// \p comp and per-edge estimates \p tran: the longest path through the
/// string, found first and then summed — all its computations in index
/// order, then all its transfers.  On a chain the critical path is the whole
/// string, so this is the historical chain sum in its historical fold order.
/// \p start and \p pred are scratch of at least s.size() entries.
[[nodiscard]] double critical_path_latency(const model::AppString& s,
                                           std::span<const double> comp,
                                           std::span<const double> tran,
                                           std::span<double> start,
                                           std::span<model::AppIndex> pred) noexcept;

/// Estimated computation time of one deployed app (k,i), given the resident
/// sets in \p util and per-string tightness values \p t_of.
[[nodiscard]] double estimate_comp_time(const model::SystemModel& model,
                                        const model::Allocation& alloc,
                                        const UtilizationState& util,
                                        std::span<const double> t_of,
                                        model::StringId k, model::AppIndex i) noexcept;

/// Estimated transfer time of edge e of deployed string k.
[[nodiscard]] double estimate_tran_time(const model::SystemModel& model,
                                        const model::Allocation& alloc,
                                        const UtilizationState& util,
                                        std::span<const double> t_of,
                                        model::StringId k, model::AppIndex e) noexcept;

/// Computes estimates for every deployed string of \p alloc from scratch,
/// prioritizing by \p rule (the paper's relative tightness by default).
[[nodiscard]] TimeEstimates estimate_all(
    const model::SystemModel& model, const model::Allocation& alloc,
    PriorityRule rule = PriorityRule::kRelativeTightness);

}  // namespace tsce::analysis
