/// \file session.hpp
/// Incremental sequential-allocation session.
///
/// The ordering heuristics (MWF, TF, PSG decode) deploy strings one at a time
/// and must re-run the two-stage feasibility analysis after every string.
/// Re-checking the whole system from scratch is O(Q * A^2); AllocationSession
/// exploits the fact that committing one string only perturbs the resources
/// it touches — stage one is re-checked on touched resources only and stage
/// two re-estimates only resident applications of touched machines/routes
/// (higher-priority estimates are unchanged by construction of eqs. 5-6).
/// A failed commit rolls back completely (UtilizationState::undo_add plus
/// the estimate journals), leaving the previous feasible intermediate
/// mapping intact (the MWF/TF termination rule).
///
/// Estimate storage is SoA (DESIGN.md §12): one flat double array for all
/// eq. (5) computation estimates and one for all eq. (6) transfer estimates,
/// indexed by prefix sums over string app and edge counts — no per-string
/// vectors, so the steady-state commit/rollback path never allocates.  The
/// whole session state snapshots into a SessionSnapshot and restores back
/// with a handful of memcpys, bit-exactly.  That restore is the only way to
/// take back an accepted commit: the prefix-reuse decode and the exact
/// search rewind through it, and replica-based engines clone sessions the
/// same way.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/priority.hpp"
#include "analysis/utilization.hpp"
#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"
#include "util/arena.hpp"

namespace tsce::analysis {

/// Which eq. (1) constraint a deployed string violates under the current
/// estimates: a per-app/transfer period overrun (throughput) or an end-to-end
/// latency overrun.  Rejection counts per kind are exported through
/// obs::MetricsRegistry ("session.reject.*").
enum class ConstraintViolation { kNone, kThroughput, kLatency };

/// Bit-exact byte image of an AllocationSession.  All members are flat
/// arrays, so snapshot/restore/copy are memcpys; in steady state (buffers
/// already at working size) the round trip is allocation-free.  A snapshot
/// may only be restored into a session built from the same SystemModel.
struct SessionSnapshot {
  model::Allocation alloc;
  util::ArenaSnapshot util;
  std::vector<double> t_of;
  std::vector<double> comp;
  std::vector<double> tran;
};

class AllocationSession {
 public:
  explicit AllocationSession(
      const model::SystemModel& model,
      PriorityRule rule = PriorityRule::kRelativeTightness);

  /// Attempts to deploy string \p k with the per-app machine \p assignment
  /// (size n_k, no kUnassigned entries).  Runs the two-stage feasibility
  /// analysis on the resulting intermediate mapping; on success the string is
  /// committed and true is returned, otherwise every observable of the
  /// session is as before the call and false is returned.
  bool try_commit(model::StringId k, const std::vector<model::MachineId>& assignment);

  /// Copies the full session state into \p out (buffers reused — no
  /// allocation once \p out has reached working size).  restore_from() is the
  /// exact inverse: the restored session is bit-identical to the session at
  /// snapshot time, including resident-list order, so it is interchangeable
  /// with a session that replayed the same commit history.
  void snapshot_into(SessionSnapshot& out) const;
  void restore_from(const SessionSnapshot& snap);
  /// Bytes a snapshot/clone copies (utilization arena + flat session arrays).
  [[nodiscard]] std::size_t state_bytes() const noexcept;

  [[nodiscard]] const model::SystemModel& system() const noexcept { return *model_; }
  [[nodiscard]] const model::Allocation& allocation() const noexcept { return alloc_; }
  [[nodiscard]] const UtilizationState& util() const noexcept { return util_; }

  [[nodiscard]] Fitness fitness() const noexcept {
    return {total_worth(*model_, alloc_), util_.slackness()};
  }

  /// Classifies string \p z against eq. (1) under the current estimates.
  [[nodiscard]] ConstraintViolation constraint_violation(model::StringId z) const noexcept;

  /// Estimated computation times of deployed string k (stale values for
  /// undeployed strings — callers must check deployed() first, as ever).
  [[nodiscard]] std::span<const double> comp_estimates(model::StringId k) const noexcept {
    const auto ku = static_cast<std::size_t>(k);
    return {comp_.data() + app_off_[ku], app_off_[ku + 1] - app_off_[ku]};
  }
  [[nodiscard]] std::span<const double> tran_estimates(model::StringId k) const noexcept {
    const auto ku = static_cast<std::size_t>(k);
    return {tran_.data() + tran_off_[ku], tran_off_[ku + 1] - tran_off_[ku]};
  }

 private:
  /// Estimates string k from scratch and delta-updates residents k preempts
  /// (journaling old slot values), then checks eq. (1) for each affected
  /// string; returns the first violation found (kNone when all pass).
  [[nodiscard]] ConstraintViolation stage_two_after_add(model::StringId k);
  void refresh_estimates_of(model::StringId k);
  /// Appends the machines and inter-machine routes of string k under
  /// \p assignment to the touched-resource scratch (deduplicated).
  void note_touched(model::StringId k, std::span<const model::MachineId> assignment);

  const model::SystemModel* model_;
  PriorityRule rule_;
  model::Allocation alloc_;
  UtilizationState util_;
  std::vector<double> t_of_;            ///< tightness per deployed string (NaN otherwise)
  std::vector<std::uint32_t> app_off_;  ///< prefix sums of string lengths, size Q+1
  std::vector<std::uint32_t> tran_off_; ///< prefix sums of edge counts, size Q+1
  std::vector<double> comp_;            ///< flat eq. (5) estimates, app_off_-indexed
  std::vector<double> tran_;            ///< flat eq. (6) estimates, tran_off_-indexed
  // Scratch reused across commits to avoid churn.
  std::vector<model::MachineId> touched_machines_;
  std::vector<std::pair<model::MachineId, model::MachineId>> touched_routes_;
  std::vector<model::StringId> affected_strings_;
  /// Pre-commit values of estimate slots delta-updated by stage two, so a
  /// rejected commit restores them bit-exactly (float subtraction would not).
  std::vector<std::pair<std::uint32_t, double>> comp_journal_;
  std::vector<std::pair<std::uint32_t, double>> tran_journal_;
  /// Longest-path scratch (tightness and critical-path latency), sized to the
  /// longest string; mutable because constraint_violation is a const query.
  mutable std::vector<double> path_start_;
  mutable std::vector<model::AppIndex> path_pred_;
};

}  // namespace tsce::analysis
