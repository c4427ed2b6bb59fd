/// \file simulator.hpp
/// Discrete-event simulation of deployed application strings.
///
/// The simulator executes the periodic pipelines of every deployed string on
/// the shared machines and routes, reproducing the scheduling model behind
/// eqs. (5)-(6):
///
/// * All strings release their first data set at t = 0 (the paper's
///   worst-case alignment of periods) and then strictly periodically.
/// * CPUs are priority-preemptive with capacity cascade: applications are
///   ranked by the relative tightness of their string; each active
///   application receives min(u[i,j], remaining capacity), so lower-priority
///   work proceeds on leftover CPU cycles exactly as in Figure 2, case 3.
/// * Routes are priority-preemptive single servers: the tightest active
///   transfer gets the full bandwidth, the rest wait.
///
/// Per data set the simulator measures computation times (queueing +
/// processing at an application), transfer times, and end-to-end latency,
/// and counts QoS violations against eq. (1).  This provides an empirical
/// cross-check of the analytic feasibility analysis and powers the
/// robustness-validation bench (E8).

#pragma once

#include <cstddef>
#include <vector>

#include "analysis/priority.hpp"
#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "util/stats.hpp"

namespace tsce::sim {

struct SimOptions {
  /// Simulated horizon in seconds; 0 picks 20x the longest deployed period.
  double horizon_s = 0.0;
  /// Safety valve for runaway event loops.
  std::size_t max_events = 10'000'000;
  /// Local-scheduler priority rule on CPUs and routes (paper default:
  /// relative tightness; see analysis/priority.hpp for alternatives).
  analysis::PriorityRule priority_rule = analysis::PriorityRule::kRelativeTightness;
  /// Statistics before this time are discarded (transient warm-up); the
  /// paper's worst-case analysis aligns all periods at t = 0, so the default
  /// keeps everything.
  double warmup_s = 0.0;
};

struct AppStats {
  util::RunningStats comp_s;        ///< measured computation times
  util::RunningStats tran_s;        ///< measured transfer times (if any)
  std::size_t comp_violations = 0;  ///< comp time > P[k]
  std::size_t tran_violations = 0;  ///< transfer time > P[k]
};

struct StringStats {
  util::RunningStats latency_s;
  std::size_t latency_violations = 0;  ///< latency > Lmax[k]
  std::size_t datasets_completed = 0;
};

struct SimResult {
  /// Indexed [k][i]; empty vectors for undeployed strings.
  std::vector<std::vector<AppStats>> apps;
  std::vector<StringStats> strings;
  std::size_t events = 0;
  double simulated_s = 0.0;

  /// Measured average CPU share consumed per machine over the measurement
  /// window — the empirical counterpart of U_machine[j], eq. (2).
  std::vector<double> measured_machine_util;
  /// Measured transmit-time fraction per route (row-major M x M) — the
  /// empirical counterpart of U_route[j1,j2], eq. (3).
  std::vector<double> measured_route_util;

  [[nodiscard]] std::size_t total_violations() const noexcept;
};

/// Runs the simulation for the deployed strings of \p alloc.  Deployed
/// strings must be chains (AppString::is_path); a deployed DAG string throws
/// std::invalid_argument.
[[nodiscard]] SimResult simulate(const model::SystemModel& model,
                                 const model::Allocation& alloc,
                                 SimOptions options = {});

/// Returns a copy of \p model with the input workload scaled by \p factor:
/// nominal execution times and edge output sizes are multiplied by factor while
/// periods and latency bounds stay fixed, emulating an unpredictable increase
/// in input workload (paper §1).
[[nodiscard]] model::SystemModel scale_input_workload(const model::SystemModel& model,
                                                      double factor);

}  // namespace tsce::sim
