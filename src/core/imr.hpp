/// \file imr.hpp
/// The Incremental Mapping Routine (paper §5): greedy allocation of one
/// string onto the machine suite, guided by post-assignment resource
/// utilization.
///
/// The routine seeds at the most computationally intensive application
/// (argmax of t_av * u_av / P), places it on the machine with minimal
/// resulting utilization, then repeatedly locates the next most intensive
/// unassigned application (the target) and grows the placed set toward it:
/// one at a time, the frontier application (unplaced, with a placed
/// neighbour) nearest the target — undirected hop distance, ties to the
/// lowest index — is placed on the machine minimizing the max of its machine
/// utilization and the utilization of every route to an already-placed
/// neighbour.  Machine ties go to the lowest index, so the routine is
/// deterministic.  On a chain the placed set is a contiguous range and this
/// is the paper's walk of the range toward the target.

#pragma once

#include <vector>

#include "analysis/utilization.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"

namespace tsce::core {

/// Computational intensity used for application ordering inside the IMR:
/// t_av[i] * u_av[i] / P[k].
[[nodiscard]] double computational_intensity(const model::SystemModel& model,
                                             model::StringId k,
                                             model::AppIndex i) noexcept;

/// Reusable working buffers for the IMR.  Hot search loops map a string per
/// candidate evaluation; keeping the buffers alive across calls makes the
/// routine allocation-free after the first use (see DecodeContext).
struct ImrScratch {
  std::vector<double> machine_extra;
  std::vector<double> route_extra;
  std::vector<model::AppIndex> distance;      ///< hops to the current target
  std::vector<model::AppIndex> queue;         ///< breadth-first search queue
  std::vector<double> score;                  ///< per machine, app being placed
  std::vector<double> intensity;              ///< per app of the string
};

/// Maps string \p k against the resource usage in \p util (which reflects all
/// previously committed strings; it is not modified), writing one machine per
/// application into \p assignment (resized as needed).  Feasibility is NOT
/// checked here; the caller runs the two-stage analysis on the resulting
/// intermediate mapping.
void imr_map_string_into(const model::SystemModel& model,
                         const analysis::UtilizationState& util,
                         model::StringId k, ImrScratch& scratch,
                         std::vector<model::MachineId>& assignment);

/// Convenience wrapper over imr_map_string_into with throwaway buffers.
[[nodiscard]] std::vector<model::MachineId> imr_map_string(
    const model::SystemModel& model, const analysis::UtilizationState& util,
    model::StringId k);

}  // namespace tsce::core
