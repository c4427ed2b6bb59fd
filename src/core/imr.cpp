#include "core/imr.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/hot.hpp"

namespace tsce::core {

using analysis::UtilizationState;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

double computational_intensity(const SystemModel& model, StringId k,
                               AppIndex i) noexcept {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  const auto& a = s.apps[static_cast<std::size_t>(i)];
  return a.avg_time_s() * a.avg_util() / s.period_s;
}

namespace {

/// Local view of resource usage: committed state plus the in-progress
/// assignments of the string being mapped.  Buffers live in the caller's
/// ImrScratch so repeated mappings do not allocate.
class ScratchUtil {
 public:
  ScratchUtil(const SystemModel& model, const UtilizationState& util, StringId k,
              ImrScratch& scratch)
      : model_(model),
        util_(util),
        k_(k),
        machine_extra_(scratch.machine_extra),
        route_extra_(scratch.route_extra) {
    machine_extra_.assign(model.num_machines(), 0.0);
    route_extra_.assign(model.num_machines() * model.num_machines(), 0.0);
  }

  [[nodiscard]] double machine_util_if(MachineId j, AppIndex i) const noexcept {
    return util_.machine_util(j) + machine_extra_[static_cast<std::size_t>(j)] +
           util_.machine_delta(k_, i, j);
  }

  /// Route j1->j2 utilization if edge \p e were added.
  [[nodiscard]] double route_util_if(MachineId j1, MachineId j2,
                                     AppIndex e) const noexcept {
    if (j1 == j2) return 0.0;
    return util_.route_util(j1, j2) + route_extra_[route_index(j1, j2)] +
           util_.route_delta(k_, e, j1, j2);
  }

  void commit_app(AppIndex i, MachineId j) noexcept {
    machine_extra_[static_cast<std::size_t>(j)] += util_.machine_delta(k_, i, j);
  }

  void commit_transfer(AppIndex e, MachineId j1, MachineId j2) noexcept {
    if (j1 == j2) return;
    route_extra_[route_index(j1, j2)] += util_.route_delta(k_, e, j1, j2);
  }

 private:
  [[nodiscard]] std::size_t route_index(MachineId j1, MachineId j2) const noexcept {
    return static_cast<std::size_t>(j1) * model_.num_machines() +
           static_cast<std::size_t>(j2);
  }

  const SystemModel& model_;
  const UtilizationState& util_;
  StringId k_;
  std::vector<double>& machine_extra_;
  std::vector<double>& route_extra_;
};

}  // namespace

TSCE_HOT void imr_map_string_into(const SystemModel& model, const UtilizationState& util,
                                  StringId k, ImrScratch& buffers,
                                  std::vector<MachineId>& assignment) {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  const auto n = static_cast<AppIndex>(s.size());
  const auto m = static_cast<MachineId>(model.num_machines());
  assert(n > 0 && m > 0);
  const auto nu = static_cast<std::size_t>(n);
  assignment.assign(nu, model::kUnassigned);
  auto& distance = buffers.distance;
  distance.resize(nu);
  auto& queue = buffers.queue;
  queue.resize(nu);
  auto& score = buffers.score;
  score.resize(static_cast<std::size_t>(m));
  auto& intensity = buffers.intensity;
  intensity.resize(nu);
  for (AppIndex i = 0; i < n; ++i) {
    intensity[static_cast<std::size_t>(i)] = computational_intensity(model, k, i);
  }
  ScratchUtil scratch(model, util, k, buffers);
  auto other_end = [&](AppIndex e, AppIndex i) {
    const model::Edge& edge = s.edges[static_cast<std::size_t>(e)];
    return edge.from == i ? edge.to : edge.from;
  };
  auto is_placed = [&](AppIndex i) {
    return assignment[static_cast<std::size_t>(i)] != model::kUnassigned;
  };

  auto most_intensive_unassigned = [&]() {
    AppIndex best = model::kInvalidId;
    double best_val = -std::numeric_limits<double>::infinity();
    for (AppIndex i = 0; i < n; ++i) {
      if (is_placed(i)) continue;
      if (intensity[static_cast<std::size_t>(i)] > best_val) {
        best_val = intensity[static_cast<std::size_t>(i)];
        best = i;
      }
    }
    return best;
  };

  // Places app i on the machine minimizing the max of its machine
  // utilization and the utilization of every route to a placed neighbour
  // (ties -> lowest j).  Scores are folded one placed edge at a time, in
  // incident-edge order.
  auto place = [&](AppIndex i) {
    for (MachineId j = 0; j < m; ++j) {
      score[static_cast<std::size_t>(j)] = scratch.machine_util_if(j, i);
    }
    for (const AppIndex e : util.incident_edges(k, i)) {
      const MachineId jn = assignment[static_cast<std::size_t>(other_end(e, i))];
      if (jn == model::kUnassigned) continue;
      const bool sends = s.edges[static_cast<std::size_t>(e)].from == i;
      for (MachineId j = 0; j < m; ++j) {
        double& val = score[static_cast<std::size_t>(j)];
        val = std::max(val, sends ? scratch.route_util_if(j, jn, e)
                                  : scratch.route_util_if(jn, j, e));
      }
    }
    MachineId best_j = 0;
    for (MachineId j = 1; j < m; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (score[ju] < score[static_cast<std::size_t>(best_j)]) best_j = j;
    }
    scratch.commit_app(i, best_j);
    for (const AppIndex e : util.incident_edges(k, i)) {
      const MachineId jn = assignment[static_cast<std::size_t>(other_end(e, i))];
      if (jn == model::kUnassigned) continue;
      const bool sends = s.edges[static_cast<std::size_t>(e)].from == i;
      scratch.commit_transfer(e, sends ? best_j : jn, sends ? jn : best_j);
    }
    assignment[static_cast<std::size_t>(i)] = best_j;
  };

  // Seed: the most computationally intensive application on the machine with
  // minimal post-assignment utilization.
  place(most_intensive_unassigned());

  for (AppIndex done = 1; done < n;) {
    const AppIndex target = most_intensive_unassigned();
    // Breadth-first over unplaced apps from the target, a level at a time,
    // until a level holds a frontier app (one with a placed neighbour); the
    // lowest-index one there is the frontier app nearest the target.  A
    // shortest path from it never crosses a placed app (the app after that
    // crossing would be a nearer frontier app), so ignoring placed apps
    // leaves its distance unchanged.  Models are validated weakly connected,
    // so a frontier app is always reached.
    std::fill(distance.begin(), distance.end(), n);  // n = not reached
    distance[static_cast<std::size_t>(target)] = 0;
    queue[0] = target;
    AppIndex next = model::kInvalidId;
    for (std::size_t head = 0, tail = 1; next == model::kInvalidId;) {
      assert(head < tail);
      for (const std::size_t level_end = tail; head < level_end; ++head) {
        const AppIndex v = queue[head];
        bool frontier = false;
        for (const AppIndex e : util.incident_edges(k, v)) {
          const AppIndex u = other_end(e, v);
          if (is_placed(u)) {
            frontier = true;
          } else if (distance[static_cast<std::size_t>(u)] == n) {
            distance[static_cast<std::size_t>(u)] =
                distance[static_cast<std::size_t>(v)] + 1;
            queue[tail++] = u;
          }
        }
        if (frontier && (next == model::kInvalidId || v < next)) next = v;
      }
    }
    // Walk to the target.  After placing an app at distance d, the frontier
    // apps nearest the target are exactly its neighbours at d - 1 (placed
    // apps were never reached), so each step takes the lowest-index one.
    for (AppIndex v = next;;) {
      place(v);
      ++done;
      if (v == target) break;
      AppIndex step = model::kInvalidId;
      for (const AppIndex e : util.incident_edges(k, v)) {
        const AppIndex u = other_end(e, v);
        if (distance[static_cast<std::size_t>(u)] + 1 ==
                distance[static_cast<std::size_t>(v)] &&
            (step == model::kInvalidId || u < step)) {
          step = u;
        }
      }
      v = step;
    }
  }
}

std::vector<MachineId> imr_map_string(const SystemModel& model,
                                      const UtilizationState& util, StringId k) {
  ImrScratch scratch;
  std::vector<MachineId> assignment;
  imr_map_string_into(model, util, k, scratch, assignment);
  return assignment;
}

}  // namespace tsce::core
