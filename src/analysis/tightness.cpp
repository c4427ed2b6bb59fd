#include "analysis/tightness.hpp"

#include <vector>

namespace tsce::analysis {

using model::Allocation;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

double relative_tightness(const SystemModel& model, const Allocation& alloc,
                          StringId k) {
  std::vector<double> path_start(model.strings[static_cast<std::size_t>(k)].size());
  return relative_tightness(model, alloc, k, path_start);
}

double relative_tightness(const SystemModel& model, const Allocation& alloc,
                          StringId k, std::span<double> start) noexcept {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  const double critical = model::longest_path(
      s,
      [&](std::size_t i) {
        const MachineId j = alloc.machine_of(k, static_cast<AppIndex>(i));
        return s.apps[i].nominal_time_s[static_cast<std::size_t>(j)];
      },
      [&](std::size_t e) {
        const model::Edge& edge = s.edges[e];
        return model.network.transfer_s(edge.kbytes, alloc.machine_of(k, edge.from),
                                        alloc.machine_of(k, edge.to));
      },
      start);
  return critical / s.max_latency_s;
}

double approx_tightness(const SystemModel& model, StringId k) {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  const double inv_w_av = model.network.avg_inverse_bandwidth();
  std::vector<double> path_start(s.size());
  const double critical = model::longest_path(
      s, [&](std::size_t i) { return s.apps[i].avg_time_s(); },
      [&](std::size_t e) {
        return model::kbytes_to_megabits(s.edges[e].kbytes) * inv_w_av;
      },
      std::span<double>(path_start));
  return critical / s.max_latency_s;
}

}  // namespace tsce::analysis
