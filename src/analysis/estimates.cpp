#include "analysis/estimates.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/priority.hpp"
#include "analysis/tightness.hpp"
#include "util/hot.hpp"

namespace tsce::analysis {

using model::Allocation;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

TSCE_HOT double critical_path_latency(const model::AppString& s,
                                      std::span<const double> comp,
                                      std::span<const double> tran,
                                      std::span<double> start,
                                      std::span<AppIndex> pred) noexcept {
  if (s.apps.empty()) return 0.0;
  model::longest_path(
      s, [&](std::size_t i) { return comp[i]; }, [&](std::size_t e) { return tran[e]; },
      start, pred);
  // The path ends at the latest finish; ties go to the higher index, so a
  // chain (whose finishes never decrease) ends at its last application.
  std::size_t sink = 0;
  double latest = start[0] + comp[0];
  for (std::size_t v = 1; v < s.size(); ++v) {
    const double finish = start[v] + comp[v];
    if (finish >= latest) {
      latest = finish;
      sink = v;
    }
  }
  // Walk back to the path's source, turning each pred link into a link to
  // the successor edge, then sum forward: computations, then transfers.
  auto v = static_cast<AppIndex>(sink);
  AppIndex next = model::kInvalidId;
  for (;;) {
    const AppIndex e = pred[static_cast<std::size_t>(v)];
    pred[static_cast<std::size_t>(v)] = next;
    if (e == model::kInvalidId) break;
    next = e;
    v = s.edges[static_cast<std::size_t>(e)].from;
  }
  const AppIndex source = v;
  double total = 0.0;
  for (AppIndex u = source;; u = s.edges[static_cast<std::size_t>(next)].to) {
    total += comp[static_cast<std::size_t>(u)];
    next = pred[static_cast<std::size_t>(u)];
    if (next == model::kInvalidId) break;
  }
  for (AppIndex u = source; pred[static_cast<std::size_t>(u)] != model::kInvalidId;) {
    const auto e = static_cast<std::size_t>(pred[static_cast<std::size_t>(u)]);
    total += tran[e];
    u = s.edges[e].to;
  }
  return total;
}

TSCE_HOT double estimate_comp_time(const SystemModel& model, const Allocation& alloc,
                                   const UtilizationState& util,
                                   std::span<const double> t_of, StringId k,
                                   AppIndex i) noexcept {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  const MachineId j = alloc.machine_of(k, i);
  const auto ju = static_cast<std::size_t>(j);
  double t = s.apps[static_cast<std::size_t>(i)].nominal_time_s[ju];
  const double t_k = t_of[static_cast<std::size_t>(k)];
  // Average waiting: each higher-priority data set of app p (string z) on the
  // same machine delays us by its CPU work t[p,j]*u[p,j], scaled by how many
  // of its periods overlap one of ours (P[k]/P[z]); see Figure 2 cases 1-3.
  for (const AppRef& ref : util.apps_on(j)) {
    if (ref.k == k) continue;  // same-string apps share one tightness value
    const double t_z = t_of[static_cast<std::size_t>(ref.k)];
    if (!higher_priority(t_z, ref.k, t_k, k)) continue;
    const auto& sz = model.strings[static_cast<std::size_t>(ref.k)];
    const auto& az = sz.apps[static_cast<std::size_t>(ref.i)];
    t += (s.period_s / sz.period_s) * az.cpu_work(ju);
  }
  return t;
}

TSCE_HOT double estimate_tran_time(const SystemModel& model, const Allocation& alloc,
                                   const UtilizationState& util,
                                   std::span<const double> t_of, StringId k,
                                   AppIndex e) noexcept {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  const model::Edge& edge = s.edges[static_cast<std::size_t>(e)];
  const MachineId j1 = alloc.machine_of(k, edge.from);
  const MachineId j2 = alloc.machine_of(k, edge.to);
  if (j1 == j2) return 0.0;  // intra-machine: infinite bandwidth
  const double w = model.network.bandwidth_mbps(j1, j2);
  double t = model::kbytes_to_megabits(edge.kbytes) / w;
  const double t_k = t_of[static_cast<std::size_t>(k)];
  for (const AppRef& ref : util.transfers_on(j1, j2)) {
    if (ref.k == k) continue;
    const double t_z = t_of[static_cast<std::size_t>(ref.k)];
    if (!higher_priority(t_z, ref.k, t_k, k)) continue;
    const auto& sz = model.strings[static_cast<std::size_t>(ref.k)];
    const double kbytes = sz.edges[static_cast<std::size_t>(ref.i)].kbytes;
    t += (s.period_s / sz.period_s) * model::kbytes_to_megabits(kbytes) / w;
  }
  return t;
}

TimeEstimates estimate_all(const SystemModel& model, const Allocation& alloc,
                           PriorityRule rule) {
  const std::size_t q = model.num_strings();
  TimeEstimates est;
  est.comp.resize(q);
  est.tran.resize(q);
  est.tightness.assign(q, std::numeric_limits<double>::quiet_NaN());
  est.latency_s.assign(q, std::numeric_limits<double>::quiet_NaN());

  const UtilizationState util = UtilizationState::from_allocation(model, alloc);
  std::size_t longest = 0;
  for (const auto& s : model.strings) longest = std::max(longest, s.size());
  std::vector<double> path_start(longest);
  std::vector<AppIndex> path_pred(longest);
  for (std::size_t k = 0; k < q; ++k) {
    if (alloc.deployed(static_cast<StringId>(k))) {
      est.tightness[k] =
          priority_value(model, alloc, static_cast<StringId>(k), rule, path_start);
    }
  }
  for (std::size_t k = 0; k < q; ++k) {
    if (!alloc.deployed(static_cast<StringId>(k))) continue;
    const auto& s = model.strings[k];
    const auto sk = static_cast<StringId>(k);
    est.comp[k].resize(s.size());
    est.tran[k].resize(s.edges.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      est.comp[k][i] = estimate_comp_time(model, alloc, util, est.tightness, sk,
                                          static_cast<AppIndex>(i));
    }
    for (std::size_t e = 0; e < s.edges.size(); ++e) {
      est.tran[k][e] = estimate_tran_time(model, alloc, util, est.tightness, sk,
                                          static_cast<AppIndex>(e));
    }
    est.latency_s[k] = critical_path_latency(s, est.comp[k], est.tran[k], path_start,
                                             path_pred);
  }
  return est;
}

}  // namespace tsce::analysis
