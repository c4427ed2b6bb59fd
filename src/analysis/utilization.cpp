#include "analysis/utilization.hpp"

#include <algorithm>
#include <cassert>

#include "util/hot.hpp"

namespace tsce::analysis {

using model::Allocation;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

UtilizationState::UtilizationState(const SystemModel& model) : model_(&model) {
  const std::size_t m = model.num_machines();
  // Header first (fixed offsets), pool slabs grow past it at the tip.  Sizing
  // the arena for the header plus one pool entry per application keeps slab
  // growth off the common path without reserving for the worst case.
  std::size_t apps = 0;
  std::size_t edges = 0;
  for (const auto& s : model.strings) {
    apps += s.size();
    edges += s.edges.size();
  }
  arena_ = util::Arena((m + m * m + apps) * sizeof(double));
  machine_util_ = arena_.alloc<double>(m);
  route_util_ = arena_.alloc<double>(m * m);
  slabs_ = arena_.alloc<Slab>(m + m * m);
  touched_machines_.reserve(m);
  touched_routes_.reserve(m * m);

  // Incidence lists by counting sort; edges are visited in index order, so
  // each app's list is increasing.  incident_off_[a + 1] first counts app a's
  // edges; after the prefix sum incident_off_[a] is app a's start and serves
  // as its fill cursor, ending at its end, so one shift restores the offsets.
  app_base_.reserve(model.num_strings());
  incident_off_.assign(apps + 1, 0);
  std::uint32_t base = 0;
  for (const auto& s : model.strings) {
    app_base_.push_back(base);
    for (const model::Edge& e : s.edges) {
      ++incident_off_[base + static_cast<std::uint32_t>(e.from) + 1];
      ++incident_off_[base + static_cast<std::uint32_t>(e.to) + 1];
    }
    base += static_cast<std::uint32_t>(s.size());
  }
  for (std::size_t a = 1; a < apps; ++a) incident_off_[a + 1] += incident_off_[a];
  incident_.resize(2 * edges);
  for (std::size_t k = 0; k < model.num_strings(); ++k) {
    const auto& s = model.strings[k];
    for (std::size_t e = 0; e < s.edges.size(); ++e) {
      for (const AppIndex i : {s.edges[e].from, s.edges[e].to}) {
        incident_[incident_off_[app_base_[k] + static_cast<std::uint32_t>(i)]++] =
            static_cast<AppIndex>(e);
      }
    }
  }
  std::move_backward(incident_off_.begin(), incident_off_.end() - 1,
                     incident_off_.end());
  incident_off_[0] = 0;
}

UtilizationState UtilizationState::from_allocation(const SystemModel& model,
                                                   const Allocation& alloc) {
  UtilizationState state(model);
  for (std::size_t k = 0; k < alloc.num_strings(); ++k) {
    if (alloc.deployed(static_cast<StringId>(k))) {
      state.add_string(alloc, static_cast<StringId>(k));
    }
  }
  return state;
}

UtilizationState UtilizationState::from_allocation(
    const SystemModel& model, const Allocation& alloc,
    std::span<const StringId> deploy_order) {
  UtilizationState state(model);
  for (const StringId k : deploy_order) {
    assert(alloc.deployed(k));
    state.add_string(alloc, k);
  }
  return state;
}

TSCE_HOT void UtilizationState::slab_push(std::size_t resource, AppRef ref) {
  // Copy the slab descriptor out first: growing the pool may move the arena's
  // backing buffer, which would invalidate a reference into it.
  Slab s = arena_.view(slabs_)[resource];
  if (s.size == s.cap) {
    const std::uint32_t new_cap = s.cap == 0 ? 4 : s.cap * 2;
    const util::ArenaSpan<AppRef> moved =
        arena_.grow(util::ArenaSpan<AppRef>{s.begin, s.cap}, new_cap);
    s.begin = moved.offset;
    s.cap = new_cap;
  }
  arena_.view(util::ArenaSpan<AppRef>{s.begin, s.cap})[s.size] = ref;
  ++s.size;
  arena_.view(slabs_)[resource] = s;
}

TSCE_HOT void UtilizationState::slab_erase(std::size_t resource, AppRef ref) {
  Slab s = arena_.view(slabs_)[resource];
  const std::span<AppRef> residents =
      arena_.view(util::ArenaSpan<AppRef>{s.begin, s.size});
  const auto it = std::find(residents.begin(), residents.end(), ref);
  assert(it != residents.end());
  std::move(it + 1, residents.end(), it);  // preserve order, like vector::erase
  --s.size;
  arena_.view(slabs_)[resource] = s;
}

TSCE_HOT void UtilizationState::add_string(const Allocation& alloc, StringId k) {
  const auto& s = model_->strings[static_cast<std::size_t>(k)];
  model::sweep(
      s,
      [&](std::size_t iu) {
        const auto i = static_cast<AppIndex>(iu);
        const MachineId j = alloc.machine_of(k, i);
        assert(j != model::kUnassigned);
        arena_.view(machine_util_)[static_cast<std::size_t>(j)] +=
            machine_delta(k, i, j);
        slab_push(static_cast<std::size_t>(j), {k, i});
      },
      [&](std::size_t eu) {
        const auto e = static_cast<AppIndex>(eu);
        const MachineId j1 = alloc.machine_of(k, s.edges[eu].from);
        const MachineId j2 = alloc.machine_of(k, s.edges[eu].to);
        if (j1 == j2) return;
        const std::size_t r = route_index(j1, j2);
        arena_.view(route_util_)[r] += route_delta(k, e, j1, j2);
        slab_push(num_machines() + r, {k, e});
      });
}

TSCE_HOT void UtilizationState::remove_string(const Allocation& alloc, StringId k) {
  // Removal erases the string's entries from the resident lists and then
  // recomputes every touched utilization as a fresh left-to-right sum over
  // the survivors.  Subtracting the deltas instead would leave floating-point
  // residues ((u + d) - d != u in general), breaking the exact-rollback
  // invariant that the prefix-reuse decode and try_commit rely on: a
  // commit/uncommit round trip must restore bit-identical state.  Fresh
  // summation makes each utilization a pure function of its resident list,
  // and add_string's running sum equals the same left fold, so the two paths
  // can never drift apart.
  touched_machines_.clear();
  touched_routes_.clear();
  erase_string(alloc, k);
  resum_touched();
}

TSCE_HOT void UtilizationState::remove_strings(const Allocation& alloc,
                                               std::span<const StringId> ks) {
  touched_machines_.clear();
  touched_routes_.clear();
  for (const StringId k : ks) erase_string(alloc, k);
  resum_touched();
}

TSCE_HOT void UtilizationState::erase_string(const Allocation& alloc, StringId k) {
  const auto& s = model_->strings[static_cast<std::size_t>(k)];
  model::sweep(
      s,
      [&](std::size_t iu) {
        const auto i = static_cast<AppIndex>(iu);
        const MachineId j = alloc.machine_of(k, i);
        assert(j != model::kUnassigned);
        slab_erase(static_cast<std::size_t>(j), {k, i});
        if (std::find(touched_machines_.begin(), touched_machines_.end(), j) ==
            touched_machines_.end()) {
          touched_machines_.push_back(j);
        }
      },
      [&](std::size_t eu) {
        const MachineId j1 = alloc.machine_of(k, s.edges[eu].from);
        const MachineId j2 = alloc.machine_of(k, s.edges[eu].to);
        if (j1 == j2) return;
        const std::size_t r = route_index(j1, j2);
        slab_erase(num_machines() + r, {k, static_cast<AppIndex>(eu)});
        if (std::find(touched_routes_.begin(), touched_routes_.end(), r) ==
            touched_routes_.end()) {
          touched_routes_.push_back(r);
        }
      });
}

TSCE_HOT void UtilizationState::resum_touched() {
  // Fresh left-to-right sums over the flat resident slabs; with the pool in
  // one contiguous block these scans are cache-linear per resource.
  const std::span<double> machine_util = arena_.view(machine_util_);
  for (const MachineId j : touched_machines_) {
    double u = 0.0;
    for (const AppRef& ref : slab_span(static_cast<std::size_t>(j))) {
      u += machine_delta(ref.k, ref.i, j);
    }
    machine_util[static_cast<std::size_t>(j)] = u;
  }
  const auto m = static_cast<MachineId>(num_machines());
  const std::span<double> route_util = arena_.view(route_util_);
  for (const std::size_t r : touched_routes_) {
    const auto j1 = static_cast<MachineId>(r / static_cast<std::size_t>(m));
    const auto j2 = static_cast<MachineId>(r % static_cast<std::size_t>(m));
    double u = 0.0;
    for (const AppRef& ref : slab_span(num_machines() + r)) {
      u += route_delta(ref.k, ref.i, j1, j2);
    }
    route_util[r] = u;
  }
}

double UtilizationState::max_machine_util() const noexcept {
  double best = 0.0;
  for (double u : arena_.view(machine_util_)) best = std::max(best, u);
  return best;
}

double UtilizationState::max_route_util() const noexcept {
  double best = 0.0;
  for (double u : arena_.view(route_util_)) best = std::max(best, u);
  return best;
}

TSCE_HOT double UtilizationState::slackness() const noexcept {
  // machine_util_ and route_util_ are adjacent in the arena, so these two
  // scans stream one contiguous block of M + M*M doubles (auto-vectorized:
  // plain min-reduction over flat arrays).
  double min_slack = 1.0;
  for (double u : arena_.view(machine_util_)) min_slack = std::min(min_slack, 1.0 - u);
  for (double u : arena_.view(route_util_)) min_slack = std::min(min_slack, 1.0 - u);
  return min_slack;
}

}  // namespace tsce::analysis
