/// \file utilization.hpp
/// Machine and communication-route utilization accounting, eqs. (2)-(3).
///
/// UtilizationState supports both batch computation from a complete
/// allocation and incremental addition of single strings, which the
/// sequential heuristics (IMR inside MWF/TF/PSG decode) rely on; the most
/// recent addition can be taken back with undo_add.  It also
/// tracks which applications/transfers reside on each resource, which the
/// stage-two time estimation reuses.
///
/// Memory layout (DESIGN.md §12): the whole state is one contiguous
/// util::Arena block — flat utilization arrays, a slab table of per-resource
/// (offset, size, capacity) triples, and a CSR-style pool of resident AppRef
/// slabs that grow in place amortized.  Because every internal reference is
/// an arena offset, snapshot()/restore() are single memcpys of the used
/// prefix and are bit-exact.  Slabs only grow and shrink at their tail, so
/// every utilization is the left fold of its resident slab.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"
#include "util/arena.hpp"

namespace tsce::analysis {

/// Reference to application i of string k — or, in a route's resident list,
/// to edge i of string k.
struct AppRef {
  model::StringId k;
  model::AppIndex i;
  friend bool operator==(const AppRef&, const AppRef&) = default;
};

class UtilizationState {
 public:
  UtilizationState() = default;
  explicit UtilizationState(const model::SystemModel& model);

  /// Builds state for all deployed strings of \p alloc, added in increasing
  /// string-id order.  Every utilization is a left fold over its resident
  /// list, so the result is bit-identical to any history whose surviving
  /// deployment order is 0,1,2,... — histories with a different surviving
  /// order agree only up to float re-association (use the overload below to
  /// compare those bitwise).
  static UtilizationState from_allocation(const model::SystemModel& model,
                                          const model::Allocation& alloc);
  /// As above, but deploys in the given order: the from-scratch rebuild that
  /// is bit-identical to an incrementally maintained state whose surviving
  /// strings were added (or last re-added) in \p deploy_order.
  static UtilizationState from_allocation(
      const model::SystemModel& model, const model::Allocation& alloc,
      std::span<const model::StringId> deploy_order);

  /// Adds every application and every inter-machine edge of string k using
  /// its assignment in \p alloc (string must be fully mapped).
  void add_string(const model::Allocation& alloc, model::StringId k);
  /// Takes back the most recent add_string, which must have been of string
  /// \p k (no other mutation or restore in between): pops k's entries off the
  /// tail of each slab it touched and restores the utilizations add_string
  /// overwrote from its journal, in reverse.  Bit-exact: the restored value
  /// is the left fold of the remaining slab.  A slab that add_string moved to
  /// grow stays where it moved to.
  void undo_add(model::StringId k);

  /// U_machine[j], eq. (2).
  [[nodiscard]] double machine_util(model::MachineId j) const noexcept {
    return arena_.view(machine_util_)[static_cast<std::size_t>(j)];
  }
  /// U_route[j1,j2], eq. (3).  Intra-machine routes are always 0.
  [[nodiscard]] double route_util(model::MachineId j1, model::MachineId j2) const noexcept {
    return arena_.view(route_util_)[route_index(j1, j2)];
  }

  /// Utilization contribution of app i of string k when placed on machine j:
  /// (t[i,j] * u[i,j]) / P[k], the minimum average CPU share that lets a_i^k
  /// finish each data set within one period.
  [[nodiscard]] double machine_delta(model::StringId k, model::AppIndex i,
                                     model::MachineId j) const noexcept {
    const auto& s = model_->strings[static_cast<std::size_t>(k)];
    const auto& a = s.apps[static_cast<std::size_t>(i)];
    return a.cpu_work(static_cast<std::size_t>(j)) / s.period_s;
  }
  /// Utilization contribution of edge e of string k on route j1->j2 (0 when
  /// j1 == j2, intra-machine bandwidth being infinite): (O[e]/P[k]) /
  /// w[j1,j2], the minimum average bandwidth share over the period.
  [[nodiscard]] double route_delta(model::StringId k, model::AppIndex e,
                                   model::MachineId j1,
                                   model::MachineId j2) const noexcept {
    if (j1 == j2) return 0.0;
    const auto& s = model_->strings[static_cast<std::size_t>(k)];
    const double kbytes = s.edges[static_cast<std::size_t>(e)].kbytes;
    const double mbps_needed = model::kbytes_to_megabits(kbytes) / s.period_s;
    return mbps_needed / model_->network.bandwidth_mbps(j1, j2);
  }

  /// What-if U_machine[j, i, k] from the IMR description (paper §5).
  [[nodiscard]] double machine_util_if(model::MachineId j, model::StringId k,
                                       model::AppIndex i) const noexcept {
    return machine_util(j) + machine_delta(k, i, j);
  }
  /// What-if U_route[j1, j2, e, k]: utilization of route j1->j2 if edge e of
  /// string k were added to it.
  [[nodiscard]] double route_util_if(model::MachineId j1, model::MachineId j2,
                                     model::StringId k,
                                     model::AppIndex e) const noexcept {
    return route_util(j1, j2) + route_delta(k, e, j1, j2);
  }

  /// Max utilization over all machines (0 when empty system).
  [[nodiscard]] double max_machine_util() const noexcept;
  /// Max utilization over all routes.
  [[nodiscard]] double max_route_util() const noexcept;

  /// System slackness, eq. (7): min residual capacity over machines & routes.
  [[nodiscard]] double slackness() const noexcept;

  /// Applications currently resident on machine j (unordered).  The span is
  /// invalidated by the next mutation of this state.
  [[nodiscard]] std::span<const AppRef> apps_on(model::MachineId j) const noexcept {
    return slab_span(static_cast<std::size_t>(j));
  }
  /// Transfers resident on route j1->j2; AppRef names the edge.
  [[nodiscard]] std::span<const AppRef> transfers_on(model::MachineId j1,
                                                     model::MachineId j2) const noexcept {
    return slab_span(num_machines() + route_index(j1, j2));
  }

  [[nodiscard]] std::size_t num_machines() const noexcept { return machine_util_.count; }

  /// Edges touching app i of string k (either endpoint), in increasing edge
  /// index: the string's undirected adjacency, derived once per model so the
  /// IMR walks a DAG without rebuilding it per call.
  [[nodiscard]] std::span<const model::AppIndex> incident_edges(
      model::StringId k, model::AppIndex i) const noexcept {
    const std::size_t a =
        app_base_[static_cast<std::size_t>(k)] + static_cast<std::size_t>(i);
    return {incident_.data() + incident_off_[a],
            incident_off_[a + 1] - incident_off_[a]};
  }

  /// Snapshot protocol: the state is one arena block, so a snapshot is one
  /// memcpy of the used prefix and restore is the inverse memcpy — bit-exact,
  /// O(bytes), no per-string work.  A snapshot may be restored into any
  /// UtilizationState built from the same SystemModel.
  void snapshot_into(util::ArenaSnapshot& out) const { arena_.snapshot_into(out); }
  void restore_from(const util::ArenaSnapshot& snap) {
    arena_.restore_from(snap);
    journal_k_ = model::kInvalidId;
  }
  /// Size of the contiguous state block (what snapshot/clone copy).
  [[nodiscard]] std::size_t state_bytes() const noexcept { return arena_.used(); }

 private:
  /// Per-resource resident slab: a CSR-style (offset, size, capacity) triple
  /// into the arena's AppRef pool.  Lives inside the arena itself so the
  /// snapshot memcpy captures it.
  struct Slab {
    std::uint32_t begin = 0;  ///< byte offset of the slab's first AppRef
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  /// Unified resource index: machines are [0, M), routes are M + route_index.
  [[nodiscard]] std::span<const AppRef> slab_span(std::size_t resource) const noexcept {
    const Slab& s = arena_.view(slabs_)[resource];
    return arena_.view(util::ArenaSpan<AppRef>{s.begin, s.size});
  }
  /// Appends \p ref to a resident slab, growing it amortized (in place when
  /// the slab sits at the arena tip).
  void slab_push(std::size_t resource, AppRef ref);
  [[nodiscard]] std::size_t route_index(model::MachineId j1, model::MachineId j2) const noexcept {
    return static_cast<std::size_t>(j1) * num_machines() + static_cast<std::size_t>(j2);
  }

  const model::SystemModel* model_ = nullptr;
  util::Arena arena_;
  // Fixed header views (offsets never change after construction; the slab
  // pool grows past them at the tip).
  util::ArenaSpan<double> machine_util_;
  util::ArenaSpan<double> route_util_;  // M x M row-major; diagonal stays 0
  util::ArenaSpan<Slab> slabs_;         // M machine slabs, then M*M route slabs
  // Immutable CSR adjacency (outside the arena: snapshots never copy it).
  std::vector<std::uint32_t> app_base_;     ///< first global app index per string
  std::vector<std::uint32_t> incident_off_; ///< per global app, size apps + 1
  std::vector<model::AppIndex> incident_;   ///< edge indices, two per edge
  /// What the last add_string overwrote, in write order: the unified
  /// resource index and its utilization before the write.  Reserved in the
  /// constructor for the longest string's apps plus edges.
  struct JournalEntry {
    std::uint32_t resource;
    double before;
  };
  std::vector<JournalEntry> journal_;
  model::StringId journal_k_ = model::kInvalidId;  ///< string journal_ belongs to
};

}  // namespace tsce::analysis
