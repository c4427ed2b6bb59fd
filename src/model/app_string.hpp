/// \file app_string.hpp
/// An application string S^k: a continuously executing set of periodic
/// applications connected by data transfers (paper §2).  The paper's strings
/// are chains; its footnote 2 expects DAGs of applications, so a string
/// carries an explicit edge list and a chain is simply the path whose edge e
/// runs from app e to app e+1.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/application.hpp"
#include "model/types.hpp"

namespace tsce::model {

/// Worth factors I[k] take one of three values (paper §2).
enum class Worth : std::int32_t {
  kLow = 1,
  kMedium = 10,
  kHigh = 100,
};

[[nodiscard]] constexpr int worth_value(Worth w) noexcept {
  return static_cast<int>(w);
}

/// One data transfer: application \p from sends \p kbytes (O in the paper)
/// to application \p to once per period.
struct Edge {
  AppIndex from = 0;
  AppIndex to = 0;
  double kbytes = 0.0;
  friend bool operator==(const Edge&, const Edge&) = default;
};

struct AppString {
  /// Applications a_1^k ... a_n^k.
  std::vector<Application> apps;
  /// Data transfers, strictly increasing in (from, to) with from < to
  /// (SystemModel::validate() enforces both), so application index order is
  /// a topological order and every edge follows its sender in sweep().
  std::vector<Edge> edges;
  /// Period P[k] in seconds: each application executes once per period and the
  /// minimum throughput constraint bounds every computation/transfer by P[k].
  double period_s = 0.0;
  /// End-to-end latency bound Lmax[k] in seconds.
  double max_latency_s = 0.0;
  /// Importance I[k].
  Worth worth = Worth::kLow;
  /// Optional human-readable label.
  std::string name;

  [[nodiscard]] std::size_t size() const noexcept { return apps.size(); }
  [[nodiscard]] int worth_factor() const noexcept { return worth_value(worth); }

  /// True when the string is a chain: edge e runs from app e to app e+1.
  [[nodiscard]] bool is_path() const noexcept {
    if (edges.size() + 1 != std::max<std::size_t>(apps.size(), 1)) return false;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].from != static_cast<AppIndex>(e) ||
          edges[e].to != static_cast<AppIndex>(e + 1)) {
        return false;
      }
    }
    return true;
  }
};

/// Visits \p s in sweep order: every application in index order, each
/// followed by its outgoing edges in list order.  With validated edges this
/// is a topological order of applications and transfers, and on a chain it
/// is a_0, O_0, a_1, O_1, ... — the order every chain fold has always used.
template <typename OnApp, typename OnEdge>
void sweep(const AppString& s, OnApp&& on_app, OnEdge&& on_edge) {
  std::size_t e = 0;
  for (std::size_t i = 0; i < s.apps.size(); ++i) {
    on_app(i);
    for (; e < s.edges.size() && s.edges[e].from == static_cast<AppIndex>(i); ++e) {
      on_edge(e);
    }
  }
}

/// Longest path through \p s with per-application durations comp(i) and
/// per-edge durations tran(e), in one sweep: start[v] is the latest arrival
/// finish(from) + tran(e) over v's incoming edges (0 for a source) and
/// finish(v) = start[v] + comp(v).  Returns the largest finish.  On a chain
/// this is the left fold comp(0) + tran(0) + comp(1) + ..., bit for bit.
/// \p start must hold s.size() entries; when \p pred is non-empty it must
/// too, and pred[v] receives the incoming edge that set start[v]
/// (kInvalidId for a source).
template <typename Comp, typename Tran>
double longest_path(const AppString& s, Comp&& comp, Tran&& tran,
                    std::span<double> start, std::span<AppIndex> pred = {}) noexcept {
  std::fill_n(start.begin(), s.size(), 0.0);
  if (!pred.empty()) std::fill_n(pred.begin(), s.size(), kInvalidId);
  double longest = 0.0;
  double finish = 0.0;  // of the application whose out-edges are being swept
  sweep(
      s,
      [&](std::size_t i) {
        finish = start[i] + comp(i);
        longest = std::max(longest, finish);
      },
      [&](std::size_t e) {
        const auto to = static_cast<std::size_t>(s.edges[e].to);
        const double arrival = finish + tran(e);
        if (arrival > start[to]) {
          start[to] = arrival;
          if (!pred.empty()) pred[to] = static_cast<AppIndex>(e);
        }
      });
  return longest;
}

}  // namespace tsce::model
