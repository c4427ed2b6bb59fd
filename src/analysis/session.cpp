#include "analysis/session.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "analysis/estimates.hpp"
#include "analysis/feasibility.hpp"
#include "analysis/tightness.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/hot.hpp"

namespace tsce::analysis {

using model::Allocation;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

namespace {

/// Feasibility-rejection tallies, by cause, and commit latency.  Handles are
/// resolved once; updates are thread-local (see obs/metrics.hpp).
struct SessionMetrics {
  obs::Counter& reject_utilization;  ///< stage one: resource over 100%
  obs::Counter& reject_throughput;   ///< stage two: eq. (1) period overrun
  obs::Counter& reject_latency;      ///< stage two: eq. (1) latency overrun
  obs::Histogram& commit_latency_ns;  ///< wall clock per try_commit call

  static SessionMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static SessionMetrics m{reg.counter(obs::names::kSessionRejectUtilization),
                            reg.counter(obs::names::kSessionRejectThroughput),
                            reg.counter(obs::names::kSessionRejectLatency),
                            reg.histogram(obs::names::kSessionCommitLatencyNs)};
    return m;
  }
};

/// FrKind::kCommitReject violation-class payload (0 = stage-one utilization).
enum : std::uint64_t {
  kFrViolationUtilization = 1,
  kFrViolationThroughput = 2,
  kFrViolationLatency = 3,
};

}  // namespace

AllocationSession::AllocationSession(const SystemModel& model, PriorityRule rule)
    : model_(&model),
      rule_(rule),
      alloc_(model),
      util_(model),
      t_of_(model.num_strings(), std::numeric_limits<double>::quiet_NaN()) {
  const std::size_t q = model.num_strings();
  app_off_.resize(q + 1);
  tran_off_.resize(q + 1);
  std::uint32_t apps = 0;
  std::uint32_t trans = 0;
  std::size_t longest = 0;
  for (std::size_t k = 0; k < q; ++k) {
    app_off_[k] = apps;
    tran_off_[k] = trans;
    apps += static_cast<std::uint32_t>(model.strings[k].size());
    trans += static_cast<std::uint32_t>(model.strings[k].edges.size());
    longest = std::max(longest, model.strings[k].size());
  }
  app_off_[q] = apps;
  tran_off_[q] = trans;
  comp_.assign(apps, std::numeric_limits<double>::quiet_NaN());
  tran_.assign(trans, std::numeric_limits<double>::quiet_NaN());
  touched_machines_.reserve(model.num_machines());
  touched_routes_.reserve(model.num_machines() * model.num_machines());
  affected_strings_.reserve(q);
  comp_journal_.reserve(apps);
  tran_journal_.reserve(trans);
  path_start_.resize(longest);
  path_pred_.resize(longest);
}

void AllocationSession::snapshot_into(SessionSnapshot& out) const {
  out.alloc = alloc_;  // flat vectors: buffer-reusing copies
  util_.snapshot_into(out.util);
  out.t_of = t_of_;
  out.comp = comp_;
  out.tran = tran_;
}

void AllocationSession::restore_from(const SessionSnapshot& snap) {
  alloc_ = snap.alloc;
  util_.restore_from(snap.util);
  t_of_ = snap.t_of;
  comp_ = snap.comp;
  tran_ = snap.tran;
}

std::size_t AllocationSession::state_bytes() const noexcept {
  return util_.state_bytes() +
         (t_of_.size() + comp_.size() + tran_.size()) * sizeof(double) +
         app_off_.back() * sizeof(MachineId) + t_of_.size();  // alloc flat + flags
}

TSCE_HOT void AllocationSession::note_touched(StringId k,
                                             std::span<const MachineId> assignment) {
  const auto& s = model_->strings[static_cast<std::size_t>(k)];
  for (const MachineId j : assignment) {
    if (std::find(touched_machines_.begin(), touched_machines_.end(), j) ==
        touched_machines_.end()) {
      touched_machines_.push_back(j);
    }
  }
  for (const model::Edge& e : s.edges) {
    const auto route = std::make_pair(assignment[static_cast<std::size_t>(e.from)],
                                      assignment[static_cast<std::size_t>(e.to)]);
    if (route.first != route.second &&
        std::find(touched_routes_.begin(), touched_routes_.end(), route) ==
            touched_routes_.end()) {
      touched_routes_.push_back(route);
    }
  }
}

TSCE_HOT bool AllocationSession::try_commit(StringId k,
                                            const std::vector<MachineId>& assignment) {
  const std::uint64_t t0 = obs::clock_ticks();
  const auto ku = static_cast<std::size_t>(k);
  assert(!alloc_.deployed(k));
  assert(assignment.size() == model_->strings[ku].size());

  // Record the tentative assignment.  Stale affected/journal entries from a
  // previous commit would poison a stage-one rollback, so clear them up front.
  affected_strings_.clear();
  comp_journal_.clear();
  tran_journal_.clear();
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assert(assignment[i] != model::kUnassigned);
    alloc_.assign(k, static_cast<AppIndex>(i), assignment[i]);
  }
  alloc_.set_deployed(k, true);
  util_.add_string(alloc_, k);

  // Resources touched by this string.
  touched_machines_.clear();
  touched_routes_.clear();
  note_touched(k, assignment);

  // Stage one on touched resources only (others are unchanged).
  bool ok = true;
  for (const MachineId j : touched_machines_) {
    if (!within(util_.machine_util(j), 1.0)) ok = false;
  }
  for (const auto& [j1, j2] : touched_routes_) {
    if (!within(util_.route_util(j1, j2), 1.0)) ok = false;
  }

  std::uint64_t fr_violation = kFrViolationUtilization;
  if (!ok) {
    SessionMetrics::get().reject_utilization.add(1);
  } else {
    t_of_[ku] = priority_value(*model_, alloc_, k, rule_, path_start_);
    const ConstraintViolation violation = stage_two_after_add(k);
    ok = violation == ConstraintViolation::kNone;
    if (violation == ConstraintViolation::kThroughput) {
      SessionMetrics::get().reject_throughput.add(1);
      fr_violation = kFrViolationThroughput;
    } else if (violation == ConstraintViolation::kLatency) {
      SessionMetrics::get().reject_latency.add(1);
      fr_violation = kFrViolationLatency;
    }
  }

  if (!ok) {
    // Roll back: undo the utilization add and restore the estimate slots
    // stage two delta-updated from the journals.  Walking backwards makes
    // repeated touches of one slot land on its oldest (pre-commit) value, so
    // the restore is bit-exact; k's own slots are left stale (unreadable
    // until its next deploy refreshes them).
    util_.undo_add(k);
    alloc_.clear_string(k);
    t_of_[ku] = std::numeric_limits<double>::quiet_NaN();
    for (auto it = comp_journal_.rbegin(); it != comp_journal_.rend(); ++it) {
      comp_[it->first] = it->second;
    }
    for (auto it = tran_journal_.rbegin(); it != tran_journal_.rend(); ++it) {
      tran_[it->first] = it->second;
    }
    SessionMetrics::get().commit_latency_ns.record(
        obs::ticks_to_ns(obs::clock_ticks() - t0));
    obs::flight_recorder_record(obs::FrKind::kCommitReject,
                                static_cast<std::uint64_t>(k), fr_violation);
    return false;
  }
  SessionMetrics::get().commit_latency_ns.record(
      obs::ticks_to_ns(obs::clock_ticks() - t0));
  return true;
}

TSCE_HOT ConstraintViolation AllocationSession::stage_two_after_add(StringId k) {
  // Only two kinds of strings see their estimates change when k commits:
  //
  //  * k itself — estimated from scratch below;
  //  * residents z of k's resources over which k takes scheduling priority.
  //    A resident with priority above k never waits on k, so its eq. (5)-(6)
  //    sums gain no term — and a string with unchanged estimates cannot newly
  //    violate eq. (1) (it passed when it was committed), so it needs neither
  //    a refresh nor a re-check.
  //
  // Preempted residents are updated by a delta, not a rescan: a full re-sum
  // walks the resident slab in order and k's entries sit at the slab tail, so
  // re-sum = (cached value) + (k's terms, in k-app order) by left-to-right
  // float associativity — adding the terms to the cached slot is bit-exact.
  // Old slot values are journaled first so a stage-two rejection can restore
  // them exactly (float subtraction would leave residue).
  affected_strings_.clear();
  comp_journal_.clear();
  tran_journal_.clear();
  const auto ku = static_cast<std::size_t>(k);
  const auto& sk = model_->strings[ku];
  const double t_k = t_of_[ku];
  auto note = [&](StringId z) {
    if (std::find(affected_strings_.begin(), affected_strings_.end(), z) ==
        affected_strings_.end()) {
      affected_strings_.push_back(z);
    }
  };
  note(k);
  model::sweep(
      sk,
      [&](std::size_t p) {
        const MachineId j = alloc_.machine_of(k, static_cast<AppIndex>(p));
        for (const AppRef& ref : util_.apps_on(j)) {
          if (ref.k == k) continue;
          const auto zu = static_cast<std::size_t>(ref.k);
          if (!higher_priority(t_k, k, t_of_[zu], ref.k)) continue;
          note(ref.k);
          const std::uint32_t slot = app_off_[zu] + static_cast<std::uint32_t>(ref.i);
          comp_journal_.emplace_back(slot, comp_[slot]);
          comp_[slot] += (model_->strings[zu].period_s / sk.period_s) *
                         sk.apps[p].cpu_work(static_cast<std::size_t>(j));
        }
      },
      [&](std::size_t e) {
        const MachineId j1 = alloc_.machine_of(k, sk.edges[e].from);
        const MachineId j2 = alloc_.machine_of(k, sk.edges[e].to);
        if (j1 == j2) return;
        const double w = model_->network.bandwidth_mbps(j1, j2);
        const double mbits = model::kbytes_to_megabits(sk.edges[e].kbytes);
        for (const AppRef& ref : util_.transfers_on(j1, j2)) {
          if (ref.k == k) continue;
          const auto zu = static_cast<std::size_t>(ref.k);
          if (!higher_priority(t_k, k, t_of_[zu], ref.k)) continue;
          note(ref.k);
          const std::uint32_t slot = tran_off_[zu] + static_cast<std::uint32_t>(ref.i);
          tran_journal_.emplace_back(slot, tran_[slot]);
          tran_[slot] += (model_->strings[zu].period_s / sk.period_s) * mbits / w;
        }
      });

  refresh_estimates_of(k);
  for (const StringId z : affected_strings_) {
    const ConstraintViolation violation = constraint_violation(z);
    if (violation != ConstraintViolation::kNone) return violation;
  }
  return ConstraintViolation::kNone;
}

TSCE_HOT void AllocationSession::refresh_estimates_of(StringId z) {
  // Full per-string refresh: strings are short (<= ~10 apps), so recomputing
  // the whole string is cheaper than tracking which of its apps were touched.
  // The flat slices are fixed-size (prefix-sum layout), so this writes in
  // place — no resize, no allocation.
  const auto zu = static_cast<std::size_t>(z);
  const auto& s = model_->strings[zu];
  double* const comp = comp_.data() + app_off_[zu];
  double* const tran = tran_.data() + tran_off_[zu];
  for (std::size_t i = 0; i < s.size(); ++i) {
    comp[i] = estimate_comp_time(*model_, alloc_, util_, t_of_, z,
                                 static_cast<AppIndex>(i));
  }
  for (std::size_t e = 0; e < s.edges.size(); ++e) {
    tran[e] = estimate_tran_time(*model_, alloc_, util_, t_of_, z,
                                 static_cast<AppIndex>(e));
  }
}

TSCE_HOT ConstraintViolation AllocationSession::constraint_violation(
    StringId z) const noexcept {
  const auto& s = model_->strings[static_cast<std::size_t>(z)];
  // The sum over the whole string folds the critical path's terms in the
  // same order plus nonnegative extras, so (rounding being monotone) it
  // bounds the critical-path latency from above: only a string whose sum
  // fails needs the path itself.  On a chain the two are the same number.
  double total = 0.0;
  for (const double c : comp_estimates(z)) {
    if (!within(c, s.period_s)) return ConstraintViolation::kThroughput;
    total += c;
  }
  for (const double t : tran_estimates(z)) {
    if (!within(t, s.period_s)) return ConstraintViolation::kThroughput;
    total += t;
  }
  if (within(total, s.max_latency_s)) return ConstraintViolation::kNone;
  const double latency = critical_path_latency(s, comp_estimates(z), tran_estimates(z),
                                               path_start_, path_pred_);
  return within(latency, s.max_latency_s) ? ConstraintViolation::kNone
                                          : ConstraintViolation::kLatency;
}

}  // namespace tsce::analysis
