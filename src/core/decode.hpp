/// \file decode.hpp
/// Projection from the permutation space into the solution space (paper §5):
/// strings are handed to the IMR in a given order; after each string the
/// two-stage feasibility analysis runs on the intermediate mapping, and the
/// first failure terminates the process (partial allocation), leaving the
/// previous feasible mapping as the result.
///
/// The evaluation engine: search allocators decode millions of neighboring
/// permutations, so DecodeContext keeps one long-lived AllocationSession and
/// diffs each new order against the commit stack of the previous one.  Only
/// the divergent suffix is re-decoded; the longest common prefix is reused
/// verbatim.  Rewinding is a checkpoint restore (DESIGN.md §12): the context
/// keeps a per-depth SessionSnapshot stack, so dropping a suffix is a few
/// memcpys of flat state instead of replaying removals.  Observable state
/// after a restore is bit-identical to an exact-rollback rewind and to a
/// from-scratch decode of the shared prefix (the session's flat layout makes
/// the snapshot a byte image), so incremental results equal full re-decodes
/// exactly.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/session.hpp"
#include "core/imr.hpp"
#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"

namespace tsce::core {

struct DecodeResult {
  model::Allocation allocation;
  analysis::Fitness fitness;
  /// Number of strings deployed before the process stopped.
  std::size_t strings_deployed = 0;
  /// The string whose commit failed, or kInvalidId when every string fit.
  model::StringId first_failed = model::kInvalidId;
};

/// Allocation-free view of one decode: everything DecodeResult carries except
/// the allocation itself (readable from the context that produced it).
struct DecodeOutcome {
  analysis::Fitness fitness;
  std::size_t strings_deployed = 0;
  model::StringId first_failed = model::kInvalidId;
  /// Strings reused from the committed prefix of the previous decode.
  std::size_t prefix_reused = 0;

  /// Length of the prefix of the decoded order (of \p order_size strings)
  /// that determines this outcome: the deployed strings plus the one that
  /// failed, or the whole order when every string fit.
  [[nodiscard]] std::size_t decisive(std::size_t order_size) const noexcept {
    return first_failed == model::kInvalidId ? order_size : strings_deployed + 1;
  }
};

/// Reusable decoding state: a long-lived AllocationSession, the stack of
/// committed strings, and one SessionSnapshot per depth (checkpoints_[d] is
/// the session state with exactly the first d committed strings deployed).
/// A context is single-threaded; parallel evaluation uses one context per
/// worker (see BatchEvaluator in evaluator.hpp).
class DecodeContext {
 public:
  explicit DecodeContext(const model::SystemModel& model);
  /// Folds the lifetime counters into the process-wide obs::MetricsRegistry
  /// ("decode.calls" etc.) so the hot loop never touches shared state.
  ~DecodeContext();

  [[nodiscard]] const model::SystemModel& system() const noexcept {
    return session_.system();
  }

  /// Incremental primitive: IMR-maps string k onto the current utilization
  /// state and attempts the commit.  On success k joins the commit stack and
  /// the new depth is checkpointed.  The exact enumerator drives its
  /// depth-first search with these.
  bool try_push(model::StringId k);
  /// Uncommits the most recently pushed string (checkpoint restore).
  void pop();
  /// Rewinds until only \p prefix_len strings remain committed: restores the
  /// checkpoint taken when the prefix was first decoded — O(state bytes),
  /// independent of suffix length.
  void rewind_to(std::size_t prefix_len);

  /// Clones another context's decode state (session, commit stack, and the
  /// live checkpoints) into this one, reusing this context's buffers —
  /// O(state bytes) memcpys, allocation-free in steady state.  Both contexts
  /// must be built from the same SystemModel.  Replica-based engines
  /// (tempering, BatchEvaluator) use this to fan a decoded prototype out to
  /// workers instead of re-decoding per replica.
  void clone_state_from(const DecodeContext& other);
  /// Bytes one snapshot/clone copies (see AllocationSession::state_bytes).
  [[nodiscard]] std::size_t state_bytes() const noexcept {
    return session_.state_bytes();
  }

  /// Committed strings, in commit order.
  [[nodiscard]] std::span<const model::StringId> committed() const noexcept {
    return committed_;
  }
  [[nodiscard]] std::size_t depth() const noexcept { return committed_.size(); }

  [[nodiscard]] analysis::Fitness fitness() const noexcept {
    return session_.fitness();
  }
  [[nodiscard]] const model::Allocation& allocation() const noexcept {
    return session_.allocation();
  }
  [[nodiscard]] const analysis::UtilizationState& util() const noexcept {
    return session_.util();
  }

  /// Copies the current session state into a full DecodeResult using the
  /// outcome of the decode that produced it.
  [[nodiscard]] DecodeResult materialize(const DecodeOutcome& outcome) const;

  /// Lifetime counters (for benchmarks and engine introspection).  Thin
  /// shims over the context-local tallies that back the registry metrics;
  /// process-wide totals live in obs::MetricsRegistry.
  [[nodiscard]] std::size_t decodes() const noexcept { return decodes_; }
  [[nodiscard]] std::size_t commits_attempted() const noexcept {
    return commits_attempted_;
  }
  [[nodiscard]] std::size_t strings_reused() const noexcept { return reused_; }

 private:
  friend DecodeOutcome decode_order_into(DecodeContext& ctx,
                                         std::span<const model::StringId> order);

  analysis::AllocationSession session_;
  std::vector<model::StringId> committed_;
  /// checkpoints_[d] = session state at depth d, valid for d in [0, depth()].
  /// Snapshots reuse their buffers, so steady-state pushes don't allocate.
  std::vector<analysis::SessionSnapshot> checkpoints_;
  ImrScratch imr_scratch_;
  std::vector<model::MachineId> assignment_scratch_;
  std::size_t decodes_ = 0;
  std::size_t commits_attempted_ = 0;
  std::size_t reused_ = 0;
};

/// Decodes \p order into \p ctx, reusing the longest common prefix with the
/// context's committed stack: O(divergent suffix) instead of O(order length).
/// The result is bit-identical to decode_order on a fresh session.
DecodeOutcome decode_order_into(DecodeContext& ctx,
                                std::span<const model::StringId> order);

/// Decodes \p order (a permutation of string ids, possibly a prefix) on a
/// fresh session.  Thin wrapper over DecodeContext; search loops should hold
/// a context and call decode_order_into instead.
[[nodiscard]] DecodeResult decode_order(const model::SystemModel& model,
                                        std::span<const model::StringId> order);

/// Identity order 0..Q-1.
[[nodiscard]] std::vector<model::StringId> identity_order(
    const model::SystemModel& model);

}  // namespace tsce::core
