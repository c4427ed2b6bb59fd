/// \file evaluator.hpp
/// Batch-parallel candidate evaluation for the permutation searches.
///
/// BatchEvaluator owns a util::ThreadPool and one DecodeContext per worker.
/// Work items are pulled from a shared atomic cursor, but every result slot
/// is written by index, and the prefix-reuse decode is bit-exact regardless
/// of what a worker's context evaluated before (see decode.hpp) — so the
/// output is byte-identical at 1 thread and at N threads, for any work
/// schedule.  Determinism contract: anything randomized inside a work item
/// must derive its generator from the item index (util::Rng::stream), never
/// from a shared stream.

#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "analysis/metrics.hpp"
#include "core/decode.hpp"
#include "model/system_model.hpp"
#include "util/thread_pool.hpp"

namespace tsce::core {

class BatchEvaluator {
 public:
  /// \p threads = 1 runs inline with no pool (the serial engine); 0 uses
  /// std::thread::hardware_concurrency().
  explicit BatchEvaluator(const model::SystemModel& model, std::size_t threads = 1);

  [[nodiscard]] std::size_t num_workers() const noexcept { return contexts_.size(); }

  /// Worker w's context (w < num_workers()).  Serial callers share worker 0.
  [[nodiscard]] DecodeContext& context(std::size_t w) noexcept { return *contexts_[w]; }

  /// Decodes every order; result i is bit-identical to decode_order(model,
  /// orders[i]) at any thread count.
  [[nodiscard]] std::vector<DecodeOutcome> evaluate(
      std::span<const std::vector<model::StringId>> orders);

  /// Fitness-only convenience over evaluate().
  [[nodiscard]] std::vector<analysis::Fitness> evaluate_fitness(
      std::span<const std::vector<model::StringId>> orders);

  /// Deterministic parallel map: runs fn(item, ctx) for item in [0, count)
  /// with some worker's context.  fn must write its result into a slot keyed
  /// by item and must not touch shared mutable state; per-item randomness
  /// must come from util::Rng::stream(seed, item).
  template <typename Fn>
  void for_each(std::size_t count, Fn&& fn) {
    if (!pool_) {
      for (std::size_t i = 0; i < count; ++i) fn(i, *contexts_[0]);
      return;
    }
    std::atomic<std::size_t> cursor{0};
    std::vector<std::future<void>> done;
    done.reserve(contexts_.size());
    for (std::size_t w = 0; w < contexts_.size(); ++w) {
      done.push_back(pool_->submit([this, w, count, &cursor, &fn] {
        DecodeContext& ctx = *contexts_[w];
        for (std::size_t i = cursor.fetch_add(1); i < count;
             i = cursor.fetch_add(1)) {
          fn(i, ctx);
        }
      }));
    }
    util::ThreadPool::drain(done);  // joins every worker, then rethrows
  }

 private:
  std::vector<std::unique_ptr<DecodeContext>> contexts_;
  std::unique_ptr<util::ThreadPool> pool_;  // null in serial mode
};

}  // namespace tsce::core
