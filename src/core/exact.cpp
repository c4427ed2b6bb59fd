#include "core/exact.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/decode.hpp"
#include "core/evaluator.hpp"
#include "obs/trace.hpp"

namespace tsce::core {

using analysis::Fitness;
using model::StringId;
using model::SystemModel;

namespace {

/// Depth-first enumeration state on top of the incremental decode engine:
/// DecodeContext supplies push/pop string commits, so each tree edge costs
/// one IMR mapping plus the suffix-local feasibility re-analysis.  The
/// context is borrowed (not owned) so the search can run one enumerator per
/// top-level branch on a worker's long-lived context.
class Enumerator {
 public:
  Enumerator(const SystemModel& model, DecodeContext& ctx,
             std::size_t max_evaluations, obs::PhaseId phase)
      : model_(model), ctx_(ctx), max_evaluations_(max_evaluations),
        phase_(phase), used_(model.num_strings(), false) {
    remaining_worth_ = model.total_worth_available();
  }

  /// Enumerates only the orderings that start with string \p k — one
  /// top-level branch of the tree, self-contained so branches can run as
  /// independent tasks.  The root commit is charged like any tree edge; a
  /// failing root commit reduces the branch to the empty prefix (every
  /// completion of it decodes to the empty allocation).
  void run_branch(StringId k) {
    ++evaluations_;
    const int worth_k = model_.strings[static_cast<std::size_t>(k)].worth_factor();
    if (ctx_.try_push(k)) {
      used_[static_cast<std::size_t>(k)] = true;
      remaining_worth_ -= worth_k;
      descend();
      remaining_worth_ += worth_k;
      used_[static_cast<std::size_t>(k)] = false;
      ctx_.pop();
    } else {
      consider(ctx_.fitness());
    }
  }

  [[nodiscard]] const model::Allocation& best_allocation() const noexcept {
    return best_allocation_;
  }
  [[nodiscard]] Fitness best_fitness() const noexcept { return best_fitness_; }
  [[nodiscard]] const std::vector<StringId>& best_order() const noexcept {
    return best_order_;
  }
  [[nodiscard]] bool have_best() const noexcept { return have_best_; }
  [[nodiscard]] std::size_t evaluations() const noexcept { return evaluations_; }

 private:
  void consider(const Fitness& fitness) {
    if (!have_best_ || best_fitness_ < fitness) {
      best_fitness_ = fitness;
      best_allocation_ = ctx_.allocation();
      best_order_.assign(ctx_.committed().begin(), ctx_.committed().end());
      have_best_ = true;
      obs::trace_improve(phase_, 0, evaluations_, best_fitness_.total_worth,
                         best_fitness_.slackness);
    }
  }

  void descend() {
    if (evaluations_ >= max_evaluations_) return;
    // Bound: even deploying every remaining string cannot beat the best.
    const Fitness current = ctx_.fitness();
    if (have_best_ &&
        current.total_worth + remaining_worth_ < best_fitness_.total_worth) {
      return;
    }
    bool leaf = true;
    const auto q = static_cast<StringId>(model_.num_strings());
    for (StringId k = 0; k < q; ++k) {
      if (used_[static_cast<std::size_t>(k)]) continue;
      leaf = false;
      ++evaluations_;
      const int worth_k = model_.strings[static_cast<std::size_t>(k)].worth_factor();
      if (ctx_.try_push(k)) {
        used_[static_cast<std::size_t>(k)] = true;
        remaining_worth_ -= worth_k;
        descend();
        remaining_worth_ += worth_k;
        used_[static_cast<std::size_t>(k)] = false;
        ctx_.pop();
      } else {
        // The sequential decode stops at the first infeasible string: every
        // completion of this prefix ending in k has the current value.
        consider(current);
      }
      if (evaluations_ >= max_evaluations_) return;
    }
    if (leaf) consider(current);
  }

  const SystemModel& model_;
  DecodeContext& ctx_;
  std::size_t max_evaluations_;
  std::size_t evaluations_ = 0;
  obs::PhaseId phase_;
  std::vector<bool> used_;
  int remaining_worth_ = 0;

  bool have_best_ = false;
  Fitness best_fitness_{};
  model::Allocation best_allocation_;
  std::vector<StringId> best_order_;
};

}  // namespace

AllocatorResult ExactPermutationSearch::allocate(const SystemModel& model,
                                                 util::Rng& /*rng*/) const {
  if (model.num_strings() > options_.max_strings) {
    throw std::invalid_argument(
        "ExactPermutationSearch: instance too large (" +
        std::to_string(model.num_strings()) + " strings > max " +
        std::to_string(options_.max_strings) + ")");
  }
  const obs::PhaseId phase = obs::intern_phase("Exact");
  obs::Span span(obs::FrKind::kSearchExact, phase, options_.threads);
  // The top level of the tree is split into one task per first string, each
  // enumerated independently with its own bound and an equal slice of the
  // evaluation budget, so no task's pruning depends on another task's timing.
  // The fold walks branches in index order (strictly-better wins), which
  // makes the result byte-identical at any worker count.  Per-branch bounds
  // prune less than one global bound would; that is the price of schedule
  // independence.
  const std::size_t q = model.num_strings();
  struct Branch {
    Fitness fitness{};
    model::Allocation allocation;
    std::vector<StringId> order;
    std::size_t evaluations = 0;
    bool have = false;
  };
  std::vector<Branch> branches(q);
  const std::size_t slice = std::max<std::size_t>(
      1, options_.max_evaluations / std::max<std::size_t>(1, q));
  BatchEvaluator evaluator(model, options_.threads);
  evaluator.for_each(q, [&](std::size_t k, DecodeContext& ctx) {
    obs::Span branch_span(obs::FrKind::kSearchExactBranch, phase, k);
    ctx.rewind_to(0);
    Enumerator enumerator(model, ctx, slice, phase);
    enumerator.run_branch(static_cast<StringId>(k));
    branches[k].fitness = enumerator.best_fitness();
    branches[k].allocation = enumerator.best_allocation();
    branches[k].order = enumerator.best_order();
    branches[k].evaluations = enumerator.evaluations();
    branches[k].have = enumerator.have_best();
    branch_span.set(std::uint64_t{enumerator.evaluations()});
  });

  // Seed the reduction with the empty prefix, then fold branches in index
  // order.
  AllocatorResult result;
  DecodeResult root = decode_order(model, {});
  result.allocation = std::move(root.allocation);
  result.fitness = root.fitness;
  result.order.clear();
  std::size_t evaluations = 0;
  for (std::size_t k = 0; k < q; ++k) {
    evaluations += branches[k].evaluations;
    if (branches[k].have && result.fitness < branches[k].fitness) {
      result.fitness = branches[k].fitness;
      result.allocation = std::move(branches[k].allocation);
      result.order = std::move(branches[k].order);
    }
  }
  result.evaluations = evaluations;
  span.set(std::uint64_t{evaluations});
  return result;
}

}  // namespace tsce::core
