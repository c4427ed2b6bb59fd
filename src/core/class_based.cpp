#include "core/class_based.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "core/decode.hpp"
#include "core/evaluator.hpp"
#include "genitor/genitor.hpp"
#include "obs/trace.hpp"

namespace tsce::core {

using model::StringId;
using model::SystemModel;
using model::Worth;

namespace {

/// GENITOR problem over orderings of one worth class, evaluated by decoding
/// the frozen base order followed by the class ordering.  Every candidate
/// shares the frozen base as a prefix, so the context-based decode reuses it
/// across the whole search instead of re-deploying it per evaluation.
/// Satisfies genitor::BatchProblem: evaluate_batch() fans candidate sets
/// (the initial population) out across the BatchEvaluator's workers, with
/// byte-identical results at any eval_threads count.
class ClassOrderProblem {
 public:
  using Chromosome = std::vector<StringId>;
  using Fitness = analysis::Fitness;

  ClassOrderProblem(const SystemModel& model, const std::vector<StringId>& base,
                    std::vector<StringId> members, std::size_t eval_threads)
      : base_(&base), members_(std::move(members)),
        evaluator_(model, eval_threads) {}

  [[nodiscard]] Fitness evaluate(const Chromosome& order) const {
    full_.assign(base_->begin(), base_->end());
    full_.insert(full_.end(), order.begin(), order.end());
    return decode_order_into(evaluator_.context(0), full_).fitness;
  }

  [[nodiscard]] std::vector<Fitness> evaluate_batch(
      std::span<const Chromosome> batch) const {
    std::vector<Chromosome> full_orders(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      full_orders[i].reserve(base_->size() + batch[i].size());
      full_orders[i].assign(base_->begin(), base_->end());
      full_orders[i].insert(full_orders[i].end(), batch[i].begin(),
                            batch[i].end());
    }
    return evaluator_.evaluate_fitness(full_orders);
  }

  [[nodiscard]] std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                                            const Chromosome& b,
                                                            util::Rng& rng) const {
    if (a.size() < 2) return {a, b};
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(a.size()) - 1));
    return {PermutationProblem::reorder_top(a, b, cut),
            PermutationProblem::reorder_top(b, a, cut)};
  }

  [[nodiscard]] Chromosome mutate(const Chromosome& c, util::Rng& rng) const {
    Chromosome child = c;
    if (child.size() < 2) return child;
    const std::size_t i = rng.bounded(child.size());
    std::size_t j = rng.bounded(child.size());
    while (j == i) j = rng.bounded(child.size());
    std::swap(child[i], child[j]);
    return child;
  }

  [[nodiscard]] Chromosome random_chromosome(util::Rng& rng) const {
    Chromosome c = members_;
    rng.shuffle(c);
    return c;
  }

 private:
  const std::vector<StringId>* base_;
  std::vector<StringId> members_;
  mutable BatchEvaluator evaluator_;
  mutable std::vector<StringId> full_;
};

}  // namespace

AllocatorResult ClassBasedAllocator::allocate(const SystemModel& model,
                                              util::Rng& rng) const {
  static constexpr std::array<Worth, 3> kClassOrder = {Worth::kHigh, Worth::kMedium,
                                                       Worth::kLow};
  std::vector<StringId> committed;  // deployed strings of frozen classes
  std::size_t evaluations = 0;

  std::size_t class_index = 0;
  const obs::PhaseId phase = obs::intern_phase("ClassBased");
  for (const Worth worth_class : kClassOrder) {
    std::vector<StringId> members;
    for (std::size_t k = 0; k < model.num_strings(); ++k) {
      if (model.strings[k].worth == worth_class) {
        members.push_back(static_cast<StringId>(k));
      }
    }
    if (members.empty()) continue;
    obs::Span span(obs::FrKind::kSearchClass, phase, class_index++,
                   members.size());

    std::vector<StringId> best_class_order;
    if (members.size() == 1) {
      best_class_order = members;
      ++evaluations;
    } else {
      const ClassOrderProblem problem(model, committed, members,
                                      options_.eval_threads);
      genitor::Config config = options_.ga;
      config.population_size = std::min<std::size_t>(
          config.population_size, std::max<std::size_t>(4, members.size() * 4));
      genitor::Genitor<ClassOrderProblem> ga(problem, config);
      analysis::Fitness best_fitness{};
      bool have_best = false;
      const std::size_t trace_class = class_index - 1;
      for (std::size_t trial = 0; trial < std::max<std::size_t>(1, options_.trials);
           ++trial) {
        util::Rng trial_rng = rng.spawn();
        auto ga_result = ga.run(
            trial_rng, {},
            [&](std::size_t iteration, const analysis::Fitness& elite) {
              obs::trace_improve(phase, trace_class, iteration,
                                 elite.total_worth, elite.slackness);
            });
        evaluations += ga_result.evaluations;
        if (!have_best || best_fitness < ga_result.best_fitness) {
          best_fitness = ga_result.best_fitness;
          best_class_order = std::move(ga_result.best);
          have_best = true;
        }
      }
    }

    // Freeze the deployed prefix of the class: strings the decode rejected
    // are dropped (the class scheme never revisits them).
    std::vector<StringId> full = committed;
    full.insert(full.end(), best_class_order.begin(), best_class_order.end());
    const DecodeResult decoded = decode_order(model, full);
    for (const StringId k : best_class_order) {
      if (decoded.allocation.deployed(k)) committed.push_back(k);
    }
  }

  DecodeResult final_decode = decode_order(model, committed);
  AllocatorResult result;
  result.allocation = std::move(final_decode.allocation);
  result.fitness = final_decode.fitness;
  result.order = std::move(committed);
  result.evaluations = evaluations + 1;
  return result;
}

}  // namespace tsce::core
