/// \file genitor.hpp
/// GENITOR: a steady-state, rank-based genetic search framework
/// (Whitley 1989), used by the PSG / Seeded PSG heuristics (paper §5).
///
/// The population is kept sorted best-first.  Each iteration performs one
/// crossover (two parents chosen by the linear bias function, two offspring
/// each competing against the worst member) followed by one mutation (one
/// biased pick, one offspring competing the same way).  Elitism is implicit:
/// only the worst member is ever removed.  Stopping conditions match the
/// paper: an iteration budget, a stagnation limit on the elite, or full
/// population convergence.
///
/// The framework is problem-agnostic: a Problem type supplies the chromosome
/// representation and the evaluate / crossover / mutate operators.
///
/// Decisive prefixes: a PrefixProblem also reports, per evaluation, how long
/// a chromosome prefix its fitness depends on.  An offspring that agrees with
/// one of its parents on that parent's decisive prefix has the parent's
/// fitness exactly, so it inherits it instead of being evaluated.  Every RNG
/// draw, competition and result is the same as with full evaluation; only
/// the evaluate() calls are saved.

#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace tsce::genitor {

/// Whitley's linear bias function: maps a uniform draw u in [0,1) to a
/// population rank in [0, n).  A bias of 1.5 makes the top-ranked chromosome
/// 1.5x more likely to be selected than the median.  bias must lie in (1, 2].
[[nodiscard]] inline std::size_t biased_rank(std::size_t n, double bias,
                                             double u) noexcept {
  const double b = bias;
  const double x = static_cast<double>(n) *
                   (b - std::sqrt(b * b - 4.0 * (b - 1.0) * u)) / (2.0 * (b - 1.0));
  auto rank = static_cast<std::size_t>(x);
  return rank >= n ? n - 1 : rank;
}

struct Config {
  std::size_t population_size = 250;
  double bias = 1.6;
  /// One iteration = one crossover + one mutation (paper §5).
  std::size_t max_iterations = 5000;
  /// Stop after this many iterations without a change of the elite.
  std::size_t stagnation_limit = 300;
};

enum class StopReason {
  kIterationBudget,
  kStagnation,
  kConverged,
};

template <typename P>
concept Problem = requires(const P& p, const typename P::Chromosome& c,
                           util::Rng& rng) {
  { p.evaluate(c) } -> std::convertible_to<typename P::Fitness>;
  {
    p.crossover(c, c, rng)
  } -> std::convertible_to<std::pair<typename P::Chromosome, typename P::Chromosome>>;
  { p.mutate(c, rng) } -> std::convertible_to<typename P::Chromosome>;
  { p.random_chromosome(rng) } -> std::convertible_to<typename P::Chromosome>;
};

/// A PrefixProblem evaluation: the fitness is a function of the chromosome's
/// first \p decisive genes alone.
template <typename F>
struct Evaluation {
  F fitness;
  std::size_t decisive = 0;
};

/// Problems whose fitness depends only on a chromosome prefix (a random-access
/// sequence), which they report with each evaluation.  evaluate_prefix must be
/// a pure function of that prefix, and its fitness must equal evaluate()'s;
/// the batch form must match per-chromosome evaluate_prefix exactly.
template <typename P>
concept PrefixProblem =
    Problem<P> && requires(const P& p, const typename P::Chromosome& c,
                           std::span<const typename P::Chromosome> batch) {
      { p.evaluate_prefix(c) } -> std::convertible_to<Evaluation<typename P::Fitness>>;
      {
        p.evaluate_prefix_batch(batch)
      } -> std::convertible_to<std::vector<Evaluation<typename P::Fitness>>>;
    };

/// Problems that can evaluate a whole batch at once (e.g. across a
/// BatchEvaluator's workers).  The framework uses this for the initial
/// population, where all chromosomes are known up front; results must match
/// per-chromosome evaluate() exactly.
template <typename P>
concept BatchProblem =
    Problem<P> && requires(const P& p, std::span<const typename P::Chromosome> batch) {
      { p.evaluate_batch(batch) } -> std::convertible_to<std::vector<typename P::Fitness>>;
    };

template <Problem P>
struct Result {
  typename P::Chromosome best;
  typename P::Fitness best_fitness;
  std::size_t iterations = 0;
  /// Offspring scored, inherited ones included (the budget counts these).
  std::size_t evaluations = 0;
  /// Offspring that took a parent's fitness instead of being evaluated
  /// (PrefixProblems only; always <= evaluations).
  std::size_t inherited = 0;
  StopReason stop_reason = StopReason::kIterationBudget;
};

template <Problem P>
class Genitor {
 public:
  using Chromosome = typename P::Chromosome;
  using Fitness = typename P::Fitness;

  Genitor(const P& problem, Config config) : problem_(problem), config_(config) {}

  /// Runs the search.  \p seeds are inserted into the initial population
  /// verbatim (Seeded PSG); the remainder is random.
  [[nodiscard]] Result<P> run(util::Rng& rng,
                              const std::vector<Chromosome>& seeds = {}) {
    return run(rng, seeds, [](std::size_t, const Fitness&) {});
  }

  /// Observer variant: \p observe(iteration, elite_fitness) is invoked once
  /// after the initial population (iteration 0) and whenever the elite
  /// improves.  The default overload passes a no-op lambda, so callers that
  /// don't observe pay nothing.  Keeps this framework telemetry-agnostic:
  /// the obs wiring lives in the callers (PSG, class-based).
  template <typename Obs>
    requires std::invocable<Obs&, std::size_t, const Fitness&>
  [[nodiscard]] Result<P> run(util::Rng& rng, const std::vector<Chromosome>& seeds,
                              Obs&& observe) {
    Result<P> result;
    population_.clear();
    population_.reserve(config_.population_size);
    // All initial chromosomes are known before any evaluation (random ones
    // draw no fitness-dependent state), so they can be evaluated as one
    // batch — in parallel when the problem supports it.
    std::vector<Chromosome> initial;
    initial.reserve(config_.population_size);
    for (const Chromosome& seed : seeds) {
      if (initial.size() == config_.population_size) break;
      initial.push_back(seed);
    }
    while (initial.size() < config_.population_size) {
      initial.push_back(problem_.random_chromosome(rng));
    }
    result.evaluations += initial.size();
    if constexpr (PrefixProblem<P>) {
      std::vector<Evaluation<Fitness>> scored = problem_.evaluate_prefix_batch(initial);
      for (std::size_t i = 0; i < initial.size(); ++i) {
        insert_sorted({std::move(initial[i]), std::move(scored[i].fitness),
                       scored[i].decisive});
      }
    } else if constexpr (BatchProblem<P>) {
      std::vector<Fitness> fitness = problem_.evaluate_batch(initial);
      for (std::size_t i = 0; i < initial.size(); ++i) {
        insert_sorted({std::move(initial[i]), std::move(fitness[i])});
      }
    } else {
      for (Chromosome& c : initial) {
        Fitness f = problem_.evaluate(c);
        insert_sorted({std::move(c), std::move(f)});
      }
    }

    std::size_t stagnant = 0;
    Fitness elite = population_.front().fitness;
    observe(std::size_t{0}, elite);
    for (std::size_t iter = 0; iter < config_.max_iterations; ++iter) {
      result.iterations = iter + 1;
      // Crossover: two distinct biased parents, two offspring.
      const std::size_t r1 = pick(rng);
      std::size_t r2 = pick(rng);
      if (population_.size() > 1) {
        while (r2 == r1) r2 = pick(rng);
      }
      const Member& a = population_[r1];
      const Member& b = population_[r2];
      auto [c1, c2] = problem_.crossover(a.chromosome, b.chromosome, rng);
      // Score both offspring before either competes: compete() reorders the
      // population, so a and b would no longer name the parents.
      Member o1 = score(std::move(c1), a, &b, result);
      Member o2 = score(std::move(c2), a, &b, result);
      compete(std::move(o1));
      compete(std::move(o2));

      // Mutation: one biased pick, one offspring.
      const Member& p = population_[pick(rng)];
      compete(score(problem_.mutate(p.chromosome, rng), p, nullptr, result));

      if (elite < population_.front().fitness) {
        elite = population_.front().fitness;
        observe(iter + 1, elite);
        stagnant = 0;
      } else {
        ++stagnant;
      }
      if (stagnant >= config_.stagnation_limit) {
        result.stop_reason = StopReason::kStagnation;
        break;
      }
      if (converged()) {
        result.stop_reason = StopReason::kConverged;
        break;
      }
    }
    result.best = population_.front().chromosome;
    result.best_fitness = population_.front().fitness;
    return result;
  }

 private:
  struct Member {
    Chromosome chromosome;
    Fitness fitness;
    /// Length of the prefix the fitness depends on (PrefixProblems only).
    std::size_t decisive = 0;
  };

  /// Offspring \p c of \p first (and \p second, for crossover): inherits a
  /// parent's fitness when it matches that parent's decisive prefix,
  /// otherwise is evaluated.  Counts toward result.evaluations either way.
  Member score(Chromosome c, const Member& first, const Member* second,
               Result<P>& result) const {
    ++result.evaluations;
    if constexpr (PrefixProblem<P>) {
      for (const Member* parent : {&first, second}) {
        if (parent != nullptr && parent->decisive <= c.size() &&
            std::equal(c.begin(),
                       c.begin() + static_cast<std::ptrdiff_t>(parent->decisive),
                       parent->chromosome.begin())) {
          ++result.inherited;
          return {std::move(c), parent->fitness, parent->decisive};
        }
      }
      Evaluation<Fitness> e = problem_.evaluate_prefix(c);
      return {std::move(c), std::move(e.fitness), e.decisive};
    } else {
      Fitness f = problem_.evaluate(c);
      return {std::move(c), std::move(f)};
    }
  }

  [[nodiscard]] std::size_t pick(util::Rng& rng) const noexcept {
    return biased_rank(population_.size(), config_.bias, rng.uniform());
  }

  void insert_sorted(Member member) {
    auto it = std::lower_bound(
        population_.begin(), population_.end(), member,
        [](const Member& a, const Member& b) { return b.fitness < a.fitness; });
    population_.insert(it, std::move(member));
  }

  /// Offspring replaces the worst member iff strictly fitter (elitism).
  void compete(Member offspring) {
    if (population_.back().fitness < offspring.fitness) {
      population_.pop_back();
      insert_sorted(std::move(offspring));
    }
  }

  /// All chromosomes identical => the search cannot progress further.
  [[nodiscard]] bool converged() const {
    if (population_.front().fitness < population_.back().fitness ||
        population_.back().fitness < population_.front().fitness) {
      return false;
    }
    const Chromosome& first = population_.front().chromosome;
    return std::all_of(population_.begin() + 1, population_.end(),
                       [&](const Member& m) { return m.chromosome == first; });
  }

  const P& problem_;
  Config config_;
  std::vector<Member> population_;
};

}  // namespace tsce::genitor
