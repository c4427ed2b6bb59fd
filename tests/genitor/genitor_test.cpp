#include "genitor/genitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

namespace tsce::genitor {
namespace {

TEST(BiasedRank, ZeroDrawSelectsTopRank) {
  EXPECT_EQ(biased_rank(250, 1.6, 0.0), 0u);
}

TEST(BiasedRank, AlwaysInRange) {
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(biased_rank(250, 1.6, rng.uniform()), 250u);
  }
  // The limit u -> 1 maps to the bottom rank.
  EXPECT_EQ(biased_rank(10, 1.6, 0.999999), 9u);
}

TEST(BiasedRank, TopIsBiasTimesMoreLikelyThanMedian) {
  // Whitley's definition: with bias b, rank 0 is selected b times more often
  // than the median rank.  Estimate empirically.
  util::Rng rng(2);
  constexpr std::size_t kN = 100;
  constexpr int kDraws = 400000;
  std::vector<int> hits(kN, 0);
  for (int i = 0; i < kDraws; ++i) hits[biased_rank(kN, 1.5, rng.uniform())]++;
  const double top = hits[0];
  const double median = (hits[49] + hits[50]) / 2.0;
  EXPECT_NEAR(top / median, 1.5, 0.12);
}

TEST(BiasedRank, HigherBiasConcentratesOnTop) {
  util::Rng rng(3);
  constexpr std::size_t kN = 100;
  int top_low_bias = 0, top_high_bias = 0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    if (biased_rank(kN, 1.1, u) < 10) ++top_low_bias;
    if (biased_rank(kN, 2.0, u) < 10) ++top_high_bias;
  }
  EXPECT_GT(top_high_bias, top_low_bias);
}

/// Toy permutation problem: fitness = number of fixed points (c[i] == i).
/// Optimum is the identity permutation with fitness n.
struct FixedPointProblem {
  using Chromosome = std::vector<int>;
  using Fitness = int;

  std::size_t n;

  [[nodiscard]] Fitness evaluate(const Chromosome& c) const {
    int score = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      if (c[i] == static_cast<int>(i)) ++score;
    }
    return score;
  }

  [[nodiscard]] std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                                            const Chromosome& b,
                                                            util::Rng& rng) const {
    // Reorder a's random-length prefix by the relative order in b (and vice
    // versa) — same operator family as the PSG heuristic.
    const auto cut =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
    auto reorder = [&](const Chromosome& base, const Chromosome& pattern) {
      std::vector<std::size_t> pos(n);
      for (std::size_t p = 0; p < n; ++p) pos[static_cast<std::size_t>(pattern[p])] = p;
      Chromosome child = base;
      std::sort(child.begin(), child.begin() + static_cast<std::ptrdiff_t>(cut),
                [&](int x, int y) {
                  return pos[static_cast<std::size_t>(x)] < pos[static_cast<std::size_t>(y)];
                });
      return child;
    };
    return {reorder(a, b), reorder(b, a)};
  }

  [[nodiscard]] Chromosome mutate(const Chromosome& c, util::Rng& rng) const {
    Chromosome child = c;
    const std::size_t i = rng.bounded(n);
    std::size_t j = rng.bounded(n);
    while (j == i) j = rng.bounded(n);
    std::swap(child[i], child[j]);
    return child;
  }

  [[nodiscard]] Chromosome random_chromosome(util::Rng& rng) const {
    Chromosome c(n);
    std::iota(c.begin(), c.end(), 0);
    rng.shuffle(c);
    return c;
  }
};

static_assert(Problem<FixedPointProblem>);

TEST(Genitor, ImprovesOverRandomStart) {
  const FixedPointProblem problem{20};
  Config config;
  config.population_size = 40;
  config.max_iterations = 1500;
  config.stagnation_limit = 1500;
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(7);

  // Baseline: best of 40 random chromosomes.
  util::Rng baseline_rng(7);
  int best_random = 0;
  for (int i = 0; i < 40; ++i) {
    best_random =
        std::max(best_random, problem.evaluate(problem.random_chromosome(baseline_rng)));
  }

  const auto result = ga.run(rng);
  EXPECT_GT(result.best_fitness, best_random);
  EXPECT_GE(result.best_fitness, 15);  // near-optimal on this easy landscape
  EXPECT_EQ(problem.evaluate(result.best), result.best_fitness);
}

TEST(Genitor, SeedsEnterPopulation) {
  const FixedPointProblem problem{12};
  Config config;
  config.population_size = 10;
  config.max_iterations = 0;  // no search: result == best initial member
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(8);
  std::vector<int> identity(12);
  std::iota(identity.begin(), identity.end(), 0);
  const auto result = ga.run(rng, {identity});
  EXPECT_EQ(result.best_fitness, 12);
  EXPECT_EQ(result.best, identity);
}

TEST(Genitor, ElitePreservedWithSeededOptimum) {
  // With the optimum seeded, no offspring can displace it (elitism).
  const FixedPointProblem problem{10};
  Config config;
  config.population_size = 8;
  config.max_iterations = 300;
  config.stagnation_limit = 50;
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(9);
  std::vector<int> identity(10);
  std::iota(identity.begin(), identity.end(), 0);
  const auto result = ga.run(rng, {identity});
  EXPECT_EQ(result.best_fitness, 10);
}

TEST(Genitor, StagnationStopsSearch) {
  const FixedPointProblem problem{10};
  Config config;
  config.population_size = 8;
  config.max_iterations = 100000;
  config.stagnation_limit = 20;
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(10);
  std::vector<int> identity(10);
  std::iota(identity.begin(), identity.end(), 0);
  const auto result = ga.run(rng, {identity});
  // Elite can never improve past the seeded optimum: stagnation (or full
  // convergence on this tiny population) must trigger long before the budget.
  EXPECT_TRUE(result.stop_reason == StopReason::kStagnation ||
              result.stop_reason == StopReason::kConverged);
  EXPECT_LT(result.iterations, 100000u);
}

TEST(Genitor, IterationBudgetRespected) {
  const FixedPointProblem problem{30};
  Config config;
  config.population_size = 10;
  config.max_iterations = 25;
  config.stagnation_limit = 1000;
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(11);
  const auto result = ga.run(rng);
  EXPECT_LE(result.iterations, 25u);
  EXPECT_EQ(result.stop_reason, StopReason::kIterationBudget);
}

TEST(Genitor, EvaluationCountIsConsistent) {
  const FixedPointProblem problem{10};
  Config config;
  config.population_size = 10;
  config.max_iterations = 5;
  config.stagnation_limit = 1000;
  Genitor<FixedPointProblem> ga(problem, config);
  util::Rng rng(12);
  const auto result = ga.run(rng);
  // 10 initial + 3 per iteration (2 crossover offspring + 1 mutation).
  EXPECT_EQ(result.evaluations, 10u + 3u * result.iterations);
}

/// Toy PrefixProblem shaped like the PSG decode: genes are placed in
/// chromosome order into a fixed capacity, and placement stops at the first
/// gene that does not fit.  The fitness (placed value, tie-broken by the
/// placement order) is a function of the placed genes plus the one that
/// failed — a data-dependent decisive prefix.  Every evaluation and every
/// offspring is logged for the property checks below.
struct FirstFitProblem {
  using Chromosome = std::vector<int>;
  using Fitness = std::int64_t;

  struct Birth {
    Chromosome child;
    std::vector<Chromosome> parents;
    std::size_t brood;         // crossover siblings share one
    std::size_t evals_before;  // evaluated.size() when it was created
  };

  FixedPointProblem ops;
  std::vector<int> weight;
  std::vector<int> value;
  int capacity = 0;
  mutable std::vector<Chromosome> evaluated;  // in call order
  mutable std::vector<Birth> births;          // in creation order
  mutable std::size_t broods = 0;

  FirstFitProblem(std::size_t n, double capacity_frac, std::uint64_t seed)
      : ops{n}, weight(n), value(n) {
    util::Rng rng(seed);
    int total = 0;
    for (std::size_t g = 0; g < n; ++g) {
      weight[g] = static_cast<int>(rng.uniform_int(1, 10));
      value[g] = static_cast<int>(rng.uniform_int(1, 20));
      total += weight[g];
    }
    capacity = static_cast<int>(capacity_frac * total);
  }

  /// The pure evaluation, unlogged.
  [[nodiscard]] Evaluation<Fitness> decide(const Chromosome& c) const {
    int load = 0;
    Fitness placed = 0;
    Fitness order_key = 0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const auto g = static_cast<std::size_t>(c[i]);
      if (load + weight[g] > capacity) return {placed * 1000003 + order_key % 997, i + 1};
      load += weight[g];
      placed += value[g];
      order_key += static_cast<Fitness>(i + 1) * c[i];
    }
    return {placed * 1000003 + order_key % 997, c.size()};
  }

  [[nodiscard]] Evaluation<Fitness> evaluate_prefix(const Chromosome& c) const {
    evaluated.push_back(c);
    return decide(c);
  }
  [[nodiscard]] std::vector<Evaluation<Fitness>> evaluate_prefix_batch(
      std::span<const Chromosome> batch) const {
    std::vector<Evaluation<Fitness>> out;
    for (const Chromosome& c : batch) out.push_back(evaluate_prefix(c));
    return out;
  }
  [[nodiscard]] Fitness evaluate(const Chromosome& c) const {
    return evaluate_prefix(c).fitness;
  }
  [[nodiscard]] std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                                            const Chromosome& b,
                                                            util::Rng& rng) const {
    auto children = ops.crossover(a, b, rng);
    births.push_back({children.first, {a, b}, broods, evaluated.size()});
    births.push_back({children.second, {a, b}, broods++, evaluated.size()});
    return children;
  }
  [[nodiscard]] Chromosome mutate(const Chromosome& c, util::Rng& rng) const {
    Chromosome child = ops.mutate(c, rng);
    births.push_back({child, {c}, broods++, evaluated.size()});
    return child;
  }
  [[nodiscard]] Chromosome random_chromosome(util::Rng& rng) const {
    return ops.random_chromosome(rng);
  }
};

/// Forwards everything but the prefix hook, so Genitor evaluates every
/// offspring of the wrapped problem.
struct WithoutPrefixHook {
  using Chromosome = FirstFitProblem::Chromosome;
  using Fitness = FirstFitProblem::Fitness;

  const FirstFitProblem* inner;

  [[nodiscard]] Fitness evaluate(const Chromosome& c) const { return inner->evaluate(c); }
  [[nodiscard]] std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                                            const Chromosome& b,
                                                            util::Rng& rng) const {
    return inner->crossover(a, b, rng);
  }
  [[nodiscard]] Chromosome mutate(const Chromosome& c, util::Rng& rng) const {
    return inner->mutate(c, rng);
  }
  [[nodiscard]] Chromosome random_chromosome(util::Rng& rng) const {
    return inner->random_chromosome(rng);
  }
};

static_assert(PrefixProblem<FirstFitProblem>);
static_assert(!PrefixProblem<WithoutPrefixHook>);
static_assert(!PrefixProblem<FixedPointProblem>);

struct TracedRun {
  std::vector<int> best;
  FirstFitProblem::Fitness best_fitness = 0;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  std::size_t inherited = 0;
  std::vector<std::pair<std::size_t, FirstFitProblem::Fitness>> trace;
};

constexpr std::size_t kPopulation = 24;

template <typename P>
TracedRun traced_run(const P& problem, std::uint64_t seed) {
  Config config;
  config.population_size = kPopulation;
  config.max_iterations = 400;
  config.stagnation_limit = 150;
  Genitor<P> ga(problem, config);
  util::Rng rng(seed);
  TracedRun run;
  const auto result = ga.run(rng, {}, [&](std::size_t iteration, const auto& elite) {
    run.trace.emplace_back(iteration, elite);
  });
  run.best = result.best;
  run.best_fitness = result.best_fitness;
  run.iterations = result.iterations;
  run.evaluations = result.evaluations;
  run.inherited = result.inherited;
  return run;
}

/// Runs the same search with and without the prefix hook and checks that
/// inheriting changes nothing but the number of evaluate calls.  Returns the
/// offspring that inherited, paired with their parents.
std::vector<FirstFitProblem::Birth> check_inheritance_is_exact(double capacity_frac,
                                                               std::uint64_t seed) {
  const FirstFitProblem hooked(16, capacity_frac, seed);
  const FirstFitProblem plain(16, capacity_frac, seed);
  const TracedRun with = traced_run(hooked, seed + 100);
  const TracedRun without = traced_run(WithoutPrefixHook{&plain}, seed + 100);

  EXPECT_EQ(with.best, without.best);
  EXPECT_EQ(with.best_fitness, without.best_fitness);
  EXPECT_EQ(with.iterations, without.iterations);
  EXPECT_EQ(with.evaluations, without.evaluations);
  // Inherited offspring count as evaluations: 3 per iteration.
  EXPECT_EQ(with.evaluations, kPopulation + 3 * with.iterations);
  EXPECT_EQ(with.trace, without.trace);
  EXPECT_EQ(without.inherited, 0u);
  EXPECT_EQ(plain.evaluated.size(), without.evaluations);
  EXPECT_EQ(hooked.evaluated.size() + with.inherited, with.evaluations);
  EXPECT_LT(hooked.evaluated.size(), plain.evaluated.size());

  // Replay the offspring brood by brood against the evaluate log: the calls
  // made between one brood's creation and the next's evaluated it.  An
  // offspring missing from its brood's calls inherited, and must match a
  // parent on that parent's decisive prefix, with the parent's fitness.
  std::vector<FirstFitProblem::Birth> inherited;
  const auto& births = hooked.births;
  for (std::size_t i = 0; i < births.size();) {
    std::size_t next = i;
    while (next < births.size() && births[next].brood == births[i].brood) ++next;
    const std::size_t end =
        next < births.size() ? births[next].evals_before : hooked.evaluated.size();
    std::vector<std::vector<int>> calls(
        hooked.evaluated.begin() + static_cast<std::ptrdiff_t>(births[i].evals_before),
        hooked.evaluated.begin() + static_cast<std::ptrdiff_t>(end));
    for (; i < next; ++i) {
      const FirstFitProblem::Birth& b = births[i];
      const auto call = std::find(calls.begin(), calls.end(), b.child);
      if (call != calls.end()) {
        calls.erase(call);
        continue;
      }
      const bool matches = std::any_of(
          b.parents.begin(), b.parents.end(), [&](const std::vector<int>& p) {
            const Evaluation<FirstFitProblem::Fitness> e = hooked.decide(p);
            return std::equal(p.begin(),
                              p.begin() + static_cast<std::ptrdiff_t>(e.decisive),
                              b.child.begin()) &&
                   hooked.decide(b.child).fitness == e.fitness;
          });
      EXPECT_TRUE(matches) << "offspring " << i;
      inherited.push_back(b);
    }
    EXPECT_TRUE(calls.empty()) << "an evaluate call matches no offspring";
  }
  EXPECT_EQ(inherited.size(), with.inherited);
  return inherited;
}

TEST(GenitorPrefix, InheritanceChangesOnlyTheEvaluateCalls) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    const auto inherited = check_inheritance_is_exact(0.4, seed);
    EXPECT_FALSE(inherited.empty());
  }
}

TEST(GenitorPrefix, CompleteMappingInheritsOnlyExactCopies) {
  // Every gene fits: the decisive prefix is the whole chromosome, so only
  // an offspring identical to a parent may skip its evaluation.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    const auto inherited = check_inheritance_is_exact(1.0, seed);
    EXPECT_FALSE(inherited.empty());
    for (const FirstFitProblem::Birth& b : inherited) {
      EXPECT_TRUE(std::find(b.parents.begin(), b.parents.end(), b.child) !=
                  b.parents.end());
    }
  }
}

}  // namespace
}  // namespace tsce::genitor
