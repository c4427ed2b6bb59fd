#include "core/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/decode.hpp"
#include "core/evaluator.hpp"
#include "core/ordered.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace tsce::core {

using analysis::Fitness;
using model::StringId;
using model::SystemModel;

namespace {

/// One first-improvement climb from \p current (mutated in place to the local
/// optimum).  \p evaluations is the restart's decode counter; \p budget is
/// an absolute cap on it (0 = unlimited).  Returns the optimum's outcome.
DecodeOutcome climb(DecodeContext& ctx, std::vector<StringId>& current,
                    util::Rng& rng, const HillClimbOptions& options,
                    std::size_t& evaluations, std::size_t budget) {
  const std::size_t q = current.size();
  DecodeOutcome current_decoded = decode_order_into(ctx, current);
  ++evaluations;

  bool improved = true;
  while (improved && (budget == 0 || evaluations < budget)) {
    improved = false;
    for (std::size_t attempt = 0;
         attempt < options.max_neighbors_per_step && q >= 2; ++attempt) {
      const std::size_t i = rng.bounded(q);
      std::size_t j = rng.bounded(q);
      while (j == i) j = rng.bounded(q);
      std::swap(current[i], current[j]);
      const DecodeOutcome neighbor = decode_order_into(ctx, current);
      ++evaluations;
      if (current_decoded.fitness < neighbor.fitness) {
        current_decoded = neighbor;
        improved = true;
        break;  // first improvement: restart the neighborhood scan
      }
      std::swap(current[i], current[j]);  // undo
      if (budget != 0 && evaluations >= budget) break;
    }
  }
  return current_decoded;
}

}  // namespace

AllocatorResult HillClimb::allocate(const SystemModel& model, util::Rng& rng) const {
  // Restarts are independent, so each gets its own worker context, an
  // index-derived rng stream, and an equal slice of the budget; the result is
  // byte-identical at any thread count.  Ties across restarts go to the
  // lowest restart index.  Every restart costs at least its start decode, so
  // a budget below the restart count caps the restarts.
  std::size_t restarts = std::max<std::size_t>(1, options_.restarts);
  if (options_.max_evaluations != 0) {
    restarts = std::min(restarts, options_.max_evaluations);
  }
  const std::uint64_t base_seed = rng();
  const std::size_t slice = options_.max_evaluations / restarts;  // 0 = unlimited
  struct Restart {
    Fitness fitness;
    std::vector<StringId> order;
    std::size_t evaluations = 0;
  };
  std::vector<Restart> outcomes(restarts);
  const obs::PhaseId phase = obs::intern_phase("HillClimb");
  BatchEvaluator evaluator(model, options_.threads);
  evaluator.for_each(restarts, [&](std::size_t r, DecodeContext& ctx) {
    obs::Span span(obs::FrKind::kSearchRestart, phase, r);
    util::Rng restart_rng = util::Rng::stream(base_seed, r);
    std::vector<StringId> current = identity_order(model);
    restart_rng.shuffle(current);
    // The shuffle's rng draws are consumed unconditionally so the guided
    // start perturbs only restart 0's start point.
    if (options_.lp_guided_start && r == 0) {
      current = lp_guided_order(model);
    }
    const DecodeOutcome optimum =
        climb(ctx, current, restart_rng, options_, outcomes[r].evaluations, slice);
    outcomes[r].fitness = optimum.fitness;
    outcomes[r].order = std::move(current);
    span.set(std::uint64_t{outcomes[r].evaluations});
  });

  // The fold is serial and deterministic; improvement events carry the
  // restart index, so post-hoc ordering matches the parallel execution.
  std::size_t best_r = 0;
  std::size_t evaluations = 0;
  for (std::size_t r = 0; r < outcomes.size(); ++r) {
    evaluations += outcomes[r].evaluations;
    if (r == 0 || outcomes[best_r].fitness < outcomes[r].fitness) {
      best_r = r;
      obs::trace_improve(phase, r, 0, outcomes[r].fitness.total_worth,
                         outcomes[r].fitness.slackness);
    }
  }

  AllocatorResult best;
  best.fitness = outcomes[best_r].fitness;
  best.allocation = decode_order(model, outcomes[best_r].order).allocation;
  best.order = std::move(outcomes[best_r].order);
  best.evaluations = evaluations;
  return best;
}

namespace {
/// Flattens the lexicographic metric into one scalar for annealing: worth
/// dominates because slackness lies in [0, 1].
double energy(const Fitness& f) noexcept {
  return static_cast<double>(f.total_worth) + f.slackness;
}

/// One chain of the tempering ladder: its own order, rng stream, prefix-reuse
/// decode context, temperature, and per-replica incumbent.  Everything a
/// sweep task touches lives here, so replicas never share mutable state.
struct TemperReplica {
  std::vector<StringId> order;
  Fitness fitness{};  ///< fitness of the current order
  Fitness best_fitness{};
  std::vector<StringId> best_order;
  double temperature = 0.0;
  util::Rng rng{0};
  std::unique_ptr<DecodeContext> ctx;
  std::size_t remaining = 0;  ///< Metropolis steps left in this replica's slice
  std::size_t evaluations = 0;
};

/// Runs up to \p steps Metropolis steps on one replica — the Metropolis
/// acceptance rule at the replica's own (cooling) temperature, driven
/// entirely by the replica's private rng stream.
void temper_steps(TemperReplica& rep, const AnnealingOptions& options,
                  std::size_t steps) {
  const std::size_t q = rep.order.size();
  if (q < 2) {
    rep.remaining = 0;
    return;
  }
  for (std::size_t s = 0; s < steps && rep.remaining > 0; ++s, --rep.remaining) {
    const std::size_t i = rep.rng.bounded(q);
    std::size_t j = rep.rng.bounded(q);
    while (j == i) j = rep.rng.bounded(q);
    std::swap(rep.order[i], rep.order[j]);
    const DecodeOutcome neighbor = decode_order_into(*rep.ctx, rep.order);
    ++rep.evaluations;
    const double delta = energy(neighbor.fitness) - energy(rep.fitness);
    const bool accept =
        delta >= 0.0 ||
        rep.rng.uniform() < std::exp(delta / std::max(rep.temperature, 1e-9));
    if (accept) {
      rep.fitness = neighbor.fitness;
      if (rep.best_fitness < rep.fitness) {
        rep.best_fitness = rep.fitness;
        rep.best_order = rep.order;
      }
    } else {
      std::swap(rep.order[i], rep.order[j]);  // undo
    }
    rep.temperature *= options.cooling;
  }
}

}  // namespace

/// Deterministic parallel tempering: N replicas on a geometric temperature
/// ladder step in fixed-size sweeps; at each sweep barrier adjacent pairs
/// (alternating parity per sweep) may exchange their states with the
/// Metropolis-Hastings swap rule, the swap draw coming from a dedicated
/// exchange stream.  All per-replica randomness is index-derived and the
/// barrier fold walks replicas in index order, so the result is
/// byte-identical at any worker count.  One replica is a plain annealing
/// chain.
AllocatorResult SimulatedAnnealing::allocate(const SystemModel& model,
                                             util::Rng& rng) const {
  const std::size_t replicas = std::max<std::size_t>(1, options_.replicas);
  const double t0 = options_.initial_temperature > 0.0
                        ? options_.initial_temperature
                        : 0.1 * std::max(1, model.total_worth_available());
  const std::uint64_t base_seed = rng();
  // Streams 0..replicas-1 drive the replicas; stream `replicas` is reserved
  // for the exchange decisions so it can never collide with a replica's.
  util::Rng exchange_rng = util::Rng::stream(base_seed, replicas);

  const obs::PhaseId phase = obs::intern_phase("Annealing");
  obs::Span span(obs::FrKind::kSearchAnneal, phase, replicas);
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& sweeps_total = registry.counter(obs::names::kTemperSweeps);
  obs::Counter& exchanges_total = registry.counter(obs::names::kTemperExchanges);
  obs::Counter& swaps_total = registry.counter(obs::names::kTemperSwaps);

  std::vector<TemperReplica> reps(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    TemperReplica& rep = reps[r];
    rep.rng = util::Rng::stream(base_seed, r);
    rep.ctx = std::make_unique<DecodeContext>(model);
    // Replicas fan out from one byte-identical state image (a memcpy-cheap
    // clone of replica 0) before shuffling their own start orders.
    if (r > 0) rep.ctx->clone_state_from(*reps[0].ctx);
    rep.order = identity_order(model);
    rep.rng.shuffle(rep.order);
    rep.temperature =
        t0 * std::pow(options_.ladder_ratio, static_cast<double>(r));
    rep.remaining = options_.iterations / replicas +
                    (r < options_.iterations % replicas ? 1 : 0);
  }

  const std::size_t workers =
      std::min(util::ThreadPool::resolve_worker_count(options_.threads), replicas);
  std::unique_ptr<util::ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<util::ThreadPool>(workers);
  auto run_parallel = [&](auto&& fn) {
    if (pool) {
      pool->for_each_index(replicas, fn);
    } else {
      for (std::size_t r = 0; r < replicas; ++r) fn(r);
    }
  };

  Fitness best_fitness{};
  std::vector<StringId> best_order;
  bool have_best = false;
  std::size_t sweep = 0;
  // Fold the per-replica incumbents at a barrier; replica index breaks ties,
  // so post-hoc ordering matches any parallel execution.
  auto fold = [&] {
    for (std::size_t r = 0; r < replicas; ++r) {
      if (reps[r].best_order.empty()) continue;
      if (!have_best || best_fitness < reps[r].best_fitness) {
        best_fitness = reps[r].best_fitness;
        best_order = reps[r].best_order;
        have_best = true;
        obs::trace_improve(phase, r, sweep, best_fitness.total_worth,
                           best_fitness.slackness);
      }
    }
  };

  // Initial decode of every replica's shuffled start order (one evaluation
  // per replica), in parallel.
  run_parallel([&](std::size_t r) {
    TemperReplica& rep = reps[r];
    rep.fitness = decode_order_into(*rep.ctx, rep.order).fitness;
    ++rep.evaluations;
    rep.best_fitness = rep.fitness;
    rep.best_order = rep.order;
  });
  fold();

  auto pending = [&] {
    for (const TemperReplica& rep : reps) {
      if (rep.remaining > 0) return true;
    }
    return false;
  };
  while (pending()) {
    obs::Span sweep_span(obs::FrKind::kSearchTemperSweep, phase, sweep);
    run_parallel([&](std::size_t r) {
      TemperReplica& rep = reps[r];
      if (rep.remaining == 0) return;
      obs::Span rep_span(obs::FrKind::kSearchTemperReplica, phase, r, sweep);
      const std::size_t steps = options_.exchange_interval == 0
                                    ? rep.remaining
                                    : std::min(options_.exchange_interval,
                                               rep.remaining);
      temper_steps(rep, options_, steps);
    });
    sweeps_total.add(1);

    if (options_.exchange_interval != 0 && replicas >= 2) {
      // Adjacent-pair exchange with alternating parity: pairs (0,1),(2,3),..
      // on even sweeps, (1,2),(3,4),.. on odd ones.  The swap draw is always
      // consumed so the exchange stream's position never depends on the
      // energies.
      for (std::size_t i = sweep % 2; i + 1 < replicas; i += 2) {
        TemperReplica& cold = reps[i];
        TemperReplica& hot = reps[i + 1];
        const double u = exchange_rng.uniform();
        const double beta_cold = 1.0 / std::max(cold.temperature, 1e-9);
        const double beta_hot = 1.0 / std::max(hot.temperature, 1e-9);
        // Maximization form of the tempering swap rule: always swap when the
        // hotter replica holds the better state, otherwise with probability
        // exp((beta_cold - beta_hot) * (E_hot - E_cold)) < 1.
        const double delta =
            (beta_cold - beta_hot) * (energy(hot.fitness) - energy(cold.fitness));
        const bool swapped = delta >= 0.0 || u < std::exp(delta);
        exchanges_total.add(1);
        if (swapped) {
          std::swap(cold.order, hot.order);
          std::swap(cold.fitness, hot.fitness);
          swaps_total.add(1);
        }
        obs::trace_event(obs::FrKind::kSearchTemperExchange, phase, sweep, i,
                         swapped ? 1 : 0);
      }
    }
    fold();
    ++sweep;
  }

  std::size_t evaluations = 0;
  for (const TemperReplica& rep : reps) evaluations += rep.evaluations;
  span.set(std::uint64_t{evaluations});

  AllocatorResult best;
  best.fitness = best_fitness;
  DecodeContext replay_ctx(model);
  best.allocation =
      replay_ctx.materialize(decode_order_into(replay_ctx, best_order)).allocation;
  best.order = std::move(best_order);
  best.evaluations = evaluations;
  return best;
}

}  // namespace tsce::core
