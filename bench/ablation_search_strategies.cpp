/// \file ablation_search_strategies.cpp
/// Extension ablation (E11): how much of the PSG's advantage comes from the
/// GENITOR machinery versus simply searching the permutation space at all?
/// Compares, under a matched decode-evaluation budget:
///   * MWF / TF          — one ordering each (the paper's fast heuristics)
///   * RandomOrder       — one random ordering
///   * HillClimb         — first-improvement swaps with restarts
///   * SimulatedAnnealing— swap neighborhood, geometric cooling
///   * PSG / Seeded PSG  — the paper's GENITOR search
///   * ClassBased        — §4's alternate worth-class scheme (E12)
/// plus the exact permutation optimum on instances small enough to enumerate.

#include <cstdio>
#include <memory>
#include <vector>

#include "core/baselines.hpp"
#include "core/class_based.hpp"
#include "core/exact.hpp"
#include "core/local_search.hpp"
#include "core/ordered.hpp"
#include "core/psg.hpp"
#include "obs/run_info.hpp"
#include "obs/trace.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace tsce;
  std::int64_t machines = 2;
  std::int64_t strings = 9;
  std::int64_t runs = 6;
  std::int64_t budget = 120;  // decode evaluations per searcher
  std::int64_t seed = 13;
  bool with_exact = true;
  bool csv = false;
  std::string trace_path;
  util::Flags flags(
      "ablation_search_strategies — permutation-space search strategies under "
      "a matched evaluation budget, sandwiched by the exact optimum");
  flags.add("machines", &machines, "machine count M");
  flags.add("strings", &strings, "string count Q (exact needs <= 9)");
  flags.add("runs", &runs, "instances");
  flags.add("budget", &budget, "decode evaluations per search strategy");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("exact", &with_exact, "also compute the exact permutation optimum");
  flags.add("csv", &csv, "emit CSV");
  flags.add("trace", &trace_path, "write span/event JSONL trace to this path");
  if (!flags.parse(argc, argv)) return flags.exit_code();

  bool tracing = false;
  if (!trace_path.empty()) {
    obs::RunInfo info = obs::RunInfo::current();
    info.seed = static_cast<std::uint64_t>(seed);
    info.set_param("scenario", "highly_loaded");
    info.set_param("machines", machines);
    info.set_param("strings", strings);
    info.set_param("runs", runs);
    info.set_param("budget", budget);
    tracing = obs::trace_open(trace_path, info);
    if (!tracing) {
      std::fprintf(stderr, "error: cannot write --trace '%s'\n",
                   trace_path.c_str());
      return 1;
    }
  }

  auto gen_config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  gen_config.num_machines = static_cast<std::size_t>(machines);
  gen_config.num_strings = static_cast<std::size_t>(strings);

  const auto b = static_cast<std::size_t>(budget);
  core::PsgOptions psg_options;
  psg_options.ga.population_size = std::min<std::size_t>(40, b / 4);
  psg_options.ga.max_iterations = (b - psg_options.ga.population_size) / 3;
  psg_options.ga.stagnation_limit = psg_options.ga.max_iterations;
  psg_options.trials = 1;
  core::HillClimbOptions hc_options;
  hc_options.restarts = 4;
  hc_options.max_evaluations = b;
  core::AnnealingOptions sa_options;
  sa_options.iterations = b;
  core::ClassBasedOptions cb_options;
  cb_options.ga.population_size = std::min<std::size_t>(30, b / 4);
  cb_options.ga.max_iterations = (b / 3) / 3;
  cb_options.ga.stagnation_limit = cb_options.ga.max_iterations;

  std::vector<core::AllocatorPtr> searchers;
  searchers.push_back(std::make_unique<core::MostWorthFirst>());
  searchers.push_back(std::make_unique<core::TightestFirst>());
  searchers.push_back(std::make_unique<core::RandomOrder>());
  searchers.push_back(std::make_unique<core::HillClimb>(hc_options));
  searchers.push_back(std::make_unique<core::SimulatedAnnealing>(sa_options));
  searchers.push_back(std::make_unique<core::Psg>(psg_options));
  searchers.push_back(std::make_unique<core::SeededPsg>(psg_options));
  searchers.push_back(std::make_unique<core::ClassBasedAllocator>(cb_options));

  std::vector<util::RunningStats> worth(searchers.size());
  util::RunningStats exact_worth;
  std::vector<obs::PhaseId> phases;
  for (const auto& searcher : searchers) {
    phases.push_back(obs::intern_phase(searcher->name()));
  }
  const obs::PhaseId exact_phase = obs::intern_phase("Exact");
  util::Rng master(static_cast<std::uint64_t>(seed));
  for (std::int64_t run = 0; run < runs; ++run) {
    util::Rng instance_rng = master.spawn();
    const model::SystemModel m = workload::generate(gen_config, instance_rng);
    for (std::size_t s = 0; s < searchers.size(); ++s) {
      util::Rng rng = master.spawn();
      obs::Span span(obs::FrKind::kBenchAlloc, phases[s],
                     static_cast<std::uint64_t>(run));
      const auto result = searchers[s]->allocate(m, rng);
      span.set(static_cast<double>(result.fitness.total_worth));
      worth[s].add(result.fitness.total_worth);
    }
    if (with_exact && m.num_strings() <= 9) {
      util::Rng rng = master.spawn();
      obs::Span span(obs::FrKind::kBenchAlloc, exact_phase,
                     static_cast<std::uint64_t>(run));
      const auto result = core::ExactPermutationSearch{}.allocate(m, rng);
      span.set(static_cast<double>(result.fitness.total_worth));
      exact_worth.add(result.fitness.total_worth);
    }
  }
  if (tracing) obs::trace_close();

  std::printf("== Permutation-space search strategies (M=%lld, Q=%lld, budget "
              "%lld decodes) ==\n\n",
              static_cast<long long>(machines), static_cast<long long>(strings),
              static_cast<long long>(budget));
  util::Table table({"strategy", "total worth (mean \xC2\xB1 95% CI)"});
  for (std::size_t s = 0; s < searchers.size(); ++s) {
    table.add_row({searchers[s]->name(), util::format_mean_ci(worth[s], 1)});
  }
  if (exact_worth.count() > 0) {
    table.add_row({"Exact (permutation optimum)", util::format_mean_ci(exact_worth, 1)});
  }
  if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  return 0;
}
