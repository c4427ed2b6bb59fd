/// \file ablation_solution_space_ga.cpp
/// Reproduces the §5 negative result: "a genetic algorithm operating in the
/// solution space failed to find any feasible allocation even for a
/// relatively small set of strings in a reasonable amount of time" — the
/// motivation for searching the permutation space instead.
///
/// With matched evaluation budgets, the bench compares (a) how often the raw
/// assignment GA deploys the complete string set and (b) the total worth it
/// reaches, against the permutation-space PSG and the one-pass MWF.

#include <cstdio>

#include "core/baselines.hpp"
#include "core/ordered.hpp"
#include "core/psg.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace tsce;
  std::int64_t machines = 4;
  std::int64_t strings = 14;
  std::int64_t runs = 3;
  std::int64_t iterations = 250;
  std::int64_t seed = 17;
  bool csv = false;
  util::Flags flags(
      "ablation_solution_space_ga — permutation-space vs solution-space "
      "genetic search (paper §5 negative result)");
  flags.add("machines", &machines, "machine count M");
  flags.add("strings", &strings, "string count Q");
  flags.add("runs", &runs, "instances");
  flags.add("iterations", &iterations, "GA iteration budget (both searches)");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("csv", &csv, "emit CSV");
  if (!flags.parse(argc, argv)) return flags.exit_code();

  auto gen_config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  gen_config.num_machines = static_cast<std::size_t>(machines);
  gen_config.num_strings = static_cast<std::size_t>(strings);

  core::PsgOptions psg_options;
  psg_options.ga.population_size = 40;
  psg_options.ga.max_iterations = static_cast<std::size_t>(iterations);
  psg_options.ga.stagnation_limit = static_cast<std::size_t>(iterations);
  psg_options.trials = 1;
  core::SolutionSpaceGaOptions ss_options;
  ss_options.ga.population_size = 40;
  ss_options.ga.max_iterations = static_cast<std::size_t>(iterations);
  ss_options.ga.stagnation_limit = static_cast<std::size_t>(iterations);

  util::RunningStats psg_worth, ss_worth, mwf_worth;
  util::RunningStats psg_deployed, ss_deployed;
  util::Rng master(static_cast<std::uint64_t>(seed));
  for (std::int64_t run = 0; run < runs; ++run) {
    util::Rng instance_rng = master.spawn();
    const model::SystemModel m = workload::generate(gen_config, instance_rng);
    util::Rng r1 = master.spawn();
    util::Rng r2 = master.spawn();
    util::Rng r3 = master.spawn();
    const auto psg = core::Psg(psg_options).allocate(m, r1);
    const auto ss = core::SolutionSpaceGa(ss_options).allocate(m, r2);
    const auto mwf = core::MostWorthFirst{}.allocate(m, r3);
    psg_worth.add(psg.fitness.total_worth);
    ss_worth.add(ss.fitness.total_worth);
    mwf_worth.add(mwf.fitness.total_worth);
    psg_deployed.add(static_cast<double>(psg.allocation.num_deployed()));
    ss_deployed.add(static_cast<double>(ss.allocation.num_deployed()));
  }

  std::printf("== Solution-space GA vs permutation-space PSG (M=%lld, Q=%lld) "
              "==\n\n",
              static_cast<long long>(machines), static_cast<long long>(strings));
  util::Table table({"search", "total worth", "strings deployed"});
  table.add_row({"PSG (permutation space)", util::format_mean_ci(psg_worth, 1),
                 util::format_mean_ci(psg_deployed, 1)});
  table.add_row({"GA (solution space)", util::format_mean_ci(ss_worth, 1),
                 util::format_mean_ci(ss_deployed, 1)});
  table.add_row({"MWF (one pass)", util::format_mean_ci(mwf_worth, 1), "-"});
  if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf("\nExpected shape (paper §5): the solution-space GA falls well "
              "short of the permutation-space search.\n");
  return 0;
}
