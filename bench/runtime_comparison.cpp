/// \file runtime_comparison.cpp
/// Reproduces the §8 execution-time discussion: "Both of the fast heuristics
/// (MWF and TF) executed in a few seconds.  The evolutionary algorithms (PSG
/// and Seeded PSG) required approximately two hours per single run ... The LP
/// algorithm ... runs extremely fast — its execution time was less than two
/// seconds."
///
/// At bench scale the absolute numbers shrink, but the *ordering* must hold:
/// MWF/TF and the LP are orders of magnitude faster than the evolutionary
/// searches.

#include <chrono>
#include <cstdio>

#include "core/baselines.hpp"
#include "core/ordered.hpp"
#include "core/psg.hpp"
#include "lp/upper_bound.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

namespace {
double time_it(const auto& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}
}  // namespace

int main(int argc, char** argv) {
  using namespace tsce;
  std::int64_t machines = 6;
  std::int64_t strings = 40;
  std::int64_t seed = 7;
  std::int64_t psg_iterations = 1500;
  bool csv = false;
  util::Flags flags(
      "runtime_comparison — heuristic execution times on one scenario-1 "
      "instance (paper §8 text)");
  flags.add("machines", &machines, "machine count M");
  flags.add("strings", &strings, "string count Q");
  flags.add("seed", &seed, "RNG seed");
  flags.add("psg-iterations", &psg_iterations, "PSG iteration budget");
  flags.add("csv", &csv, "emit CSV");
  if (!flags.parse(argc, argv)) return flags.exit_code();

  util::Rng rng(static_cast<std::uint64_t>(seed));
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = static_cast<std::size_t>(machines);
  config.num_strings = static_cast<std::size_t>(strings);
  const model::SystemModel m = workload::generate(config, rng);

  core::PsgOptions psg_options;
  psg_options.ga.population_size = 250;  // paper budget shape
  psg_options.ga.max_iterations = static_cast<std::size_t>(psg_iterations);
  psg_options.ga.stagnation_limit = static_cast<std::size_t>(psg_iterations);
  psg_options.trials = 1;

  std::printf("== Heuristic runtime comparison (M=%lld, Q=%lld) ==\n\n",
              static_cast<long long>(machines), static_cast<long long>(strings));
  util::Table table({"algorithm", "time [s]", "total worth / UB value"});

  int worth = 0;
  double seconds = time_it([&] {
    util::Rng r(1);
    worth = core::MostWorthFirst{}.allocate(m, r).fitness.total_worth;
  });
  table.add_row({"MWF", util::Table::num(seconds, 4), std::to_string(worth)});

  seconds = time_it([&] {
    util::Rng r(2);
    worth = core::TightestFirst{}.allocate(m, r).fitness.total_worth;
  });
  table.add_row({"TF", util::Table::num(seconds, 4), std::to_string(worth)});

  seconds = time_it([&] {
    util::Rng r(3);
    worth = core::Psg(psg_options).allocate(m, r).fitness.total_worth;
  });
  table.add_row({"PSG", util::Table::num(seconds, 4), std::to_string(worth)});

  seconds = time_it([&] {
    util::Rng r(4);
    worth = core::SeededPsg(psg_options).allocate(m, r).fitness.total_worth;
  });
  table.add_row({"Seeded PSG", util::Table::num(seconds, 4), std::to_string(worth)});

  double ub_value = 0.0;
  seconds = time_it([&] { ub_value = lp::upper_bound_worth(m).value; });
  table.add_row({"UB (simplex LP)", util::Table::num(seconds, 4),
                 util::Table::num(ub_value, 1)});

  if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf(
      "\nExpected ordering (paper Sec. 8): MWF/TF execute in a blink; the LP is "
      "fast; the evolutionary searches dominate the cost.  At this reduced "
      "scale PSG and the LP are within an order of magnitude; at paper scale "
      "(150 strings, 250-chromosome population, 5000 iterations, 4 trials) "
      "the PSG decode count grows ~100x while the LP stays polynomial, "
      "reproducing the paper's hours-vs-seconds gap.\n");
  return 0;
}
