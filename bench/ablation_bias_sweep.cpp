/// \file ablation_bias_sweep.cpp
/// Reproduces the §5 bias-selection experiment: "The bias value 1.6 was found
/// experimentally by observing the performance of the heuristic while varying
/// the bias values across the range [1,2] in steps 0.1."
///
/// The Whitley bias function requires bias > 1, so the sweep runs over
/// 1.1 .. 2.0.  For each bias the PSG is run on the same instances and the
/// mean total worth is reported.

#include <cstdio>

#include "core/psg.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace tsce;
  std::int64_t machines = 3;
  std::int64_t strings = 24;
  std::int64_t runs = 5;
  std::int64_t iterations = 120;
  std::int64_t population = 50;
  std::int64_t seed = 11;
  bool csv = false;
  util::Flags flags(
      "ablation_bias_sweep — PSG selective-pressure sweep over bias in "
      "[1.1, 2.0] step 0.1 (paper §5, chosen value 1.6)");
  flags.add("machines", &machines, "machine count M");
  flags.add("strings", &strings, "string count Q");
  flags.add("runs", &runs, "instances per bias value");
  flags.add("iterations", &iterations, "PSG iteration budget");
  flags.add("population", &population, "PSG population size");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("csv", &csv, "emit CSV");
  if (!flags.parse(argc, argv)) return flags.exit_code();

  auto gen_config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  gen_config.num_machines = static_cast<std::size_t>(machines);
  gen_config.num_strings = static_cast<std::size_t>(strings);

  // Pre-generate the instances so every bias value sees identical workloads.
  std::vector<model::SystemModel> instances;
  util::Rng master(static_cast<std::uint64_t>(seed));
  for (std::int64_t run = 0; run < runs; ++run) {
    util::Rng rng = master.spawn();
    instances.push_back(workload::generate(gen_config, rng));
  }

  std::printf("== PSG bias sweep (M=%lld, Q=%lld, %lld runs per bias) ==\n\n",
              static_cast<long long>(machines), static_cast<long long>(strings),
              static_cast<long long>(runs));
  util::Table table({"bias", "total worth (mean \xC2\xB1 95% CI)"});
  for (int step = 1; step <= 10; ++step) {
    const double bias = 1.0 + 0.1 * step;
    core::PsgOptions options;
    options.ga.bias = bias;
    options.ga.population_size = static_cast<std::size_t>(population);
    options.ga.max_iterations = static_cast<std::size_t>(iterations);
    options.ga.stagnation_limit = static_cast<std::size_t>(iterations);
    options.trials = 1;
    const core::Psg psg(options);

    util::RunningStats worth;
    for (std::size_t run = 0; run < instances.size(); ++run) {
      // Same search seed per instance across biases: only the bias varies.
      util::Rng search_rng(static_cast<std::uint64_t>(seed) * 1000 + run);
      worth.add(psg.allocate(instances[run], search_rng).fitness.total_worth);
    }
    table.add_row({util::Table::num(bias, 1), util::format_mean_ci(worth, 1)});
  }
  if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  return 0;
}
