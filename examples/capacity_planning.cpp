/// \file capacity_planning.cpp
/// Capacity-planning study with the library: how much workload can a fixed
/// machine suite take before strings start being rejected, and how does the
/// remaining slack shrink on the way there?
///
/// The example sweeps the offered load (number of strings) on a fixed
/// 6-machine suite, allocating each load level with MWF and with the Seeded
/// PSG, and reports deployed worth, deployed fraction, and system slackness.
/// The knee where the deployed fraction drops below 1.0 is the capacity of
/// the suite for this workload mix.

#include <cstdio>

#include "core/ordered.hpp"
#include "core/psg.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace tsce;
  std::int64_t machines = 6;
  std::int64_t seed = 31;
  std::int64_t max_strings = 36;
  std::int64_t step = 6;
  util::Flags flags(
      "capacity_planning — sweep offered load on a fixed machine suite and "
      "locate the saturation knee");
  flags.add("machines", &machines, "machine count M");
  flags.add("seed", &seed, "RNG seed");
  flags.add("max-strings", &max_strings, "largest string count probed");
  flags.add("step", &step, "string count step");
  if (!flags.parse(argc, argv)) return flags.exit_code();

  core::PsgOptions psg_options;
  psg_options.ga.population_size = 40;
  psg_options.ga.max_iterations = 200;
  psg_options.ga.stagnation_limit = 100;
  psg_options.trials = 1;

  std::printf("== Capacity planning on %lld machines ==\n\n",
              static_cast<long long>(machines));
  util::Table table({"strings offered", "MWF worth", "MWF deployed", "MWF slack",
                     "PSG worth", "PSG deployed", "PSG slack"});
  for (std::int64_t q = step; q <= max_strings; q += step) {
    auto config =
        workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
    config.num_machines = static_cast<std::size_t>(machines);
    config.num_strings = static_cast<std::size_t>(q);
    util::Rng rng(static_cast<std::uint64_t>(seed));  // same seed: nested loads
    const model::SystemModel m = workload::generate(config, rng);

    util::Rng r1(1);
    util::Rng r2(2);
    const auto mwf = core::MostWorthFirst{}.allocate(m, r1);
    const auto psg = core::SeededPsg(psg_options).allocate(m, r2);
    auto frac = [&](const core::AllocatorResult& r) {
      return static_cast<double>(r.allocation.num_deployed()) /
             static_cast<double>(m.num_strings());
    };
    table.add_row({std::to_string(q), std::to_string(mwf.fitness.total_worth),
                   util::Table::num(frac(mwf), 2),
                   util::Table::num(mwf.fitness.slackness, 3),
                   std::to_string(psg.fitness.total_worth),
                   util::Table::num(frac(psg), 2),
                   util::Table::num(psg.fitness.slackness, 3)});
  }
  table.print();
  std::printf("\nReading: deployed fraction < 1.00 marks the saturation knee; "
              "slack approaching 0 warns that even deployed strings have no "
              "headroom for workload growth.\n");
  return 0;
}
