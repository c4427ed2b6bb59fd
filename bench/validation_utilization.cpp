/// \file validation_utilization.cpp
/// Cross-validation (E14): the stage-one analysis computes utilizations from
/// closed forms (eqs. 2-3); the discrete-event simulator meters the same
/// quantities from actual execution.  For feasible allocations in steady
/// state the two must agree — this bench reports the worst absolute error
/// across machines and routes on random instances.

#include <cmath>
#include <cstdio>

#include "analysis/utilization.hpp"
#include "core/ordered.hpp"
#include "sim/simulator.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace tsce;
  std::int64_t machines = 6;
  std::int64_t strings = 10;
  std::int64_t runs = 5;
  std::int64_t seed = 41;
  double horizon = 600.0;
  bool csv = false;
  util::Flags flags(
      "validation_utilization — analytic U_machine/U_route (eqs. 2-3) vs the "
      "utilizations metered by the discrete-event simulator");
  flags.add("machines", &machines, "machine count M");
  flags.add("strings", &strings, "string count Q (lightly loaded)");
  flags.add("runs", &runs, "instances");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("horizon", &horizon, "simulated seconds per instance");
  flags.add("csv", &csv, "emit CSV");
  if (!flags.parse(argc, argv)) return flags.exit_code();

  auto gen_config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kLightlyLoaded);
  gen_config.num_machines = static_cast<std::size_t>(machines);
  gen_config.num_strings = static_cast<std::size_t>(strings);

  std::printf("== Analytic vs simulated utilization (%lld runs, horizon %.0f s) "
              "==\n\n",
              static_cast<long long>(runs), horizon);
  util::Table table({"run", "max machine util (analytic)", "worst |machine err|",
                     "worst |route err|", "deployed"});
  util::RunningStats machine_err, route_err;
  util::Rng master(static_cast<std::uint64_t>(seed));
  for (std::int64_t run = 0; run < runs; ++run) {
    util::Rng instance_rng = master.spawn();
    const model::SystemModel m = workload::generate(gen_config, instance_rng);
    util::Rng search_rng = master.spawn();
    const auto plan = core::MostWorthFirst{}.allocate(m, search_rng);
    const auto analytic =
        analysis::UtilizationState::from_allocation(m, plan.allocation);
    const auto sim = sim::simulate(m, plan.allocation, {.horizon_s = horizon});

    double worst_machine = 0.0;
    for (std::size_t j = 0; j < m.num_machines(); ++j) {
      worst_machine = std::max(
          worst_machine,
          std::abs(sim.measured_machine_util[j] -
                   analytic.machine_util(static_cast<model::MachineId>(j))));
    }
    double worst_route = 0.0;
    const auto mm = static_cast<model::MachineId>(m.num_machines());
    for (model::MachineId j1 = 0; j1 < mm; ++j1) {
      for (model::MachineId j2 = 0; j2 < mm; ++j2) {
        if (j1 == j2) continue;
        worst_route = std::max(
            worst_route,
            std::abs(sim.measured_route_util[static_cast<std::size_t>(j1) *
                                                 m.num_machines() +
                                             static_cast<std::size_t>(j2)] -
                     analytic.route_util(j1, j2)));
      }
    }
    machine_err.add(worst_machine);
    route_err.add(worst_route);
    table.add_row({std::to_string(run),
                   util::Table::num(analytic.max_machine_util(), 3),
                   util::Table::num(worst_machine, 4),
                   util::Table::num(worst_route, 4),
                   std::to_string(plan.allocation.num_deployed()) + "/" +
                       std::to_string(m.num_strings())});
  }
  if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf("\nMean worst-case error: machines %.4f, routes %.4f "
              "(finite-horizon boundary effects only).\n",
              machine_err.mean(), route_err.mean());
  return 0;
}
