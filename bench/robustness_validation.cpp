/// \file robustness_validation.cpp
/// Empirical validation of the paper's central claim (§1, §4): an initial
/// allocation with more system slackness absorbs a larger unpredictable
/// increase in input workload before QoS violations appear.
///
/// Procedure: on lightly loaded (scenario 3) instances, compute two complete
/// allocations — a slackness-oblivious baseline (first feasible random
/// ordering, decoded by the IMR) and the slackness-maximizing Seeded PSG.
/// Then scale the input workload (nominal execution times and output sizes)
/// by increasing factors and run the discrete-event simulator until each
/// allocation first violates a QoS constraint.  The tolerated factor should
/// grow with the allocation's slackness.

#include <cstdio>

#include "core/baselines.hpp"
#include "core/psg.hpp"
#include "sim/simulator.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

namespace {

/// Largest factor in [1, max_factor] (step `step`) with zero simulated QoS
/// violations; the allocation is fixed while the workload scales.
double tolerated_factor(const tsce::model::SystemModel& m,
                        const tsce::model::Allocation& alloc, double max_factor,
                        double step, double horizon) {
  double tolerated = 0.0;
  for (double factor = 1.0; factor <= max_factor + 1e-9; factor += step) {
    const auto scaled = tsce::sim::scale_input_workload(m, factor);
    const auto result = tsce::sim::simulate(scaled, alloc, {.horizon_s = horizon});
    if (result.total_violations() != 0) break;
    tolerated = factor;
  }
  return tolerated;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsce;
  std::int64_t machines = 6;
  std::int64_t strings = 8;
  std::int64_t runs = 5;
  std::int64_t seed = 23;
  double max_factor = 4.0;
  double step = 0.1;
  double horizon = 0.0;
  bool csv = false;
  util::Flags flags(
      "robustness_validation — does higher system slackness absorb larger "
      "input-workload increases without QoS violations? (paper §1/§4 claim, "
      "validated with the discrete-event simulator)");
  flags.add("machines", &machines, "machine count M");
  flags.add("strings", &strings, "string count Q (scenario 3 style)");
  flags.add("runs", &runs, "instances");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("max-factor", &max_factor, "largest workload scale factor probed");
  flags.add("step", &step, "scale factor step");
  flags.add("horizon", &horizon, "simulated seconds (0 = 20 periods)");
  flags.add("csv", &csv, "emit CSV");
  if (!flags.parse(argc, argv)) return flags.exit_code();

  auto gen_config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kLightlyLoaded);
  gen_config.num_machines = static_cast<std::size_t>(machines);
  gen_config.num_strings = static_cast<std::size_t>(strings);

  core::PsgOptions psg_options;
  psg_options.ga.population_size = 40;
  psg_options.ga.max_iterations = 250;
  psg_options.ga.stagnation_limit = 120;
  psg_options.trials = 2;

  util::RunningStats base_slack, psg_slack, base_factor, psg_factor;
  std::int64_t comparable_runs = 0;
  util::Rng master(static_cast<std::uint64_t>(seed));
  std::printf("== Robustness validation: slackness vs tolerated workload growth "
              "==\n\n");
  util::Table per_run({"run", "baseline slack", "baseline factor", "PSG slack",
                       "PSG factor"});
  for (std::int64_t run = 0; run < runs; ++run) {
    util::Rng instance_rng = master.spawn();
    const model::SystemModel m = workload::generate(gen_config, instance_rng);
    util::Rng r1 = master.spawn();
    util::Rng r2 = master.spawn();
    const auto baseline = core::RandomOrder{}.allocate(m, r1);
    const auto psg = core::SeededPsg(psg_options).allocate(m, r2);
    if (baseline.allocation.num_deployed() != m.num_strings() ||
        psg.allocation.num_deployed() != m.num_strings()) {
      std::printf("run %lld: incomplete mapping, skipped\n",
                  static_cast<long long>(run));
      continue;
    }
    ++comparable_runs;
    const double bf =
        tolerated_factor(m, baseline.allocation, max_factor, step, horizon);
    const double pf = tolerated_factor(m, psg.allocation, max_factor, step, horizon);
    base_slack.add(baseline.fitness.slackness);
    psg_slack.add(psg.fitness.slackness);
    base_factor.add(bf);
    psg_factor.add(pf);
    per_run.add_row({std::to_string(run),
                     util::Table::num(baseline.fitness.slackness, 3),
                     util::Table::num(bf, 2), util::Table::num(psg.fitness.slackness, 3),
                     util::Table::num(pf, 2)});
  }
  if (csv) {
    per_run.print_csv();
  } else {
    per_run.print();
  }

  if (comparable_runs > 0) {
    std::printf("\nSummary over %lld complete-mapping runs:\n",
                static_cast<long long>(comparable_runs));
    util::Table summary({"allocation", "system slackness", "tolerated factor"});
    summary.add_row({"baseline (random order)", util::format_mean_ci(base_slack, 3),
                     util::format_mean_ci(base_factor, 2)});
    summary.add_row({"Seeded PSG (slack-maximizing)",
                     util::format_mean_ci(psg_slack, 3),
                     util::format_mean_ci(psg_factor, 2)});
    if (csv) {
      summary.print_csv();
    } else {
      summary.print();
    }
    std::printf("\nExpected shape: the slack-maximizing allocation tolerates a "
                "workload factor at least as large as the baseline's.\n");
  }
  return 0;
}
