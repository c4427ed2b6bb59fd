/// \file dag_extension.cpp
/// Extension bench (E16): the paper's footnote 2 anticipates DAG-structured
/// strings in the final ARMS program.  A string is an edge list, so random
/// fork/join workloads (workload::generate_dag) run through the same IMR,
/// session, searches and LP bound as the paper's chains.  Per instance the
/// bench reports MWF, PSG at the reduced harness budget and the LP worth
/// bound, and how much latency headroom the critical-path analysis recovers
/// versus the chain-sum bound a linear analysis would impose.  Every
/// allocation is re-checked with the batch feasibility analysis; a failure
/// exits 1.

#include <cstdio>

#include "analysis/estimates.hpp"
#include "analysis/feasibility.hpp"
#include "core/ordered.hpp"
#include "core/psg.hpp"
#include "harness.hpp"
#include "lp/upper_bound.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace tsce;
  std::int64_t machines = 6;
  std::int64_t strings = 12;
  std::int64_t runs = 5;
  std::int64_t seed = 61;
  bool csv = false;
  util::Flags flags(
      "dag_extension — DAG-structured strings through MWF, PSG and the LP bound");
  flags.add("machines", &machines, "machine count M");
  flags.add("strings", &strings, "string count Q");
  flags.add("runs", &runs, "instances");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("csv", &csv, "emit CSV");
  if (!flags.parse(argc, argv)) return flags.exit_code();

  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = static_cast<std::size_t>(machines);
  config.num_strings = static_cast<std::size_t>(strings);
  config.min_apps_per_string = 2;
  config.max_apps_per_string = 8;
  const core::Psg psg(bench::ScenarioBenchConfig{}.psg_options());

  util::Table table({"run", "MWF worth", "PSG worth", "UB worth", "PSG slackness",
                     "critical-path / chain-sum latency"});
  util::RunningStats mwf_stats;
  util::RunningStats psg_stats;
  util::RunningStats ub_stats;
  util::RunningStats ratio_stats;
  util::Rng master(static_cast<std::uint64_t>(seed));
  for (std::int64_t run = 0; run < runs; ++run) {
    util::Rng rng = master.spawn();
    const model::SystemModel m = workload::generate_dag(config, rng);
    util::Rng search_rng = rng.spawn();
    const auto mwf = core::MostWorthFirst{}.allocate(m, search_rng);
    const auto best = psg.allocate(m, search_rng);
    const auto ub = lp::upper_bound_worth(m);
    for (const auto* alloc : {&mwf.allocation, &best.allocation}) {
      if (!analysis::check_feasibility(m, *alloc).feasible()) {
        std::fprintf(stderr, "error: run %lld produced an infeasible allocation\n",
                     static_cast<long long>(run));
        return 1;
      }
    }

    // Critical-path vs chain-sum latency over the MWF deployment.
    const auto est = analysis::estimate_all(m, mwf.allocation);
    util::RunningStats ratio;
    for (std::size_t k = 0; k < m.num_strings(); ++k) {
      if (!mwf.allocation.deployed(static_cast<model::StringId>(k))) continue;
      double chain_sum = 0.0;
      for (const double c : est.comp[k]) chain_sum += c;
      for (const double t : est.tran[k]) chain_sum += t;
      const double critical = est.latency(static_cast<model::StringId>(k));
      if (chain_sum > 0.0) ratio.add(critical / chain_sum);
    }
    ratio_stats.merge(ratio);
    mwf_stats.add(mwf.fitness.total_worth);
    psg_stats.add(best.fitness.total_worth);
    ub_stats.add(ub.value);
    table.add_row({std::to_string(run), std::to_string(mwf.fitness.total_worth),
                   std::to_string(best.fitness.total_worth),
                   util::Table::num(ub.value, 1),
                   util::Table::num(best.fitness.slackness, 3),
                   util::format_mean_ci(ratio, 2)});
  }
  if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  std::printf("\nMean worth: MWF %.1f, PSG %.1f, UB %.1f.  Mean critical-path/"
              "chain-sum ratio %.2f: the DAG analysis recovers the latency "
              "headroom a chain-sum bound would waste on parallel branches.\n",
              mwf_stats.mean(), psg_stats.mean(), ub_stats.mean(),
              ratio_stats.mean());
  return 0;
}
