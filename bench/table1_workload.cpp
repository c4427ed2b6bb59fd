/// \file table1_workload.cpp
/// Reproduces Table 1: the mu range specifications for Lmax[k] and P[k] per
/// simulation scenario, plus the resulting sampled workload statistics (the
/// paper's §6 parameter ranges made concrete).

#include <cstdio>

#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace tsce;
  std::int64_t seed = 2005;
  std::int64_t sample_runs = 5;
  bool csv = false;
  util::Flags flags(
      "table1_workload — Table 1: mu range specification per scenario, with "
      "sampled P[k]/Lmax[k] statistics");
  flags.add("seed", &seed, "base RNG seed");
  flags.add("sample-runs", &sample_runs, "instances sampled per scenario");
  flags.add("csv", &csv, "emit CSV");
  if (!flags.parse(argc, argv)) return flags.exit_code();

  std::printf("== Table 1: range specifications for the random variable mu ==\n\n");
  util::Table spec({"scenario", "mu for Lmax[k]", "mu for P[k]", "strings Q"});
  spec.add_row({"1 (highly loaded)", "[4, 6]", "[3, 4.5]", "150"});
  spec.add_row({"2 (QoS-limited)", "[1.25, 2.75]", "[1.5, 2.5]", "150"});
  spec.add_row({"3 (lightly loaded)", "[4, 6]", "[3, 4.5]", "25"});
  if (csv) {
    spec.print_csv();
  } else {
    spec.print();
  }

  std::printf("\nSampled workload statistics (%lld instances per scenario, "
              "paper-scale M=12):\n\n",
              static_cast<long long>(sample_runs));
  util::Table stats({"scenario", "apps/string", "P[k] [s]", "Lmax[k] [s]",
                     "Lmax/P ratio"});
  util::Rng master(static_cast<std::uint64_t>(seed));
  for (const auto scenario :
       {workload::Scenario::kHighlyLoaded, workload::Scenario::kQosLimited,
        workload::Scenario::kLightlyLoaded}) {
    util::RunningStats apps, period, latency, ratio;
    for (std::int64_t run = 0; run < sample_runs; ++run) {
      util::Rng rng = master.spawn();
      const auto config = workload::GeneratorConfig::for_scenario(scenario);
      const auto m = workload::generate(config, rng);
      for (const auto& s : m.strings) {
        apps.add(static_cast<double>(s.size()));
        period.add(s.period_s);
        latency.add(s.max_latency_s);
        ratio.add(s.max_latency_s / s.period_s);
      }
    }
    stats.add_row({std::to_string(static_cast<int>(scenario)),
                   util::format_mean_ci(apps, 2), util::format_mean_ci(period, 1),
                   util::format_mean_ci(latency, 1),
                   util::format_mean_ci(ratio, 2)});
  }
  if (csv) {
    stats.print_csv();
  } else {
    stats.print();
  }
  return 0;
}
