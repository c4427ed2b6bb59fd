/// \file dag_mission.cpp
/// A fork/join mission thread modeled as a DAG string: a surveillance picture
/// fuses radar and sonar branches that process the same data set in parallel
/// before a combined classification stage — exactly the structure the paper's
/// footnote 2 anticipates for the final ARMS program.
///
///       ingest ──> radar-filter ──> radar-track ──┐
///          │                                      ├──> fuse ──> display
///          └─────> sonar-filter ──> sonar-class ──┘
///
/// The example builds the DAG as an edge list on an ordinary SystemModel,
/// allocates with the paper's Most Worth First heuristic (whose IMR walks the
/// DAG's frontier), verifies the two-stage feasibility, and contrasts the
/// critical-path latency with the chain-sum bound a purely linear model would
/// have to assume.

#include <cstdio>

#include "analysis/estimates.hpp"
#include "analysis/feasibility.hpp"
#include "core/ordered.hpp"
#include "model/system_model.hpp"
#include "util/table.hpp"

int main() {
  using namespace tsce;
  model::AppString mission;
  mission.name = "surveillance-picture";
  mission.period_s = 5.0;
  mission.max_latency_s = 14.0;
  mission.worth = model::Worth::kHigh;
  const char* names[] = {"ingest",      "radar-filter", "radar-track",
                         "sonar-filter", "sonar-class",  "fuse",
                         "display"};
  const double times[] = {1.0, 2.0, 1.5, 2.5, 2.0, 1.2, 0.6};
  const double utils[] = {0.5, 0.8, 0.7, 0.8, 0.6, 0.5, 0.3};
  for (int i = 0; i < 7; ++i) {
    model::Application a;
    a.name = names[i];
    a.nominal_time_s.assign(4, times[i]);
    a.nominal_util.assign(4, utils[i]);
    mission.apps.push_back(std::move(a));
  }
  // Sorted by (from, to), as SystemModel::validate() requires.
  mission.edges = {
      {0, 1, 120.0},  // ingest -> radar-filter
      {0, 3, 150.0},  // ingest -> sonar-filter
      {1, 2, 60.0},   // radar-filter -> radar-track
      {2, 5, 30.0},   // radar-track -> fuse
      {3, 4, 70.0},   // sonar-filter -> sonar-class
      {4, 5, 30.0},   // sonar-class -> fuse
      {5, 6, 20.0},   // fuse -> display
  };

  model::SystemModelBuilder builder(4);
  builder.uniform_bandwidth(6.0).add_string(std::move(mission));
  // A background navigation chain competes for the same machines.
  builder.begin_string(8.0, 40.0, model::Worth::kMedium, "nav-chain");
  for (int i = 0; i < 3; ++i) {
    builder.add_app(2.0, 0.4, i < 2 ? 40.0 : 0.0, "nav-" + std::to_string(i));
  }
  const model::SystemModel system = builder.build();  // validates the DAG

  util::Rng rng(1);
  const auto result = core::MostWorthFirst{}.allocate(system, rng);
  std::printf("== DAG mission allocation ==\n");
  std::printf("worth deployed: %d of %d; slackness %.3f\n\n",
              result.fitness.total_worth, system.total_worth_available(),
              result.fitness.slackness);

  util::Table table({"application", "machine"});
  for (std::size_t i = 0; i < system.strings[0].size(); ++i) {
    table.add_row({system.strings[0].apps[i].name,
                   "m" + std::to_string(result.allocation.machine_of(
                             0, static_cast<model::AppIndex>(i)))});
  }
  table.print();

  const auto est = analysis::estimate_all(system, result.allocation);
  double chain_sum = 0.0;
  for (const double c : est.comp[0]) chain_sum += c;
  for (const double t : est.tran[0]) chain_sum += t;
  const double critical = est.latency(0);
  std::printf("\nmission latency: critical path %.2f s (chain-sum bound would "
              "be %.2f s) against Lmax = %.2f s\n",
              critical, chain_sum, system.strings[0].max_latency_s);
  const auto report = analysis::check_feasibility(system, result.allocation);
  std::printf("two-stage feasibility: %s\n", report.feasible() ? "PASS" : "FAIL");
  return report.feasible() ? 0 : 1;
}
