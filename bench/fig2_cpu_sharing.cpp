/// \file fig2_cpu_sharing.cpp
/// Reproduces Figure 2: the three CPU-sharing overlap cases between a
/// higher-priority application a_1^1 and a lower-priority application a_1^2
/// on one machine.  For each case the bench reports the eq. (5) analytic
/// estimate of a_1^2's computation time next to the discrete-event
/// simulator's measured average — they must agree exactly for these
/// worst-case-aligned periodic workloads.
///
///   case 1: P[1] = P[2],  u1 = 1.0  ->  t_comp = t2 + t1           = 4.0 s
///   case 2: P[1] = 2P[2], u1 = 1.0  ->  t_comp = t2 + (P2/P1) t1   = 3.0 s
///   case 3: P[1] = 2P[2], u1 = 0.5  ->  t_comp = t2 + (P2/P1)u1 t1 = 2.5 s

#include <cstdio>

#include "analysis/estimates.hpp"
#include "model/system_model.hpp"
#include "sim/simulator.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

tsce::model::SystemModel make_case(double p1, double p2, double u1) {
  using namespace tsce::model;
  return SystemModelBuilder(1)
      .begin_string(p1, /*Lmax=*/3.0, Worth::kHigh, "string1(tight)")
      .add_app(2.0, u1, 0.0, "a11")
      .begin_string(p2, /*Lmax=*/100.0, Worth::kLow, "string2(loose)")
      .add_app(2.0, 1.0, 0.0, "a12")
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsce;
  double horizon = 160.0;
  bool csv = false;
  util::Flags flags(
      "fig2_cpu_sharing — Figure 2: analytic (eq. 5) vs simulated computation "
      "times under the three CPU-sharing overlap cases");
  flags.add("horizon", &horizon, "simulated seconds per case");
  flags.add("csv", &csv, "emit CSV");
  if (!flags.parse(argc, argv)) return flags.exit_code();

  struct Case {
    const char* name;
    double p1, p2, u1;
  };
  const Case cases[] = {
      {"case 1: P1=P2, u1=1.0", 4.0, 4.0, 1.0},
      {"case 2: P1=2*P2, u1=1.0", 8.0, 4.0, 1.0},
      {"case 3: P1=2*P2, u1=0.5", 8.0, 4.0, 0.5},
  };

  std::printf("== Figure 2: CPU sharing between prioritized periodic apps ==\n\n");
  util::Table table({"case", "t_comp^1 [s]", "eq.(5) t_comp^2 [s]",
                     "simulated t_comp^2 [s]", "match"});
  for (const Case& c : cases) {
    const model::SystemModel m = make_case(c.p1, c.p2, c.u1);
    model::Allocation alloc(m);
    alloc.assign(0, 0, 0);
    alloc.assign(1, 0, 0);
    alloc.set_deployed(0, true);
    alloc.set_deployed(1, true);

    const auto est = analysis::estimate_all(m, alloc);
    const auto sim = sim::simulate(m, alloc, {.horizon_s = horizon});
    const double analytic = est.comp[1][0];
    const double simulated = sim.apps[1][0].comp_s.mean();
    table.add_row({c.name, util::Table::num(est.comp[0][0], 2),
                   util::Table::num(analytic, 2), util::Table::num(simulated, 2),
                   std::abs(analytic - simulated) < 1e-6 ? "yes" : "NO"});
  }
  if (csv) {
    table.print_csv();
  } else {
    table.print();
  }
  return 0;
}
