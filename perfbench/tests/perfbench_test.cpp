// Tests of the benchmark itself: reduced-scale smoke runs of every workload
// (untraced and traced), the correctness gate on hand-built bad outputs, and
// the strict command line.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "analysis/metrics.hpp"
#include "perfbench.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

using tsce::lp::SolveStatus;

RunReport smoke(const WorkloadSpec& full, bool trace, std::uint64_t seed = 3) {
  RunOptions options;
  options.seed = seed;
  options.seconds = 0.001;  // one instance
  options.trace = trace;
  return run_workload(reduced(full, 4, 16), options);
}

void expect_metrics(const RunReport& report,
                    const std::vector<std::pair<std::string, std::string>>& expected) {
  std::map<std::string, std::string> got;
  for (const Metric& m : report.metrics) got[m.name] = m.unit;
  EXPECT_EQ(got.size(), report.metrics.size()) << "duplicate metric name";
  EXPECT_EQ(got.size(), expected.size());
  for (const auto& [name, unit] : expected) {
    ASSERT_TRUE(got.count(name)) << name;
    EXPECT_EQ(got[name], unit) << name;
  }
}

TEST(PerfbenchSmoke, EveryWorkloadReportsEveryEndToEndMetricAndPassesItsChecks) {
  for (const WorkloadSpec& w : workloads()) {
    SCOPED_TRACE(w.name);
    const RunReport report = smoke(w, /*trace=*/false);
    EXPECT_TRUE(report.correct());
    EXPECT_GT(report.attempted, 0u);
    EXPECT_EQ(report.failed, 0u);
    expect_metrics(report, end_to_end_metrics());
    for (const Metric& m : report.metrics) EXPECT_GT(m.value, 0.0) << m.name;
  }
}

TEST(PerfbenchSmoke, EveryWorkloadTracesEveryPerLayerMetric) {
  for (const WorkloadSpec& w : workloads()) {
    SCOPED_TRACE(w.name);
    RunReport report;
    ASSERT_NO_THROW(report = smoke(w, /*trace=*/true));
    EXPECT_TRUE(report.correct());
    expect_metrics(report, per_layer_metrics());
    for (const Metric& m : report.metrics) {
      if (m.name == "trace.unattributed_frac") {
        EXPECT_LE(m.value, 0.05);
      }
    }
  }
}

TEST(PerfbenchSmoke, QualityAndBoundsRepeatForASeed) {
  const WorkloadSpec& w = workloads().front();
  const RunReport a = smoke(w, false, 11);
  const RunReport b = smoke(w, false, 11);
  const std::set<std::string> deterministic = {
      "psg_worth", "seeded_psg_worth", "temper_worth",
      "psg_slackness", "seeded_psg_slackness", "ub_worth", "ub_slackness"};
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    if (deterministic.count(a.metrics[i].name)) {
      EXPECT_EQ(a.metrics[i].value, b.metrics[i].value) << a.metrics[i].name;
    }
  }
}

TEST(PerfbenchSearch, TrialAtATimeEqualsOnePsgAllocateCall) {
  const WorkloadSpec spec = reduced(workloads().front(), 4, 16);
  auto config = tsce::workload::GeneratorConfig::for_scenario(spec.primary.scenario);
  config.num_machines = spec.primary.machines;
  config.num_strings = spec.primary.strings;
  tsce::util::Rng gen(21);
  const auto model = tsce::workload::generate(config, gen);
  for (const bool seeded : {false, true}) {
    SCOPED_TRACE(seeded ? "Seeded PSG" : "PSG");
    tsce::util::Rng a(7), b(7);
    const auto whole = seeded ? tsce::core::SeededPsg(spec.psg).allocate(model, a)
                              : tsce::core::Psg(spec.psg).allocate(model, a);
    const auto folded = psg_by_trials(model, b, spec.psg, seeded);
    EXPECT_TRUE(whole.fitness == folded.fitness);
    EXPECT_EQ(whole.order, folded.order);
    EXPECT_EQ(whole.evaluations, folded.evaluations);
    EXPECT_EQ(a(), b()) << "the two consumed different draws";
  }
}

TEST(PerfbenchManifest, MatchesTheMetricsAndWorkloadsTheBinaryReports) {
  const auto manifest = tsce::util::read_json_file(PERFBENCH_MANIFEST);
  const auto names = [](const tsce::util::Json& list) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& m : list.as_array()) {
      out.emplace_back(m.at("name").as_string(), m.at("unit").as_string());
    }
    return out;
  };
  EXPECT_EQ(names(manifest.at("end_to_end")), end_to_end_metrics());
  EXPECT_EQ(names(manifest.at("per_layer")), per_layer_metrics());
  std::vector<std::string> listed;
  for (const auto& w : manifest.at("workloads").as_array()) {
    listed.push_back(w.at("name").as_string());
  }
  std::vector<std::string> built;
  for (const WorkloadSpec& w : workloads()) built.push_back(w.name);
  EXPECT_EQ(listed, built);
}

tsce::model::SystemModel small_model() {
  auto config = tsce::workload::GeneratorConfig::for_scenario(
      tsce::workload::Scenario::kHighlyLoaded);
  config.num_machines = 3;
  config.num_strings = 12;
  tsce::util::Rng rng(5);
  return tsce::workload::generate(config, rng);
}

TEST(PerfbenchGate, FlagsAnInfeasibleAllocation) {
  const auto model = small_model();
  tsce::core::AllocatorResult everything_on_one_machine;
  everything_on_one_machine.allocation = tsce::model::Allocation(model);
  for (std::size_t k = 0; k < model.num_strings(); ++k) {
    const auto id = static_cast<tsce::model::StringId>(k);
    for (std::size_t i = 0; i < model.strings[k].size(); ++i) {
      everything_on_one_machine.allocation.assign(id, static_cast<tsce::model::AppIndex>(i), 0);
    }
    everything_on_one_machine.allocation.set_deployed(id, true);
  }
  everything_on_one_machine.fitness =
      tsce::analysis::evaluate(model, everything_on_one_machine.allocation);
  Gate gate;
  gate.allocation(model, "hand-built", everything_on_one_machine);
  EXPECT_EQ(gate.attempted(), 1u);
  EXPECT_EQ(gate.failed(), 1u);
  ASSERT_FALSE(gate.failures().empty());
  EXPECT_NE(gate.failures().front().find("infeasible"), std::string::npos);
}

TEST(PerfbenchGate, FlagsAFitnessThatDoesNotMatchTheAllocation) {
  const auto model = small_model();
  tsce::core::AllocatorResult empty;
  empty.allocation = tsce::model::Allocation(model);
  empty.fitness = tsce::analysis::evaluate(model, empty.allocation);
  Gate gate;
  gate.allocation(model, "empty", empty);
  EXPECT_EQ(gate.failed(), 0u);
  empty.fitness.total_worth += 1;
  gate.allocation(model, "overclaimed", empty);
  EXPECT_EQ(gate.attempted(), 2u);
  EXPECT_EQ(gate.failed(), 1u);

  // Last-bit slackness drift is counted, a real difference fails.
  empty.fitness = tsce::analysis::evaluate(model, empty.allocation);
  empty.fitness.slackness = std::nextafter(empty.fitness.slackness, 2.0);
  gate.allocation(model, "last bit", empty);
  EXPECT_EQ(gate.failed(), 1u);
  EXPECT_EQ(gate.inexact(), 1u);
  empty.fitness.slackness -= 1e-9;
  gate.allocation(model, "off", empty);
  EXPECT_EQ(gate.failed(), 2u);
}

TEST(PerfbenchGate, FlagsABoundBelowAHeuristicAndANonOptimalSolve) {
  Gate gate;
  const Gate::Claim below[] = {{"PSG", 100.0}, {"MWF", 90.0}};
  gate.bound("worth LP", SolveStatus::kOptimal, 100.0, below);
  EXPECT_EQ(gate.failed(), 0u);
  const Gate::Claim above[] = {{"PSG", 101.0}};
  gate.bound("worth LP", SolveStatus::kOptimal, 100.0, above);
  EXPECT_EQ(gate.failed(), 1u);
  gate.bound("slackness LP", SolveStatus::kInfeasible, 1.0, {});
  EXPECT_EQ(gate.failed(), 2u);
  EXPECT_EQ(gate.attempted(), 3u);
}

std::optional<std::string> parse(std::vector<std::string_view> args, Cli& cli) {
  return parse_cli(args, cli);
}

TEST(PerfbenchCli, AcceptsTheBenchmarkCommandLine) {
  Cli cli;
  EXPECT_FALSE(parse({"--workload", "paper_s1", "--seed", "7", "--seconds", "30",
                      "--trace", "1"},
                     cli));
  EXPECT_EQ(cli.workload, "paper_s1");
  EXPECT_EQ(cli.run.seed, 7u);
  EXPECT_EQ(cli.run.seconds, 30.0);
  EXPECT_TRUE(cli.run.trace);
  EXPECT_FALSE(parse({"--workload=complete_s3", "--seed=0", "--trace=0"}, cli));
  EXPECT_FALSE(cli.run.trace);
}

TEST(PerfbenchCli, RejectsEverythingElse) {
  Cli cli;
  const std::vector<std::vector<std::string_view>> bad = {
      {"--workload", "paper_s1"},                              // no seed
      {"--seed", "1"},                                         // no workload
      {"--workload", "nope", "--seed", "1"},                   // unknown workload
      {"--workload", "paper_s1", "--seed", "-1"},              // bad value
      {"--workload", "paper_s1", "--seed", "1x"},              // bad value
      {"--workload", "paper_s1", "--seed", "1", "--trace", "false"},
      {"--workload", "paper_s1", "--seed", "1", "--seconds", "0"},
      {"--workload", "paper_s1", "--seed", "1", "--bogus", "1"},  // unknown flag
      {"--workload", "paper_s1", "--seed", "1", "stray"},        // positional
      {"--workload", "paper_s1", "--seed", "1", "--seed", "2"},  // repeated
      {"--workload", "paper_s1", "--seed"},                      // missing value
  };
  for (const auto& args : bad) {
    std::string joined;
    for (const auto a : args) joined += std::string(a) + " ";
    EXPECT_TRUE(parse(args, cli)) << joined;
  }
}

}  // namespace
}  // namespace perfbench
