/// \file harness.hpp
/// Shared Monte-Carlo experiment runner for the figure/table benches.
///
/// Mirrors the paper's experimental procedure (§6, §8): for each simulation
/// run a fresh random instance is generated, every heuristic allocates it,
/// and the metric (total worth for scenarios 1-2, system slackness for
/// scenario 3) is averaged across runs with a 95% confidence interval.  The
/// LP upper bound is computed per instance with the in-repo simplex.
///
/// Defaults are scaled down from the paper (machines/strings/runs/PSG
/// budget) so the whole bench suite completes in minutes on one core;
/// --full restores paper-scale parameters (slow: the paper reports ~2 hours
/// per PSG run at full scale).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/allocator.hpp"
#include "core/psg.hpp"
#include "lp/upper_bound.hpp"
#include "obs/run_info.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

namespace tsce::bench {

struct ScenarioBenchConfig {
  workload::Scenario scenario = workload::Scenario::kHighlyLoaded;
  std::int64_t machines = 6;
  std::int64_t strings = 32;
  std::int64_t runs = 5;
  std::int64_t seed = 2005;  // IPPS 2005
  bool with_upper_bound = true;
  bool csv = false;
  // PSG budget (paper: 250 / 5000 / 300 / 4 trials; bench default reduced).
  std::int64_t psg_population = 60;
  std::int64_t psg_iterations = 400;
  std::int64_t psg_stagnation = 150;
  std::int64_t psg_trials = 2;
  /// Worker threads for Monte-Carlo replications (1 = serial, 0 = all
  /// cores).  Metric results are identical at any thread count: every run's
  /// rng streams are derived up front in run order, and per-run metrics are
  /// folded into the statistics serially in run order afterwards.  Only the
  /// wall-clock column varies.
  std::int64_t threads = 1;
  /// Telemetry sinks (empty = off).  --trace streams span/event JSONL through
  /// obs::trace_open (no-op when the tracer is compiled out); --metrics dumps
  /// the obs::MetricsRegistry snapshot as JSON after the runs; --json writes
  /// the per-heuristic result series as JSON.  All three carry the RunInfo
  /// provenance block.
  std::string trace_path;
  std::string metrics_path;
  std::string json_path;
  /// --metrics-series: sample the registry every --metrics-period-ms into a
  /// JSONL time series (obs::MetricsExporter) for trace_report
  /// --metrics-series consumption.
  std::string metrics_series_path;
  std::int64_t metrics_period_ms = 250;
  /// --fr-dump: flight-recorder JSONL dump path.  Written by an anomaly or
  /// SIGUSR1 trigger during the run, or (if no trigger fired) once at the end
  /// of the run.  --fr-decode-watermark-ns arms the slow-decode anomaly.
  std::string fr_dump_path;
  std::int64_t fr_decode_watermark_ns = 0;

  /// Registers the shared flags on \p flags (pointers into this object).
  void register_flags(util::Flags& flags);
  /// Applies --full: paper-scale machines/strings/runs/PSG budget.
  void apply_full_scale(workload::Scenario scenario);
  /// Exits with a usage error (2) naming the first count flag out of range:
  /// --runs, --machines, --strings, --psg-population and --psg-trials below
  /// 1, or --psg-iterations, --psg-stagnation and --threads below 0.
  void check_ranges() const;
  /// PSG options assembled from the flag fields.
  [[nodiscard]] core::PsgOptions psg_options() const;
  /// Provenance block for this configuration (build stamps + seed, threads,
  /// and scenario parameters).
  [[nodiscard]] obs::RunInfo run_info() const;
};

struct HeuristicSeries {
  std::string name;
  util::RunningStats metric;   ///< worth or slackness per run
  util::RunningStats seconds;  ///< wall-clock per run
};

struct ScenarioBenchResult {
  std::vector<HeuristicSeries> heuristics;
  HeuristicSeries upper_bound;        ///< metric = UB value per run
  std::size_t ub_failures = 0;        ///< runs where the LP did not solve
};

/// Builds the paper's heuristic set: PSG, MWF, TF, Seeded PSG.
[[nodiscard]] std::vector<core::AllocatorPtr> paper_allocators(
    const core::PsgOptions& psg);

/// Runs the Monte-Carlo experiment.  \p slackness_metric selects the
/// scenario-3 metric (system slackness of the complete mapping) instead of
/// total worth.
[[nodiscard]] ScenarioBenchResult run_scenario_bench(const ScenarioBenchConfig& config,
                                                     bool slackness_metric);

/// Prints the per-heuristic table in the paper's bar-chart order
/// (PSG, MWF, TF, Seeded PSG, UB).  When config.json_path is set, the same
/// series (plus the RunInfo provenance block) is written there as JSON.
void print_scenario_table(const ScenarioBenchConfig& config,
                          const ScenarioBenchResult& result,
                          const std::string& metric_name, int decimals);

/// The result series as a provenance-stamped JSON document:
/// {"run_info": {...}, "metric": ..., "heuristics": [...], "ub_failures": N}.
[[nodiscard]] util::Json scenario_bench_json(const ScenarioBenchConfig& config,
                                             const ScenarioBenchResult& result,
                                             const std::string& metric_name);

}  // namespace tsce::bench
