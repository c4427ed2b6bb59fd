/// \file perfbench.hpp
/// The repo benchmark: named paper-shaped workloads run from a seed through
/// the library's public entry points, with every output checked.
///
/// An untraced run reports the end-to-end metrics (medians over the run's
/// samples, or its totals for the search rates).  A traced run repeats the
/// same work with spans recorded around the calls into each module and
/// reports the per-layer metrics; it also proves that its wrappers and
/// replays reproduce the untraced results bit for bit, and fails instead of
/// reporting when they do not.  README.md in
/// this directory maps each layer metric to the end-to-end metric and
/// workload it should move.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/local_search.hpp"
#include "core/psg.hpp"
#include "lp/simplex.hpp"
#include "model/system_model.hpp"
#include "workload/generator.hpp"

namespace perfbench {

/// Instance shape: scenario plus machine and string counts.
struct Shape {
  tsce::workload::Scenario scenario = tsce::workload::Scenario::kHighlyLoaded;
  std::size_t machines = 12;
  std::size_t strings = 150;
};

struct WorkloadSpec {
  std::string name;
  /// Instances whose searches and bound give the timing, throughput and
  /// worth metrics.  Scenario 1 solves the worth LP, scenario 3 the
  /// complete-mapping (slackness) LP.
  Shape primary;
  /// Scenario-3 instance bundled with every primary instance to give the
  /// slackness metrics when the primary instance is not itself a complete
  /// mapping; empty when it is.
  std::optional<Shape> slack;
  /// Scenario-1 instance bundled with every primary instance whose worth LP
  /// gives ub_s and ub_worth, checked against MWF and TF on it; empty when
  /// the primary instance's own (slackness) LP gives ub_s.
  std::optional<Shape> bound;
  /// PSG and Seeded PSG run their allocations on the primary instance a
  /// trial at a time: round r runs trial r of each, then tempering and the
  /// LP while r < tempers and r < bound_solves, so every timing metric is
  /// sampled across the whole instance.
  tsce::core::PsgOptions psg;
  tsce::core::AnnealingOptions temper;
  /// Seeded PSG allocations per primary instance, each from its own stream
  /// (its trials are short, and their time per evaluation follows the search
  /// path, so more of them steady seeded_psg_s).
  std::size_t seeded_allocations = 1;
  /// Tempering allocations (each from its own stream) and LP solves per
  /// primary instance, at most psg.trials each.
  std::size_t tempers = 1;
  std::size_t bound_solves = 1;
  /// Nominal wall seconds per instance (with its bundled instances) on a
  /// 4-core 2 GHz host; sets the instance count per run.
  double instance_s = 1.0;
};

/// The benchmark's workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// \p spec shrunk to \p machines machines with a token search budget, for
/// smoke tests of the full pipeline.  Scenario-1 shapes get \p strings
/// strings; scenario-3 shapes keep the paper's strings-per-machine density.
[[nodiscard]] WorkloadSpec reduced(WorkloadSpec spec, std::size_t machines,
                                   std::size_t strings);

/// Instances a run of \p seconds measures: seconds / spec.instance_s,
/// rounded, at least one.  Fixed by the arguments, so every run of a given
/// length measures the same instances.
[[nodiscard]] std::size_t instance_count(const WorkloadSpec& spec, double seconds);

/// A PSG (or Seeded PSG) allocation the way untraced runs make it: one
/// single-trial Psg::allocate call per trial on the same \p rng, folded as
/// Psg::allocate folds its trials, so the result equals
/// Psg(options).allocate(model, rng).
[[nodiscard]] tsce::core::AllocatorResult psg_by_trials(const tsce::model::SystemModel& model,
                                                        tsce::util::Rng& rng,
                                                        const tsce::core::PsgOptions& options,
                                                        bool seeded);

struct RunOptions {
  std::uint64_t seed = 1;
  /// Run length; see instance_count().
  double seconds = 10.0;
  bool trace = false;
  /// Traced runs write their spans here as JSONL at exit (empty = keep them
  /// in memory only).
  std::string trace_out;
  /// Thread cap for the parallel engines (tempering).
  std::size_t threads = 4;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t instances = 0;
  /// End-to-end metrics (untraced) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Human-readable lines: timing distributions, gate failures.
  std::vector<std::string> log;

  [[nodiscard]] bool correct() const noexcept { return failed == 0 && attempted > 0; }
};

/// A traced run whose wrappers or replays did not reproduce the untraced
/// results, or whose spans left too much wall time unattributed.
class TraceMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Runs \p spec once.  Throws TraceMismatch (traced runs only).
[[nodiscard]] RunReport run_workload(const WorkloadSpec& spec, const RunOptions& options);

/// Metric names each mode reports, in report order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Correctness gate.  Every allocation and every bound solve is one attempt;
/// an attempt fails when any of its checks fails.
class Gate {
 public:
  /// Re-checks \p result's allocation from scratch with the two-stage
  /// analysis and requires the recomputed fitness to equal the reported one:
  /// worth exactly, slackness bit for bit or within 1e-12 (the incremental
  /// and from-scratch utilization sums run in different orders).  Matches
  /// that are not bit for bit are counted, not failed.
  void allocation(const tsce::model::SystemModel& model, std::string_view who,
                  const tsce::core::AllocatorResult& result);

  struct Claim {
    std::string who;
    double value = 0.0;
  };
  /// Requires an optimal solve whose \p bound is at least every claimed
  /// heuristic value (up to the LP's feasibility tolerance).
  void bound(std::string_view who, tsce::lp::SolveStatus status, double bound,
             std::span<const Claim> claims);

  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  /// Allocations whose slackness matched only within tolerance, and the
  /// largest difference seen.
  [[nodiscard]] std::size_t inexact() const noexcept { return inexact_; }
  [[nodiscard]] double max_drift() const noexcept { return max_drift_; }

 private:
  void record(std::vector<std::string> problems);

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::size_t inexact_ = 0;
  double max_drift_ = 0.0;
};

/// Parsed command line of the perfbench binary.
struct Cli {
  std::string workload;
  RunOptions run;
  bool help = false;
};

/// Strict parse: every flag takes a value (`--flag v` or `--flag=v`);
/// unknown flags, bad values, repeated flags, stray positionals and a missing
/// --workload or --seed are errors.  Returns the error text, or nullopt with
/// \p out filled.
[[nodiscard]] std::optional<std::string> parse_cli(std::span<const std::string_view> args,
                                                   Cli& out);
[[nodiscard]] std::string usage();

}  // namespace perfbench
