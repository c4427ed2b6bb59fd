/// \file main.cpp
/// perfbench: runs one benchmark workload and prints its metrics.
///
///   perfbench --workload paper_s1 --seed 7 --seconds 48 --trace 0
///
/// Human-readable lines first (timing distributions, gate failures, the
/// run-provenance line), then one JSON object as the last line:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
/// Exit status: 0 when every check passed, 1 when a check failed or a traced
/// run could not reproduce the untraced results, 2 on a bad command line.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/run_info.hpp"
#include "perfbench.hpp"
#include "util/json.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  Cli cli;
  if (const auto error = parse_cli(args, cli)) {
    std::fprintf(stderr, "perfbench: %s\n%s", error->c_str(), usage().c_str());
    return 2;
  }
  if (cli.help) {
    std::fputs(usage().c_str(), stdout);
    return 0;
  }

  RunOptions& options = cli.run;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  options.threads = std::min<std::size_t>(4, nproc);
  if (options.trace && options.trace_out.empty()) {
    const std::filesystem::path dir = std::filesystem::path(argv[0]).parent_path() / "traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    options.trace_out =
        (dir / (cli.workload + "-seed" + std::to_string(options.seed) + ".jsonl")).string();
  }

  RunReport report;
  try {
    report = run_workload(*find_workload(cli.workload), options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : report.log) std::printf("%s\n", line.c_str());
  tsce::obs::RunInfo info = tsce::obs::RunInfo::current();
  info.seed = options.seed;
  info.threads = options.threads;
  info.set_param("workload", cli.workload);
  info.set_param("trace", options.trace ? "1" : "0");
  info.set_param("nproc", static_cast<std::int64_t>(nproc));
  info.set_param("instances", static_cast<std::int64_t>(report.instances));
  std::printf("run_info %s\n", info.to_json().dump().c_str());

  tsce::util::Json metrics = tsce::util::Json::object();
  for (const Metric& m : report.metrics) {
    tsce::util::Json entry = tsce::util::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  tsce::util::Json result = tsce::util::Json::object();
  result.set("correct", report.correct());
  result.set("attempted", report.attempted);
  result.set("failed", report.failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return report.correct() ? 0 : 1;
}
