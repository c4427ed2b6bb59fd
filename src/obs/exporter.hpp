/// \file exporter.hpp
/// Cadence-based time-series export of MetricsRegistry snapshots.
///
/// The registry's snapshot() is a point-in-time fold; long runs (service
/// soak, bench sweeps) want the *trajectory* — throughput ramps, tail-latency
/// drift, reject bursts — which means sampling the registry on a cadence and
/// persisting every sample.  MetricsExporter owns that loop: a background
/// thread wakes every period, snapshots the registry, stamps the sample with
/// a sequence number and seconds-since-start, and appends it to the output.
///
/// The output is an append-only JSONL series: one header record carrying
/// RunInfo provenance, then one {"t":"sample","seq","t_s","metrics":{...}}
/// record per tick.  tools/trace_report --metrics-series folds it into
/// throughput / tail-latency tables and CSV.
///
/// Each tick also calls flight_recorder_poll(), so a SIGUSR1-requested flight
/// recorder dump is serviced within one export period — the exporter doubles
/// as the process's observability housekeeping tick.
///
/// The exporter only *reads* telemetry; it never updates a metric or records
/// an event, so its background thread creates no registry shard or recorder
/// ring and cannot perturb determinism-audited runs.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "util/json.hpp"

namespace tsce::obs {

struct MetricsExporterConfig {
  std::string path;
  std::uint32_t period_ms = 1000;
};

class MetricsExporter {
 public:
  explicit MetricsExporter(MetricsExporterConfig config);
  ~MetricsExporter();  // implies stop()

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Opens the output (writing the RunInfo header) and starts the
  /// sampler thread.  Returns false when the file cannot be opened or the
  /// exporter is already running.
  bool start();

  /// Takes one final sample, stops the thread, and closes the output.
  /// Idempotent.
  void stop();

  /// Takes one sample synchronously (also called by the sampler thread).
  /// Requires start(); returns false when not running or on I/O failure.
  bool export_once();

  /// Samples written so far.
  [[nodiscard]] std::uint64_t samples() const noexcept;

  [[nodiscard]] const MetricsExporterConfig& config() const noexcept {
    return config_;
  }

 private:
  void run();
  bool write_sample_locked(const util::Json& metrics, double t_s);

  MetricsExporterConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  std::FILE* file_ = nullptr;
  bool running_ = false;
  bool stop_requested_ = false;
  std::uint64_t seq_ = 0;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace tsce::obs
