/// \file flight_recorder.hpp
/// The event pipeline: always-on, fixed-cost per-thread rings of binary
/// events.
///
/// Every thread owns a fixed-size ring that is ALWAYS recording — one event
/// is a timestamp read, one compare and five relaxed stores — and the ring
/// simply overwrites its oldest entries.  Every event the program emits goes
/// through it: per-decode and per-commit fr.* events, and the search and
/// bench spans and trace events of trace.hpp.  When something goes wrong the
/// recent past is still in memory and can be dumped to JSONL:
///
///   * on demand        — flight_recorder_dump(path),
///   * on SIGUSR1       — install_signal_trigger() + poll() from any
///                        housekeeping tick (the metrics exporter polls),
///   * on an anomaly    — a decode slower than the configured watermark
///                        triggers one automatic dump to the configured path,
///                        capturing the event window surrounding the anomaly
///                        together with the spans enclosing it.
///
/// `--trace` (trace_open) is an unbounded sink on the same rings: it drains
/// the span and trace-event kinds before their slots are overwritten, at
/// thread exit, and at trace_close, so one tid space and one clock cover both
/// outputs.
///
/// Events are binary and schema-fixed (tick timestamp, kind, phase id, tid,
/// three payload words); the single JSONL writer converts ticks to seconds
/// since the recorder's start, labels each kind with its registered name
/// from names.hpp, and names its payload fields.  Span kinds become
/// {"t":"span",..,"dur":..} records, everything else {"t":"event",..}; a dump
/// starts with a header record carrying RunInfo provenance and is sorted by
/// timestamp, so tools/trace_report consumes it directly.
///
/// End-of-life ordering: when a thread retires (e.g. a ThreadPool worker
/// joined mid-run), the trace sink drains its ring and the ring then folds
/// into a global retired ring under the recorder lock, so a later dump still
/// contains the retired thread's events — the same fold-on-retire contract
/// the metrics registry shards follow.
///
/// Concurrency: ring slots are relaxed atomics written only by the owning
/// thread; a concurrent dump or drain reads them without tearing individual
/// words.  The recorder never allocates on the record path (rings are
/// created, and drained, by cold out-of-line helpers).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tsce::obs {

/// Event vocabulary.  Every kind has a dotted name in names.hpp and a fixed
/// payload schema (field labels and encodings, see flight_recorder.cpp).
enum class FrKind : std::uint16_t {
  // Ring-only kinds: in dumps, never in a --trace file.
  kDecode = 0,        ///< a0 = latency ns, a1 = prefix reused, a2 = deployed
  kCommitReject = 1,  ///< a0 = string id, a1 = violation class
  kUncommit = 2,      ///< a0 = latency ns, a1 = strings uncommitted
  kRemap = 3,         ///< a0 = latency ns, a1 = migrations, a2 = dropped
  kAnomaly = 4,       ///< a0 = anomaly code, a1 = value, a2 = watermark
  kMark = 5,          ///< user-defined payload (tests, bench phase marks)
  // Span kinds (obs::Span): ts = start tick, a0 = duration in ticks.
  kSearchTrial = 6,           ///< a1 = trial, a2 = evaluations
  kSearchRestart = 7,         ///< a1 = restart, a2 = evaluations
  kSearchAnneal = 8,          ///< a1 = replicas, a2 = evaluations
  kSearchExact = 9,           ///< a1 = threads, a2 = evaluations
  kSearchExactBranch = 10,    ///< a1 = branch, a2 = evaluations
  kSearchClass = 11,          ///< a1 = class, a2 = members
  kSearchTemperSweep = 12,    ///< a1 = sweep
  kSearchTemperReplica = 13,  ///< a1 = replica, a2 = sweep
  kBenchAlloc = 14,           ///< a1 = run, a2 = metric (double)
  kBenchUb = 15,              ///< a1 = run, a2 = metric (double)
  kBenchMicroSpan = 16,       ///< a1 = k
  // Trace-event kinds (obs::trace_event / trace_improve).
  /// a0 = trial << 32 | iteration, a1 = worth, a2 = slackness (doubles)
  kSearchImprove = 17,
  kSearchTemperExchange = 18,  ///< a0 = sweep, a1 = pair, a2 = accepted
  kBenchMicroEvent = 19,       ///< a0 = k
};
inline constexpr std::size_t kFrKindCount = 20;

/// Interned phase string (the allocator name a span or trace event belongs
/// to; see obs::intern_phase).  0 = no phase.
using PhaseId = std::uint16_t;

/// Anomaly codes carried in kAnomaly's first payload word.
enum class FrAnomaly : std::uint64_t {
  kSlowDecode = 1,  ///< decode latency exceeded the watermark
};

struct FlightRecorderConfig {
  /// Events retained per thread; rounded up to a power of two.  The retired
  /// sink keeps 4x this many events across all retired threads.
  std::size_t ring_capacity = 4096;
  /// Decode latency (ns) above which an anomaly fires.  0 disables.
  std::uint64_t decode_latency_watermark_ns = 0;
  /// Where an anomaly- or signal-triggered dump lands.  Empty disables
  /// automatic dumps (anomaly events are still recorded in the ring).
  std::string auto_dump_path;
};

/// Installs \p config process-wide.  Not thread-safe against concurrent
/// recording; call during startup (harness flag parsing, test SetUp).
void flight_recorder_configure(const FlightRecorderConfig& config);
[[nodiscard]] const FlightRecorderConfig& flight_recorder_config() noexcept;

/// Records one event into the calling thread's ring.  Wait-free after the
/// thread's first event (which allocates its ring in a cold helper), except
/// while a trace sink is open and the ring is about to overwrite an undrained
/// span or trace event.
void flight_recorder_record(FrKind kind, std::uint64_t a0, std::uint64_t a1 = 0,
                            std::uint64_t a2 = 0) noexcept;

/// Records a decode event and fires the slow-decode anomaly when \p ns
/// exceeds the configured watermark.
void flight_recorder_note_decode(std::uint64_t ns, std::uint64_t prefix_reused,
                                 std::uint64_t deployed) noexcept;

/// Dumps every live and retired ring as JSONL (header + ts-sorted records).
/// Returns false on I/O failure.
bool flight_recorder_dump(const std::string& path);

/// Number of dumps performed so far (manual + triggered).
[[nodiscard]] std::uint64_t flight_recorder_dump_count() noexcept;

/// Installs a SIGUSR1 handler that requests a dump; the dump itself runs at
/// the next poll() (signal handlers cannot do file I/O safely).
void flight_recorder_install_signal_trigger();

/// Executes any pending signal-requested dump to the configured
/// auto_dump_path.  Cheap when nothing is pending; the metrics exporter
/// calls this every tick.
void flight_recorder_poll();

/// Total events ever recorded (live + retired + overwritten).
[[nodiscard]] std::uint64_t flight_recorder_events_recorded() noexcept;

/// Drops all buffered events and trigger state (test-only; callers must
/// ensure no thread is recording concurrently).
void flight_recorder_reset();

/// Dotted event name for \p kind (registered in names.hpp).
[[nodiscard]] std::string_view flight_recorder_kind_name(FrKind kind) noexcept;

}  // namespace tsce::obs
