/// \file trace.hpp
/// Spans, trace events, and the `--trace` JSONL sink.
///
/// Spans and trace events are flight-recorder kinds (flight_recorder.hpp):
/// a span writes one binary slot into the calling thread's ring when it
/// closes (ts = start tick, the payload carries the duration), a trace event
/// one slot when emitted.  Neither allocates nor builds strings; the phase
/// string rides along as an interned id.  They are always recorded, so a
/// flight-recorder dump shows which run and trial a slow decode belongs to.
///
/// trace_open() installs a sink that writes the span and trace-event kinds
/// (never the per-decode fr.* kinds) of every ring to a JSONL file:
///   {"t":"header","version":1,"run_info":{...}}          — once, at open
///   {"t":"span","name":..,"tid":..,"ts":..,"dur":..,"f":{"phase":..,..}}
///   {"t":"event","name":..,"tid":..,"ts":..,"f":{"phase":..,..}}
/// Timestamps are seconds on the recorder's clock, shared with
/// flight_recorder_dump.  Spans carry a "phase" field by convention so
/// tools/trace_report can group the same span kind ("search.trial") per
/// strategy.
///
/// The sink drains a ring before an undrained slot would be overwritten,
/// when the ring's thread exits, and at trace_close(), which must be called
/// after worker pools have been joined (the bench harnesses satisfy this by
/// construction: BatchEvaluator/ThreadPool are destroyed before the harness
/// returns).

#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/flight_recorder.hpp"
#include "obs/run_info.hpp"

namespace tsce::obs {

/// True between a successful trace_open() and trace_close().
[[nodiscard]] bool tracing_active() noexcept;

/// Opens \p path for writing, emits the header record carrying \p info, and
/// starts draining spans and trace events recorded from now on.  Returns
/// false on I/O failure or when a trace is already open.
bool trace_open(const std::string& path, const RunInfo& info);

/// Drains every live ring and closes the file.  Call after worker threads
/// have been joined; records appended concurrently may be dropped.
void trace_close();

/// Interns \p phase (an allocator name) and returns its id; the same string
/// always maps to the same id.  Takes the recorder lock: call once per
/// allocate(), never per span.  Returns 0 (no phase) for an empty string or
/// once the 65535 ids are exhausted.
[[nodiscard]] PhaseId intern_phase(std::string_view phase);

/// Emits an instantaneous trace event of a trace-event \p kind.
void trace_event(FrKind kind, PhaseId phase, std::uint64_t a0,
                 std::uint64_t a1 = 0, std::uint64_t a2 = 0) noexcept;

/// Emits a search.improve event (a new incumbent).  \p trial and
/// \p iteration are clamped to 32 bits each.
void trace_improve(PhaseId phase, std::uint64_t trial, std::uint64_t iteration,
                   double worth, double slackness) noexcept;

/// RAII span of a span \p kind: records start, duration, phase, and two
/// payload words (see FrKind) when it closes.  While open it is listed on its
/// thread's open-span stack, so a dump taken inside it shows it with
/// "open":true.  Spans are intended for phase granularity (a GA trial, a
/// restart, one bench run) — never the per-candidate decode path.
class Span {
 public:
  explicit Span(FrKind kind, PhaseId phase = 0, std::uint64_t a1 = 0,
                std::uint64_t a2 = 0) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Sets the second payload word: a result known only at close.
  void set(std::uint64_t a2) noexcept { a2_ = a2; }
  void set(double a2) noexcept { a2_ = std::bit_cast<std::uint64_t>(a2); }

 private:
  std::uint64_t start_;
  std::uint64_t a1_;
  std::uint64_t a2_;
  FrKind kind_;
  PhaseId phase_;
};

}  // namespace tsce::obs
