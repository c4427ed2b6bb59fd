/// \file names.hpp
/// Single registry of every metric and trace-span/event name literal.
///
/// All dotted-path name literals passed to MetricsRegistry::counter/gauge/
/// histogram, and the names of every flight-recorder event kind (FrKind —
/// spans and trace events included), live here as constexpr string_views.
/// Call sites in src/ reference these constants; call sites in
/// bench/ and tools/ may keep inline literals, but tools/tsce_lint verifies
/// every such literal is declared in this file — so the full telemetry
/// vocabulary is greppable in one place and a typo ("decode.cals") fails the
/// lint instead of silently creating a second time series.
///
/// Naming convention: `<module>.<noun>[.<qualifier>]`, lower-case, dots as
/// separators.  Span/event names double as trace_report group keys.

#pragma once

#include <string_view>

namespace tsce::obs::names {

// --- decode engine counters (folded by DecodeContext on destruction) -------
inline constexpr std::string_view kDecodeCalls = "decode.calls";
inline constexpr std::string_view kDecodeCommitsAttempted = "decode.commits_attempted";
inline constexpr std::string_view kDecodeStringsReused = "decode.strings_reused";
inline constexpr std::string_view kDecodePrefixReuseLen = "decode.prefix_reuse_len";

// --- GENITOR (folded per run by Psg::allocate and the class-based search) --
/// Offspring that took a parent's fitness instead of being decoded.
inline constexpr std::string_view kGenitorInherited = "genitor.inherited";

// --- hot-path latency histograms (HDR, nanoseconds) -------------------------
// Wall-clock distributions; excluded from cross-thread-count byte-identity
// checks (see DESIGN.md §13).  Everything else in this file is
// deterministic-valued.
inline constexpr std::string_view kDecodeLatencyNs = "decode.latency_ns";
inline constexpr std::string_view kSessionCommitLatencyNs = "session.commit.latency_ns";
inline constexpr std::string_view kDynamicRemapLatencyNs = "dynamic.remap.latency_ns";
inline constexpr std::string_view kLpSolveLatencyNs = "lp.solve.latency_ns";

// --- LP solver (src/lp simplex; counters are deterministic per input) -------
inline constexpr std::string_view kLpIterations = "lp.iterations";
inline constexpr std::string_view kLpRefactorisations = "lp.refactorisations";

// --- dynamic re-map (core/dynamic.cpp reallocate) ----------------------------
inline constexpr std::string_view kDynamicRemapCalls = "dynamic.remap.calls";
inline constexpr std::string_view kDynamicRemapRemapped = "dynamic.remap.remapped";
inline constexpr std::string_view kDynamicRemapDropped = "dynamic.remap.dropped";
inline constexpr std::string_view kDynamicRemapMigrations = "dynamic.remap.migrations";

// --- allocation-session constraint classification (eq. (1)) ----------------
inline constexpr std::string_view kSessionRejectUtilization = "session.reject.utilization";
inline constexpr std::string_view kSessionRejectThroughput = "session.reject.throughput";
inline constexpr std::string_view kSessionRejectLatency = "session.reject.latency";

// --- search spans and convergence events (FrKind span/event kinds) ---------
inline constexpr std::string_view kSearchTrial = "search.trial";
inline constexpr std::string_view kSearchRestart = "search.restart";
inline constexpr std::string_view kSearchAnneal = "search.anneal";
inline constexpr std::string_view kSearchExact = "search.exact";
inline constexpr std::string_view kSearchExactBranch = "search.exact.branch";
inline constexpr std::string_view kSearchClass = "search.class";
inline constexpr std::string_view kSearchImprove = "search.improve";

// --- parallel tempering (the annealing engine) ------------------------------
// Spans: one per sweep (driver side) and one per replica step (worker side).
// Events: one per exchange attempt at a sweep barrier.  Counters tally
// sweeps, exchange attempts, and accepted swaps process-wide.
inline constexpr std::string_view kSearchTemperSweep = "search.temper.sweep";
inline constexpr std::string_view kSearchTemperReplica = "search.temper.replica";
inline constexpr std::string_view kSearchTemperExchange = "search.temper.exchange";
inline constexpr std::string_view kTemperSweeps = "search.temper.sweeps";
inline constexpr std::string_view kTemperExchanges = "search.temper.exchanges";
inline constexpr std::string_view kTemperSwaps = "search.temper.swaps";

// --- ring-only flight recorder kinds (see flight_recorder.hpp) -------------
inline constexpr std::string_view kFrDecode = "fr.decode";
inline constexpr std::string_view kFrCommitReject = "fr.commit.reject";
inline constexpr std::string_view kFrRemap = "fr.remap";
inline constexpr std::string_view kFrAnomaly = "fr.anomaly";
inline constexpr std::string_view kFrMark = "fr.mark";

// --- bench harness spans ----------------------------------------------------
inline constexpr std::string_view kBenchAlloc = "bench.alloc";
inline constexpr std::string_view kBenchUb = "bench.ub";
inline constexpr std::string_view kBenchMicroCounter = "bench.micro.counter";
inline constexpr std::string_view kBenchMicroSpan = "bench.micro.span";
inline constexpr std::string_view kBenchMicroEvent = "bench.micro.event";
inline constexpr std::string_view kBenchMicroHdr = "bench.micro.hdr";
inline constexpr std::string_view kBenchMicroFr = "bench.micro.fr";

}  // namespace tsce::obs::names
