#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "obs/names.hpp"
#include "obs/run_info.hpp"
#include "obs/trace.hpp"

namespace tsce::obs {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// One ring slot.  Words are individually-relaxed atomics: the owning thread
/// is the only writer, so a concurrent dump can read a torn *event* (mixed
/// old/new words while the owner overwrites the slot) but never a torn word.
/// Torn events are limited to the single slot at the write head.
struct Slot {
  std::atomic<std::uint64_t> ts{0};
  std::atomic<std::uint64_t> meta{0};  // phase << 48 | kind << 32 | tid
  std::atomic<std::uint64_t> a0{0};
  std::atomic<std::uint64_t> a1{0};
  std::atomic<std::uint64_t> a2{0};
};

/// A span that has opened but not closed yet: what a dump shows of the spans
/// enclosing the moment it was taken.
struct OpenSlot {
  std::atomic<std::uint64_t> ts{0};
  std::atomic<std::uint64_t> meta{0};
  std::atomic<std::uint64_t> a1{0};
};

/// Open spans tracked per thread; deeper nesting still records each span
/// when it closes.
constexpr std::uint32_t kMaxOpen = 8;

struct Ring {
  std::unique_ptr<Slot[]> slots;
  std::size_t mask = 0;                 // capacity - 1 (capacity is pow2)
  std::atomic<std::uint64_t> head{0};   // total events written by the owner
  /// Head at which the next event would overwrite a slot the trace sink has
  /// not drained yet; kNever while no sink is open.
  std::atomic<std::uint64_t> drain_at{kNever};
  std::uint64_t drained = 0;  // events [0, drained) seen by the sink; FrState::mu
  std::uint32_t tid = 0;
  std::atomic<std::uint32_t> depth{0};  // open spans, innermost last
  OpenSlot open[kMaxOpen];
};

/// Plain-value event used for the retired sink and dump staging.
struct PlainEvent {
  std::uint64_t ts = 0;
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t a2 = 0;
  std::uint32_t tid = 0;
  std::uint16_t kind = 0;
  PhaseId phase = 0;
  bool open = false;  // a span still open at dump time; a0 = age so far
};

/// Global recorder state, leaked so thread-exit folds from late threads never
/// race static destruction (same pattern as the metrics registry).
struct FrState {
  std::mutex mu;
  FlightRecorderConfig config;
  std::vector<Ring*> live;
  std::vector<PlainEvent> retired;       // newest-last, bounded
  std::uint64_t retired_recorded = 0;    // total events from retired threads
  std::uint64_t t0_ticks = clock_ticks();
  std::vector<std::string> phases{std::string()};  // PhaseId -> string
  std::FILE* sink = nullptr;             // the open --trace file
};

FrState& state() {
  static FrState* s = new FrState;
  return *s;
}

// The decode watermark is mirrored into an atomic so the hot-path check
// never takes the configuration lock.
std::atomic<std::uint64_t> g_decode_watermark_ns{0};
std::atomic<bool> g_anomaly_fired{false};
std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_dump_count{0};
std::atomic<std::uint32_t> g_next_tid{0};
volatile std::sig_atomic_t g_signal_pending = 0;

// --- kind schemas and the JSONL writer --------------------------------------

enum class Record : std::uint8_t { kRing, kSpan, kEvent };
/// How a field is read out of its payload word.
enum class Enc : std::uint8_t { kU64, kF64, kHi32, kLo32 };

struct FieldDesc {
  const char* label = nullptr;  // nullptr: no field
  std::uint8_t word = 0;        // payload word a0..a2
  Enc enc = Enc::kU64;
};

struct KindDesc {
  std::string_view name;
  Record record;
  FieldDesc fields[4];
};

constexpr KindDesc kKinds[kFrKindCount] = {
    {names::kFrDecode, Record::kRing,
     {{"ns", 0}, {"reused", 1}, {"deployed", 2}}},
    {names::kFrCommitReject, Record::kRing, {{"string", 0}, {"violation", 1}}},
    {names::kFrRemap, Record::kRing,
     {{"ns", 0}, {"migrations", 1}, {"dropped", 2}}},
    {names::kFrAnomaly, Record::kRing,
     {{"code", 0}, {"value", 1}, {"watermark", 2}}},
    {names::kFrMark, Record::kRing, {{"a0", 0}, {"a1", 1}, {"a2", 2}}},
    {names::kSearchTrial, Record::kSpan, {{"trial", 1}, {"evaluations", 2}}},
    {names::kSearchRestart, Record::kSpan,
     {{"restart", 1}, {"evaluations", 2}}},
    {names::kSearchAnneal, Record::kSpan,
     {{"replicas", 1}, {"evaluations", 2}}},
    {names::kSearchExact, Record::kSpan, {{"threads", 1}, {"evaluations", 2}}},
    {names::kSearchExactBranch, Record::kSpan,
     {{"branch", 1}, {"evaluations", 2}}},
    {names::kSearchClass, Record::kSpan, {{"class", 1}, {"members", 2}}},
    {names::kSearchTemperSweep, Record::kSpan, {{"sweep", 1}}},
    {names::kSearchTemperReplica, Record::kSpan, {{"replica", 1}, {"sweep", 2}}},
    {names::kBenchAlloc, Record::kSpan, {{"run", 1}, {"metric", 2, Enc::kF64}}},
    {names::kBenchUb, Record::kSpan, {{"run", 1}, {"metric", 2, Enc::kF64}}},
    {names::kBenchMicroSpan, Record::kSpan, {{"k", 1}}},
    {names::kSearchImprove, Record::kEvent,
     {{"trial", 0, Enc::kHi32},
      {"iteration", 0, Enc::kLo32},
      {"worth", 1, Enc::kF64},
      {"slackness", 2, Enc::kF64}}},
    {names::kSearchTemperExchange, Record::kEvent,
     {{"sweep", 0}, {"pair", 1}, {"accepted", 2}}},
    {names::kBenchMicroEvent, Record::kEvent, {{"k", 0}}},
};

const KindDesc& kind_desc(std::uint16_t kind) noexcept {
  // An out-of-range kind (never written by this code) prints as a mark.
  return kKinds[kind < kFrKindCount
                    ? kind
                    : static_cast<std::size_t>(FrKind::kMark)];
}

void append_escaped(std::string& out, std::string_view v) {
  for (char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
}

void append_field(std::string& out, const FieldDesc& f,
                  const std::uint64_t (&words)[3]) {
  const std::uint64_t w = words[f.word];
  char num[40];
  switch (f.enc) {
    case Enc::kU64:
      std::snprintf(num, sizeof num, "%llu", static_cast<unsigned long long>(w));
      break;
    case Enc::kHi32:
      std::snprintf(num, sizeof num, "%llu",
                    static_cast<unsigned long long>(w >> 32));
      break;
    case Enc::kLo32:
      std::snprintf(num, sizeof num, "%llu",
                    static_cast<unsigned long long>(w & 0xffffffffu));
      break;
    case Enc::kF64: {
      const double v = std::bit_cast<double>(w);
      if (!std::isfinite(v)) {
        std::snprintf(num, sizeof num, "null");
      } else if (v == std::trunc(v) && std::fabs(v) < 1e15) {
        // Integral values (worth, counts) print without a fraction.
        std::snprintf(num, sizeof num, "%lld", static_cast<long long>(v));
      } else {
        std::snprintf(num, sizeof num, "%.17g", v);
      }
      break;
    }
  }
  out += '"';
  out += f.label;
  out += "\":";
  out += num;
}

/// The one JSONL writer: a span or event record for \p e, with timestamps in
/// seconds since the recorder's start.
void append_record(std::string& out, const PlainEvent& e, std::uint64_t t0_ticks,
                   const std::vector<std::string>& phases) {
  const KindDesc& d = kind_desc(e.kind);
  const bool span = d.record == Record::kSpan;
  const std::uint64_t rel = e.ts >= t0_ticks ? ticks_to_ns(e.ts - t0_ticks) : 0;
  char buf[96];
  out += span ? "{\"t\":\"span\",\"name\":\"" : "{\"t\":\"event\",\"name\":\"";
  out += d.name;
  std::snprintf(buf, sizeof buf, "\",\"tid\":%u,\"ts\":%.9f", e.tid,
                static_cast<double>(rel) * 1e-9);
  out += buf;
  if (span) {
    std::snprintf(buf, sizeof buf, ",\"dur\":%.9f",
                  static_cast<double>(ticks_to_ns(e.a0)) * 1e-9);
    out += buf;
    if (e.open) out += ",\"open\":true";
  }
  out += ",\"f\":{";
  bool first = true;
  if (e.phase != 0 && e.phase < phases.size()) {
    out += "\"phase\":\"";
    append_escaped(out, phases[e.phase]);
    out += '"';
    first = false;
  }
  const std::uint64_t words[3] = {e.a0, e.a1, e.a2};
  for (const FieldDesc& f : d.fields) {
    if (f.label == nullptr) break;
    if (e.open && f.word == 2) continue;  // a span's result is set at close
    if (!first) out += ',';
    first = false;
    append_field(out, f, words);
  }
  out += "}}\n";
}

// --- rings ------------------------------------------------------------------

PlainEvent load_slot(const Slot& s) {
  PlainEvent e;
  e.ts = s.ts.load(std::memory_order_relaxed);
  const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
  e.phase = static_cast<PhaseId>(meta >> 48);
  e.kind = static_cast<std::uint16_t>(meta >> 32);
  e.tid = static_cast<std::uint32_t>(meta);
  e.a0 = s.a0.load(std::memory_order_relaxed);
  e.a1 = s.a1.load(std::memory_order_relaxed);
  e.a2 = s.a2.load(std::memory_order_relaxed);
  return e;
}

void copy_ring_into(const Ring& ring, std::vector<PlainEvent>& out) {
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(head, ring.mask + 1);
  for (std::uint64_t i = head - n; i < head; ++i) {
    out.push_back(load_slot(ring.slots[i & ring.mask]));
  }
}

/// Appends \p ring's open spans, aged up to \p now.
void copy_open_spans_into(const Ring& ring, std::uint64_t now,
                          std::vector<PlainEvent>& out) {
  const std::uint32_t depth =
      std::min(ring.depth.load(std::memory_order_acquire), kMaxOpen);
  for (std::uint32_t i = 0; i < depth; ++i) {
    const OpenSlot& o = ring.open[i];
    PlainEvent e;
    e.ts = o.ts.load(std::memory_order_relaxed);
    const std::uint64_t meta = o.meta.load(std::memory_order_relaxed);
    e.phase = static_cast<PhaseId>(meta >> 48);
    e.kind = static_cast<std::uint16_t>(meta >> 32);
    e.tid = static_cast<std::uint32_t>(meta);
    e.a0 = now >= e.ts ? now - e.ts : 0;
    e.a1 = o.a1.load(std::memory_order_relaxed);
    e.open = true;
    out.push_back(e);
  }
}

/// Arms \p r's overwrite check for a sink that has seen events [0, from).
/// Caller holds FrState::mu.
void arm_drain(const FrState& s, Ring& r, std::uint64_t from) {
  r.drained = from;
  r.drain_at.store(s.sink != nullptr ? from + r.mask + 1 : kNever,
                   std::memory_order_relaxed);
}

/// Writes the span and trace-event slots \p r recorded since its last drain
/// to the open sink, then re-arms the overwrite check.  Caller holds
/// FrState::mu.
void drain_locked(FrState& s, Ring& r) {
  const std::uint64_t head = r.head.load(std::memory_order_acquire);
  if (s.sink != nullptr) {
    const std::uint64_t cap = r.mask + 1;
    std::string lines;
    for (std::uint64_t i = std::max(r.drained, head > cap ? head - cap : 0);
         i < head; ++i) {
      const PlainEvent e = load_slot(r.slots[i & r.mask]);
      if (kind_desc(e.kind).record == Record::kRing) continue;
      append_record(lines, e, s.t0_ticks, s.phases);
    }
    std::fwrite(lines.data(), 1, lines.size(), s.sink);
  }
  arm_drain(s, r, head);
}

/// Cold path of the record functions: the next slot holds an event the
/// trace sink has not seen yet.
[[gnu::cold, gnu::noinline]] void drain_before_overwrite(Ring& r) {
  FrState& s = state();
  std::lock_guard lock(s.mu);
  drain_locked(s, r);
}

/// Owns the calling thread's ring; on thread exit the trace sink drains it
/// and it folds into the retired sink, so dumps taken after a worker retires
/// still see its events.
struct RingOwner {
  std::unique_ptr<Ring> ring;

  RingOwner() {
    FrState& s = state();
    std::lock_guard lock(s.mu);
    ring = std::make_unique<Ring>();
    const std::size_t cap = std::bit_ceil(std::max<std::size_t>(
        std::size_t{16}, s.config.ring_capacity));
    ring->slots = std::make_unique<Slot[]>(cap);
    ring->mask = cap - 1;
    ring->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    arm_drain(s, *ring, 0);
    s.live.push_back(ring.get());
  }

  ~RingOwner() {
    FrState& s = state();
    std::lock_guard lock(s.mu);
    drain_locked(s, *ring);
    copy_ring_into(*ring, s.retired);
    s.retired_recorded += ring->head.load(std::memory_order_relaxed);
    // Bound the retired sink: keep the newest 4x ring_capacity events.
    const std::size_t cap = std::bit_ceil(std::max<std::size_t>(
                                std::size_t{16}, s.config.ring_capacity)) *
                            4;
    if (s.retired.size() > cap) {
      s.retired.erase(s.retired.begin(),
                      s.retired.end() - static_cast<std::ptrdiff_t>(cap));
    }
    std::erase(s.live, ring.get());
  }
};

// Inlined into every record path, as the ring lookup plus the drain check is
// the whole fast path; ring creation and drains stay out of line.
[[gnu::always_inline]] inline Ring& local_ring() {
  static thread_local RingOwner owner;
  return *owner.ring;
}

std::uint64_t pack_meta(FrKind kind, PhaseId phase, std::uint32_t tid) noexcept {
  return std::uint64_t{phase} << 48 | static_cast<std::uint64_t>(kind) << 32 |
         tid;
}

[[gnu::always_inline]] inline void record_at(std::uint64_t ts, FrKind kind,
                                             PhaseId phase, std::uint64_t a0,
                                             std::uint64_t a1,
                                             std::uint64_t a2) noexcept {
  Ring& r = local_ring();
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  if (h >= r.drain_at.load(std::memory_order_relaxed)) [[unlikely]] {
    drain_before_overwrite(r);
  }
  Slot& slot = r.slots[h & r.mask];
  slot.ts.store(ts, std::memory_order_relaxed);
  slot.meta.store(pack_meta(kind, phase, r.tid), std::memory_order_relaxed);
  slot.a0.store(a0, std::memory_order_relaxed);
  slot.a1.store(a1, std::memory_order_relaxed);
  slot.a2.store(a2, std::memory_order_relaxed);
  r.head.store(h + 1, std::memory_order_release);
}

/// Fires at most one automatic dump per process (until reset) so an anomaly
/// storm cannot turn the dump path into the bottleneck.
void trigger_auto_dump() {
  if (g_anomaly_fired.exchange(true, std::memory_order_relaxed)) return;
  std::string path;
  {
    FrState& s = state();
    std::lock_guard lock(s.mu);
    path = s.config.auto_dump_path;
  }
  if (!path.empty()) flight_recorder_dump(path);
}

}  // namespace

// --- flight recorder --------------------------------------------------------

void flight_recorder_configure(const FlightRecorderConfig& config) {
  FrState& s = state();
  std::lock_guard lock(s.mu);
  s.config = config;
  g_decode_watermark_ns.store(config.decode_latency_watermark_ns,
                              std::memory_order_relaxed);
  // Pre-warm the tick-rate calibration off the hot path.
  (void)ticks_per_ns();
}

void flight_recorder_record(FrKind kind, std::uint64_t a0, std::uint64_t a1,
                            std::uint64_t a2) noexcept {
  record_at(clock_ticks(), kind, 0, a0, a1, a2);
}

void flight_recorder_note_decode(std::uint64_t ns, std::uint64_t prefix_reused,
                                 std::uint64_t deployed) noexcept {
  flight_recorder_record(FrKind::kDecode, ns, prefix_reused, deployed);
  const std::uint64_t wm =
      g_decode_watermark_ns.load(std::memory_order_relaxed);
  if (wm != 0 && ns > wm) {
    flight_recorder_record(
        FrKind::kAnomaly,
        static_cast<std::uint64_t>(FrAnomaly::kSlowDecode), ns, wm);
    trigger_auto_dump();
  }
}

bool flight_recorder_dump(const std::string& path) {
  FrState& s = state();
  std::vector<PlainEvent> events;
  std::vector<std::string> phases;
  std::uint64_t t0;
  {
    std::lock_guard lock(s.mu);
    events.reserve(s.retired.size() + s.live.size() * 64);
    events.insert(events.end(), s.retired.begin(), s.retired.end());
    const std::uint64_t now = clock_ticks();
    for (const Ring* r : s.live) {
      copy_ring_into(*r, events);
      copy_open_spans_into(*r, now, events);
    }
    phases = s.phases;
    t0 = s.t0_ticks;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const PlainEvent& a, const PlainEvent& b) {
                     return a.ts < b.ts;
                   });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string out = "{\"t\":\"header\",\"version\":1,\"recorder\":\"flight\","
                    "\"run_info\":" +
                    RunInfo::current().to_json().dump() + "}\n";
  for (const PlainEvent& e : events) append_record(out, e, t0, phases);
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  g_dump_count.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

std::uint64_t flight_recorder_dump_count() noexcept {
  return g_dump_count.load(std::memory_order_relaxed);
}

void flight_recorder_install_signal_trigger() {
#ifdef SIGUSR1
  std::signal(SIGUSR1, [](int) { g_signal_pending = 1; });
#endif
}

void flight_recorder_poll() {
  if (g_signal_pending == 0) return;
  g_signal_pending = 0;
  std::string path;
  {
    FrState& s = state();
    std::lock_guard lock(s.mu);
    path = s.config.auto_dump_path;
  }
  if (!path.empty()) flight_recorder_dump(path);
}

std::uint64_t flight_recorder_events_recorded() noexcept {
  FrState& s = state();
  std::lock_guard lock(s.mu);
  std::uint64_t total = s.retired_recorded;
  for (const Ring* r : s.live) {
    total += r->head.load(std::memory_order_relaxed);
  }
  return total;
}

void flight_recorder_reset() {
  FrState& s = state();
  std::lock_guard lock(s.mu);
  s.retired.clear();
  s.retired_recorded = 0;
  for (Ring* r : s.live) {
    r->head.store(0, std::memory_order_relaxed);
    arm_drain(s, *r, 0);
  }
  g_anomaly_fired.store(false, std::memory_order_relaxed);
  g_dump_count.store(0, std::memory_order_relaxed);
  g_signal_pending = 0;
}

std::string_view flight_recorder_kind_name(FrKind kind) noexcept {
  return kind_desc(static_cast<std::uint16_t>(kind)).name;
}

// --- spans, trace events, and the --trace sink ------------------------------

bool tracing_active() noexcept {
  return g_tracing.load(std::memory_order_acquire);
}

bool trace_open(const std::string& path, const RunInfo& info) {
  (void)ticks_per_ns();  // calibrate before the first drain converts ticks
  FrState& s = state();
  std::lock_guard lock(s.mu);
  if (s.sink != nullptr) return false;
  s.sink = std::fopen(path.c_str(), "w");
  if (s.sink == nullptr) return false;
  const std::string header = "{\"t\":\"header\",\"version\":1,\"run_info\":" +
                             info.to_json().dump() + "}\n";
  std::fwrite(header.data(), 1, header.size(), s.sink);
  // Only events recorded from now on belong to this trace.
  for (Ring* r : s.live) {
    arm_drain(s, *r, r->head.load(std::memory_order_acquire));
  }
  g_tracing.store(true, std::memory_order_release);
  return true;
}

void trace_close() {
  g_tracing.store(false, std::memory_order_release);
  FrState& s = state();
  std::lock_guard lock(s.mu);
  if (s.sink == nullptr) return;
  for (Ring* r : s.live) drain_locked(s, *r);
  std::fclose(s.sink);
  s.sink = nullptr;
  for (Ring* r : s.live) arm_drain(s, *r, r->drained);
}

PhaseId intern_phase(std::string_view phase) {
  if (phase.empty()) return 0;
  FrState& s = state();
  std::lock_guard lock(s.mu);
  const auto it = std::find(s.phases.begin(), s.phases.end(), phase);
  if (it != s.phases.end()) return static_cast<PhaseId>(it - s.phases.begin());
  if (s.phases.size() > std::numeric_limits<PhaseId>::max()) return 0;
  s.phases.emplace_back(phase);
  return static_cast<PhaseId>(s.phases.size() - 1);
}

void trace_event(FrKind kind, PhaseId phase, std::uint64_t a0, std::uint64_t a1,
                 std::uint64_t a2) noexcept {
  record_at(clock_ticks(), kind, phase, a0, a1, a2);
}

void trace_improve(PhaseId phase, std::uint64_t trial, std::uint64_t iteration,
                   double worth, double slackness) noexcept {
  constexpr std::uint64_t kMax32 = 0xffffffffu;
  record_at(clock_ticks(), FrKind::kSearchImprove, phase,
            std::min(trial, kMax32) << 32 | std::min(iteration, kMax32),
            std::bit_cast<std::uint64_t>(worth),
            std::bit_cast<std::uint64_t>(slackness));
}

Span::Span(FrKind kind, PhaseId phase, std::uint64_t a1,
           std::uint64_t a2) noexcept
    : start_(clock_ticks()), a1_(a1), a2_(a2), kind_(kind), phase_(phase) {
  Ring& r = local_ring();
  const std::uint32_t d = r.depth.load(std::memory_order_relaxed);
  if (d < kMaxOpen) {
    r.open[d].ts.store(start_, std::memory_order_relaxed);
    r.open[d].meta.store(pack_meta(kind, phase, r.tid),
                         std::memory_order_relaxed);
    r.open[d].a1.store(a1, std::memory_order_relaxed);
  }
  r.depth.store(d + 1, std::memory_order_release);
}

Span::~Span() {
  Ring& r = local_ring();
  r.depth.store(r.depth.load(std::memory_order_relaxed) - 1,
                std::memory_order_release);
  record_at(start_, kind_, phase_, clock_ticks() - start_, a1_, a2_);
}

}  // namespace tsce::obs
