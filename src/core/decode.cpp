#include "core/decode.hpp"

#include <cassert>
#include <numeric>

#include "core/imr.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/hot.hpp"

namespace tsce::core {

using model::StringId;
using model::SystemModel;

namespace {

/// Registry handles resolved once per process; contexts fold their local
/// tallies into these on destruction (the hot loop stays untouched).
struct DecodeMetrics {
  obs::Counter& calls;
  obs::Counter& commits_attempted;
  obs::Counter& strings_reused;
  obs::Histogram& prefix_reuse_len;
  obs::Histogram& latency_ns;  ///< wall-clock per decode_order_into call

  static DecodeMetrics& get() {
    static DecodeMetrics m{
        obs::MetricsRegistry::instance().counter(obs::names::kDecodeCalls),
        obs::MetricsRegistry::instance().counter(obs::names::kDecodeCommitsAttempted),
        obs::MetricsRegistry::instance().counter(obs::names::kDecodeStringsReused),
        obs::MetricsRegistry::instance().histogram(obs::names::kDecodePrefixReuseLen),
        obs::MetricsRegistry::instance().histogram(obs::names::kDecodeLatencyNs)};
    return m;
  }
};

}  // namespace

DecodeContext::DecodeContext(const SystemModel& model) : session_(model) {
  committed_.reserve(model.num_strings());
  checkpoints_.resize(model.num_strings() + 1);
  session_.snapshot_into(checkpoints_[0]);
}

DecodeContext::~DecodeContext() {
  if (decodes_ == 0 && commits_attempted_ == 0) return;
  DecodeMetrics& m = DecodeMetrics::get();
  m.calls.add(decodes_);
  m.commits_attempted.add(commits_attempted_);
  m.strings_reused.add(reused_);
}

TSCE_HOT bool DecodeContext::try_push(StringId k) {
  ++commits_attempted_;
  imr_map_string_into(session_.system(), session_.util(), k, imr_scratch_,
                      assignment_scratch_);
  if (!session_.try_commit(k, assignment_scratch_)) return false;
  committed_.push_back(k);
  // Checkpoint the new depth so any later rewind past this point is a
  // restore.  Snapshot buffers are depth-slot-stable, so this is memcpys
  // only once the first full decode has sized them.
  session_.snapshot_into(checkpoints_[committed_.size()]);
  return true;
}

TSCE_HOT void DecodeContext::pop() {
  assert(!committed_.empty());
  session_.restore_from(checkpoints_[committed_.size() - 1]);
  committed_.pop_back();
}

TSCE_HOT void DecodeContext::rewind_to(std::size_t prefix_len) {
  assert(prefix_len <= committed_.size());
  if (prefix_len >= committed_.size()) return;
  // Checkpoint restore: O(state bytes) regardless of how long the dropped
  // suffix is.
  session_.restore_from(checkpoints_[prefix_len]);
  committed_.resize(prefix_len);
}

void DecodeContext::clone_state_from(const DecodeContext& other) {
  assert(&session_.system() == &other.session_.system());
  committed_ = other.committed_;
  // The live checkpoints [0, depth] are part of the decode state; deeper
  // slots are stale in both contexts and never read before being rewritten.
  for (std::size_t d = 0; d <= other.committed_.size(); ++d) {
    checkpoints_[d] = other.checkpoints_[d];
  }
  session_.restore_from(checkpoints_[committed_.size()]);
}

DecodeResult DecodeContext::materialize(const DecodeOutcome& outcome) const {
  DecodeResult result;
  result.allocation = session_.allocation();
  result.fitness = outcome.fitness;
  result.strings_deployed = outcome.strings_deployed;
  result.first_failed = outcome.first_failed;
  return result;
}

TSCE_HOT DecodeOutcome decode_order_into(DecodeContext& ctx,
                                         std::span<const StringId> order) {
  const std::uint64_t t0 = obs::clock_ticks();
  ++ctx.decodes_;
  // Longest common prefix of the new order and the committed stack.  Strings
  // at and beyond the previous decode's first failure were never committed,
  // so the stack is exactly the deployed prefix of the last order: everything
  // up to the divergence point can be kept as-is.
  std::size_t lcp = 0;
  const std::size_t max_lcp = std::min(ctx.committed_.size(), order.size());
  while (lcp < max_lcp && ctx.committed_[lcp] == order[lcp]) ++lcp;
  ctx.rewind_to(lcp);
  ctx.reused_ += lcp;
  DecodeMetrics::get().prefix_reuse_len.record(lcp);

  DecodeOutcome outcome;
  outcome.prefix_reused = lcp;
  outcome.strings_deployed = lcp;
  for (std::size_t p = lcp; p < order.size(); ++p) {
    if (!ctx.try_push(order[p])) {
      outcome.first_failed = order[p];
      break;
    }
    ++outcome.strings_deployed;
  }
  outcome.fitness = ctx.fitness();
  // Latency is recorded only — never branched on — so the decode itself stays
  // deterministic; the flight recorder applies its slow-decode watermark to
  // the same reading.
  const std::uint64_t ns = obs::ticks_to_ns(obs::clock_ticks() - t0);
  DecodeMetrics::get().latency_ns.record(ns);
  obs::flight_recorder_note_decode(ns, lcp, outcome.strings_deployed);
  return outcome;
}

DecodeResult decode_order(const SystemModel& model,
                          std::span<const StringId> order) {
  DecodeContext ctx(model);
  return ctx.materialize(decode_order_into(ctx, order));
}

std::vector<StringId> identity_order(const SystemModel& model) {
  std::vector<StringId> order(model.num_strings());
  std::iota(order.begin(), order.end(), 0);
  return order;
}

}  // namespace tsce::core
