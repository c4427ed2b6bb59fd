/// \file spans.hpp
/// In-memory span recorder for traced benchmark runs.
///
/// Spans are opened and closed from the benchmark's own files around calls
/// into the library (one thread: the benchmark's main thread).  Each span
/// records its name, its parent and its duration; a span's self time is its
/// duration minus its children's.  Very fine-grained calls (one IMR mapping,
/// one session commit) are folded into one aggregate child per parent span
/// instead of one record each.  Records stay in memory and are written out
/// as JSONL when the run ends.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                         std::chrono::steady_clock::now().time_since_epoch())
                                         .count());
}

class SpanRecorder {
 public:
  struct Record {
    const char* name = "";
    std::int32_t parent = -1;
    std::uint64_t begin_ns = 0;
    std::uint64_t duration_ns = 0;
    /// Calls folded into this record (1 for an ordinary span).
    std::uint64_t count = 1;
  };

  struct LayerTotals {
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t count = 0;
  };

  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name);
  /// Closes span \p index, which must be the innermost open one.
  void close(std::int32_t index);
  /// Adds \p count calls totalling \p ns as one aggregate child of the
  /// innermost open span.
  void add_aggregate(const char* name, std::uint64_t ns, std::uint64_t count);

  /// Self time, total time and call count per span name.
  [[nodiscard]] std::map<std::string, LayerTotals> layers() const;
  [[nodiscard]] const std::vector<Record>& records() const noexcept { return records_; }

  /// Writes \p header then one JSON object per record to \p path.  Returns
  /// false when the file cannot be written.
  bool write_jsonl(const std::string& path, const tsce::util::Json& header) const;

 private:
  std::vector<Record> records_;
  std::vector<std::int32_t> open_;
  std::uint64_t origin_ns_ = now_ns();
};

/// RAII span; a null recorder makes it a no-op, so one code path serves the
/// untraced and traced runs.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), index_(recorder != nullptr ? recorder->open(name) : -1) {}
  ~Span() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

}  // namespace perfbench
