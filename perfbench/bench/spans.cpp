#include "spans.hpp"

#include <cassert>
#include <fstream>

namespace perfbench {

std::int32_t SpanRecorder::open(const char* name) {
  Record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.begin_ns = now_ns();
  records_.push_back(r);
  const auto index = static_cast<std::int32_t>(records_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  assert(!open_.empty() && open_.back() == index);
  Record& r = records_[static_cast<std::size_t>(index)];
  r.duration_ns = now_ns() - r.begin_ns;
  open_.pop_back();
}

void SpanRecorder::add_aggregate(const char* name, std::uint64_t ns, std::uint64_t count) {
  Record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.begin_ns = now_ns();
  r.duration_ns = ns;
  r.count = count;
  records_.push_back(r);
}

std::map<std::string, SpanRecorder::LayerTotals> SpanRecorder::layers() const {
  std::vector<std::uint64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += r.duration_ns;
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    LayerTotals& t = out[r.name];
    // Children of a span run inside it, so their sum never exceeds it except
    // by clock granularity; clamp rather than wrap.
    t.self_ns += r.duration_ns > child_ns[i] ? r.duration_ns - child_ns[i] : 0;
    t.total_ns += r.duration_ns;
    t.count += r.count;
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path, const tsce::util::Json& header) const {
  std::ofstream file(path);
  if (!file) return false;
  file << header.dump() << '\n';
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    tsce::util::Json line = tsce::util::Json::object();
    line.set("id", i);
    line.set("name", r.name);
    line.set("parent", static_cast<std::int64_t>(r.parent));
    line.set("begin_ns", static_cast<std::int64_t>(r.begin_ns - origin_ns_));
    line.set("duration_ns", static_cast<std::int64_t>(r.duration_ns));
    line.set("count", static_cast<std::int64_t>(r.count));
    file << line.dump() << '\n';
  }
  return static_cast<bool>(file);
}

}  // namespace perfbench
