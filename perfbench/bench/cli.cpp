#include <charconv>
#include <set>

#include "perfbench.hpp"

namespace perfbench {

namespace {

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::string usage() {
  std::string text =
      "usage: perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
      "                 [--trace-out PATH]\n"
      "  --workload   one of:";
  for (const WorkloadSpec& w : workloads()) text += " " + w.name;
  text +=
      "\n  --seed       seed of the searches' random streams (unsigned integer)\n"
      "  --seconds    run length; sets the instance count (default 10)\n"
      "  --trace      1 = traced run reporting per-layer metrics (default 0)\n"
      "  --trace-out  traced runs write their spans to this JSONL file\n"
      "               (default: traces/WORKLOAD-seedN.jsonl next to the binary)\n";
  return text;
}

std::optional<std::string> parse_cli(std::span<const std::string_view> args, Cli& out) {
  out = Cli{};
  std::set<std::string_view> seen;
  bool have_seed = false;
  for (std::size_t a = 0; a < args.size(); ++a) {
    const std::string_view arg = args[a];
    if (arg == "--help" || arg == "-h") {
      out.help = true;
      return std::nullopt;
    }
    if (arg.substr(0, 2) != "--" || arg.size() == 2) {
      return "unexpected argument '" + std::string(arg) + "'";
    }
    std::string_view flag = arg.substr(2);
    std::string_view value;
    if (const auto eq = flag.find('='); eq != std::string_view::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else {
      if (a + 1 == args.size()) return "--" + std::string(flag) + " needs a value";
      value = args[++a];
    }
    if (!seen.insert(flag).second) return "--" + std::string(flag) + " given twice";
    const std::string bad = "bad value '" + std::string(value) + "' for --" + std::string(flag);
    if (flag == "workload") {
      if (find_workload(value) == nullptr) return "unknown workload '" + std::string(value) + "'";
      out.workload = value;
    } else if (flag == "seed") {
      const auto seed = parse_u64(value);
      if (!seed) return bad;
      out.run.seed = *seed;
      have_seed = true;
    } else if (flag == "seconds") {
      const auto seconds = parse_u64(value);
      if (!seconds || *seconds == 0 || *seconds > 3600) return bad;
      out.run.seconds = static_cast<double>(*seconds);
    } else if (flag == "trace") {
      if (value != "0" && value != "1") return bad;
      out.run.trace = value == "1";
    } else if (flag == "trace-out") {
      if (value.empty()) return bad;
      out.run.trace_out = value;
    } else {
      return "unknown flag --" + std::string(flag);
    }
  }
  if (out.workload.empty()) return "--workload is required";
  if (!have_seed) return "--seed is required";
  return std::nullopt;
}

}  // namespace perfbench
