/// \file trace_report.cpp
/// Folds a trace JSONL file (obs::trace_open output) into per-phase span-time
/// and fitness-convergence tables.
///
/// Usage: trace_report <trace.jsonl> [--csv] [--full]
///        trace_report --metrics-series <series.jsonl> [--csv]
///        trace_report --convergence <trace.jsonl>...
///        trace_report --convergence-diff <old.csv> <new.csv> [--tolerance w]
///
/// Span records are grouped by "name [phase]" (the phase field is the
/// allocator name by convention, so one span kind like "search.trial" yields
/// one row per strategy).  "search.improve" events are folded into a
/// per-phase convergence summary: improvement count, first/best fitness, and
/// the time at which the best was reached; --full additionally lists every
/// improvement event in order.  Event records of any other name — including
/// flight-recorder dumps (fr.*) — are folded into a per-name count/time-window
/// table, so an obs::flight_recorder_dump file is consumed directly.
///
/// --metrics-series folds an obs::MetricsExporter JSONL series into counter
/// throughput (first/last value, delta, rate over the sampled window) and
/// histogram tail-latency (count, mean, p50/p90/p99/p999, max at the last
/// sample) tables; --csv emits both as CSV.
///
/// --convergence is the regression-dashboard mode: it accepts one trace file
/// per scenario and emits one CSV row per search.improve event
/// (git_sha,scenario,phase,t_s,worth,slackness) — the per-scenario
/// worth-vs-time curves, keyed by commit so successive CI runs can be
/// overlaid or diffed.  git_sha and scenario come from each file's
/// run-provenance header (obs::RunInfo).
///
/// --convergence-diff closes the loop: it takes two --convergence CSVs (the
/// baseline run and the candidate run), treats each (scenario, phase) series
/// as a worth-at-time step function, and compares the two functions at every
/// time point either run improved.  A point where the old run had reached
/// more than --tolerance worth above the new run is a convergence regression:
/// one CSV row (scenario,phase,t_s,old_worth,new_worth,delta) per such point,
/// exit 1 when any exist.  Curves only in the baseline are regressions
/// (coverage lost); curves only in the candidate are fine.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/names.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using tsce::util::Json;
using tsce::util::RunningStats;
using tsce::util::Table;

double field_num(const Json& f, std::string_view key, double fallback = 0.0) {
  return f.contains(key) ? f.at(key).as_number() : fallback;
}

std::string field_str(const Json& f, std::string_view key) {
  return f.contains(key) && f.at(key).is_string() ? f.at(key).as_string()
                                                  : std::string();
}

struct SpanGroup {
  RunningStats dur_s;
};

/// Per-name tally of event records that have no specialized fold (e.g. the
/// flight recorder's fr.* events): count plus the time window they span.
struct EventGroup {
  std::size_t count = 0;
  double t_first_s = 0.0;
  double t_last_s = 0.0;
};

struct Improvement {
  double ts = 0.0;
  std::string phase;
  double trial = 0.0;
  double iteration = 0.0;
  double worth = 0.0;
  double slackness = 0.0;
};

struct Convergence {
  std::size_t improvements = 0;
  double first_worth = 0.0;
  double best_worth = 0.0;
  double best_slackness = 0.0;
  double t_first_s = 0.0;
  double t_best_s = 0.0;
};

void print_run_info(const Json& info) {
  std::printf("run: git %s, %s build, seed %lld, %lld threads\n",
              info.contains("git_sha") ? info.at("git_sha").as_string().c_str()
                                       : "?",
              info.contains("build_type")
                  ? info.at("build_type").as_string().c_str()
                  : "?",
              static_cast<long long>(field_num(info, "seed")),
              static_cast<long long>(field_num(info, "threads", 1)));
  if (info.contains("params") && info.at("params").is_object()) {
    const auto& params = info.at("params").as_object();
    if (!params.empty()) {
      std::printf("params:");
      for (const auto& [key, value] : params) {
        std::printf(" %s=%s", key.c_str(),
                    value.is_string() ? value.as_string().c_str()
                                      : value.dump().c_str());
      }
      std::printf("\n");
    }
  }
}

/// Dashboard mode: streams every search.improve event from each trace file
/// as one CSV row keyed by the header's commit and scenario.  Returns the
/// process exit code.
int run_convergence(const std::vector<std::string>& paths) {
  std::printf("git_sha,scenario,phase,t_s,worth,slackness\n");
  std::size_t rows = 0;
  std::size_t malformed = 0;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "trace_report: cannot open '%s'\n", path.c_str());
      return 1;
    }
    std::string git_sha = "?";
    std::string scenario = "?";
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      Json record;
      try {
        record = Json::parse(line);
      } catch (const std::exception&) {
        ++malformed;
        continue;
      }
      if (!record.is_object() || !record.contains("t")) {
        ++malformed;
        continue;
      }
      const std::string& type = record.at("t").as_string();
      if (type == "header") {
        if (record.contains("run_info")) {
          const Json& info = record.at("run_info");
          if (info.contains("git_sha")) git_sha = info.at("git_sha").as_string();
          if (info.contains("params") && info.at("params").is_object() &&
              info.at("params").contains("scenario")) {
            scenario = info.at("params").at("scenario").as_string();
          }
        }
        continue;
      }
      if (type != "event" ||
          record.at("name").as_string() != tsce::obs::names::kSearchImprove) {
        continue;
      }
      const Json fields = record.contains("f") ? record.at("f") : Json::object();
      std::printf("%s,%s,%s,%.6f,%.0f,%.6f\n", git_sha.c_str(),
                  scenario.c_str(), field_str(fields, "phase").c_str(),
                  field_num(record, "ts"), field_num(fields, "worth"),
                  field_num(fields, "slackness"));
      ++rows;
    }
  }
  if (rows == 0) {
    std::fprintf(stderr,
                 "trace_report: no improvement records found (%zu malformed "
                 "lines)\n",
                 malformed);
    return 1;
  }
  if (malformed > 0) {
    std::fprintf(stderr, "trace_report: skipped %zu malformed lines\n",
                 malformed);
  }
  return 0;
}

/// --metrics-series mode: folds an obs::MetricsExporter JSONL series into
/// counter-throughput and histogram-tail tables.  Returns the exit code.
int run_metrics_series(const std::string& path, bool csv) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot open '%s'\n", path.c_str());
    return 1;
  }
  std::size_t samples = 0;
  std::size_t malformed = 0;
  double t_first = 0.0;
  double t_last = 0.0;
  Json first_metrics;
  Json last_metrics;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Json record;
    try {
      record = Json::parse(line);
    } catch (const std::exception&) {
      ++malformed;
      continue;
    }
    if (!record.is_object() || !record.contains("t")) {
      ++malformed;
      continue;
    }
    const std::string& type = record.at("t").as_string();
    if (type == "header") {
      if (!csv && record.contains("run_info")) {
        print_run_info(record.at("run_info"));
      }
      continue;
    }
    if (type != "sample" || !record.contains("metrics")) continue;
    const double t_s = field_num(record, "t_s");
    if (samples == 0) {
      t_first = t_s;
      first_metrics = record.at("metrics");
    }
    t_last = t_s;
    last_metrics = record.at("metrics");
    ++samples;
  }
  if (samples == 0) {
    std::fprintf(stderr,
                 "trace_report: no samples found in '%s' (%zu malformed "
                 "lines)\n",
                 path.c_str(), malformed);
    return 1;
  }
  const double window_s = t_last - t_first;
  if (!csv) {
    std::printf("%zu samples over %.3f s\n", samples, window_s);
  }

  Table counters({"counter", "first", "last", "delta", "rate/s"});
  if (last_metrics.contains("counters")) {
    for (const auto& [name, last] : last_metrics.at("counters").as_object()) {
      const double v_last = last.as_number();
      const double v_first =
          first_metrics.is_object() && first_metrics.contains("counters")
              ? field_num(first_metrics.at("counters"), name)
              : 0.0;
      const double delta = v_last - v_first;
      counters.add_row({name, Table::num(v_first, 0), Table::num(v_last, 0),
                        Table::num(delta, 0),
                        window_s > 0.0 ? Table::num(delta / window_s, 1)
                                       : "-"});
    }
  }
  if (csv) {
    counters.print_csv();
  } else {
    std::printf("\nCounter throughput (over the sampled window):\n");
    counters.print();
  }

  Table tails({"histogram", "count", "mean", "p50", "p90", "p99", "p999",
               "max"});
  if (last_metrics.contains("histograms")) {
    for (const auto& [name, h] : last_metrics.at("histograms").as_object()) {
      tails.add_row({name, Table::num(field_num(h, "count"), 0),
                     Table::num(field_num(h, "mean"), 1),
                     Table::num(field_num(h, "p50"), 0),
                     Table::num(field_num(h, "p90"), 0),
                     Table::num(field_num(h, "p99"), 0),
                     Table::num(field_num(h, "p999"), 0),
                     Table::num(field_num(h, "max"), 0)});
    }
  }
  if (csv) {
    tails.print_csv();
  } else {
    std::printf("\nHistogram tails (last sample):\n");
    tails.print();
  }

  if (malformed > 0) {
    std::fprintf(stderr, "trace_report: skipped %zu malformed lines\n",
                 malformed);
  }
  return 0;
}

/// One worth-vs-time curve from a --convergence CSV, sorted by time.
struct Curve {
  std::vector<std::pair<double, double>> points;  // (t_s, worth)

  /// Step-function value at time \p t: the worth of the last improvement at
  /// or before \p t, or 0 before the first one (no solution reached yet).
  [[nodiscard]] double at(double t) const {
    double worth = 0.0;
    for (const auto& [ts, w] : points) {
      if (ts > t) break;
      worth = w;
    }
    return worth;
  }
};

/// Parses a --convergence CSV (git_sha,scenario,phase,t_s,worth,slackness)
/// into per-(scenario, phase) curves.  Returns false on open/parse failure.
bool read_convergence_csv(const std::string& path,
                          std::map<std::pair<std::string, std::string>, Curve>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line.rfind("git_sha,", 0) == 0) continue;  // header row
    }
    std::vector<std::string> cols;
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = line.find(',', start);
      cols.push_back(line.substr(start, comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (cols.size() != 6) {
      std::fprintf(stderr, "trace_report: malformed row in '%s': %s\n",
                   path.c_str(), line.c_str());
      return false;
    }
    try {
      Curve& curve = out[{cols[1], cols[2]}];
      curve.points.emplace_back(std::stod(cols[3]), std::stod(cols[4]));
    } catch (const std::exception&) {
      std::fprintf(stderr, "trace_report: malformed row in '%s': %s\n",
                   path.c_str(), line.c_str());
      return false;
    }
  }
  for (auto& [key, curve] : out) {
    std::sort(curve.points.begin(), curve.points.end());
  }
  return true;
}

/// Diff mode: flags every time point where the baseline's worth-at-time step
/// function exceeds the candidate's by more than \p tolerance.  Returns the
/// process exit code (1 when any regression point exists).
int run_convergence_diff(const std::string& old_path,
                         const std::string& new_path, double tolerance) {
  std::map<std::pair<std::string, std::string>, Curve> old_curves;
  std::map<std::pair<std::string, std::string>, Curve> new_curves;
  if (!read_convergence_csv(old_path, old_curves) ||
      !read_convergence_csv(new_path, new_curves)) {
    return 1;
  }
  if (old_curves.empty()) {
    std::fprintf(stderr, "trace_report: no curves in baseline '%s'\n",
                 old_path.c_str());
    return 1;
  }
  std::printf("scenario,phase,t_s,old_worth,new_worth,delta\n");
  std::size_t regressions = 0;
  std::size_t curves_compared = 0;
  for (const auto& [key, old_curve] : old_curves) {
    const auto new_it = new_curves.find(key);
    if (new_it == new_curves.end()) {
      // A curve the candidate never produced: every baseline point regresses.
      for (const auto& [ts, worth] : old_curve.points) {
        if (worth > tolerance) {
          std::printf("%s,%s,%.6f,%.0f,0,%.6f\n", key.first.c_str(),
                      key.second.c_str(), ts, worth, worth);
          ++regressions;
        }
      }
      continue;
    }
    ++curves_compared;
    const Curve& new_curve = new_it->second;
    // Union of both curves' time points: the step functions only change
    // there, so checking these covers every time.
    std::vector<double> times;
    times.reserve(old_curve.points.size() + new_curve.points.size());
    for (const auto& [ts, worth] : old_curve.points) times.push_back(ts);
    for (const auto& [ts, worth] : new_curve.points) times.push_back(ts);
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    // Before a curve's first recorded improvement its step function reads 0,
    // so any start-time jitter between the runs would show up as a
    // full-worth "regression".  Compare only from the later of the two
    // starts: that measures search quality, not launch latency.
    const double aligned_from = std::max(old_curve.points.front().first,
                                         new_curve.points.front().first);
    for (double t : times) {
      if (t < aligned_from) continue;
      const double old_worth = old_curve.at(t);
      const double new_worth = new_curve.at(t);
      const double delta = old_worth - new_worth;
      if (delta > tolerance) {
        std::printf("%s,%s,%.6f,%.0f,%.0f,%.6f\n", key.first.c_str(),
                    key.second.c_str(), t, old_worth, new_worth, delta);
        ++regressions;
      }
    }
  }
  if (regressions == 0) {
    std::fprintf(stderr,
                 "trace_report: no convergence regressions (%zu curves, "
                 "tolerance %.6f)\n",
                 curves_compared, tolerance);
    return 0;
  }
  std::fprintf(stderr,
               "trace_report: %zu convergence regression point%s (tolerance "
               "%.6f)\n",
               regressions, regressions == 1 ? "" : "s", tolerance);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  bool full = false;
  bool convergence_mode = false;
  bool convergence_diff = false;
  bool metrics_series = false;
  double tolerance = 0.0;
  tsce::util::Flags flags(
      "trace_report: fold a tsce trace JSONL into per-phase span-time and\n"
      "fitness-convergence tables.\n"
      "usage: trace_report <trace.jsonl> [--csv] [--full]\n"
      "       trace_report --metrics-series <series.jsonl> [--csv]\n"
      "       trace_report --convergence <trace.jsonl>...\n"
      "       trace_report --convergence-diff <old.csv> <new.csv> "
      "[--tolerance w]");
  flags.add("csv", &csv, "emit CSV instead of aligned tables");
  flags.add("full", &full, "also list every improvement event");
  flags.add("metrics-series", &metrics_series,
            "fold an obs::MetricsExporter JSONL series into counter "
            "throughput and histogram tail-latency tables");
  flags.add("convergence", &convergence_mode,
            "dashboard mode: one CSV row per improvement event "
            "(git_sha,scenario,phase,t_s,worth,slackness); accepts multiple "
            "trace files, one per scenario");
  flags.add("convergence-diff", &convergence_diff,
            "regression mode: compare two --convergence CSVs as worth-at-time "
            "step functions; exit 1 where the baseline beats the candidate by "
            "more than --tolerance");
  flags.add("tolerance", &tolerance,
            "worth slack allowed before --convergence-diff flags a "
            "regression (default 0)");
  flags.accept_positionals();
  if (!flags.parse(argc, argv)) return flags.exit_code();
  if (convergence_diff) {
    if (flags.positional().size() != 2) {
      std::fprintf(stderr,
                   "trace_report: --convergence-diff expects exactly two "
                   "CSV files (old, new)\n");
      return 1;
    }
    return run_convergence_diff(flags.positional()[0], flags.positional()[1],
                                tolerance);
  }
  if (convergence_mode) {
    if (flags.positional().empty()) {
      std::fprintf(stderr,
                   "trace_report: --convergence expects at least one trace "
                   "file\n");
      return 1;
    }
    return run_convergence(flags.positional());
  }
  if (metrics_series) {
    if (flags.positional().size() != 1) {
      std::fprintf(stderr,
                   "trace_report: --metrics-series expects exactly one "
                   "series file\n");
      return 1;
    }
    return run_metrics_series(flags.positional()[0], csv);
  }
  if (flags.positional().size() != 1) {
    std::fprintf(stderr, "trace_report: expected exactly one trace file\n");
    return 1;
  }

  std::ifstream in(flags.positional()[0]);
  if (!in) {
    std::fprintf(stderr, "trace_report: cannot open '%s'\n",
                 flags.positional()[0].c_str());
    return 1;
  }

  // Insertion-ordered group keys (std::map would alphabetize phases).
  std::vector<std::string> span_order;
  std::map<std::string, SpanGroup> spans;
  std::vector<std::string> conv_order;
  std::map<std::string, Convergence> convergence;
  std::vector<Improvement> improvements;
  std::vector<std::string> event_order;
  std::map<std::string, EventGroup> events;
  std::size_t malformed = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Json record;
    try {
      record = Json::parse(line);
    } catch (const std::exception&) {
      ++malformed;
      continue;
    }
    if (!record.is_object() || !record.contains("t")) {
      ++malformed;
      continue;
    }
    const std::string& type = record.at("t").as_string();
    if (type == "header") {
      if (record.contains("run_info")) print_run_info(record.at("run_info"));
      continue;
    }
    const Json fields =
        record.contains("f") ? record.at("f") : Json::object();
    if (type == "span") {
      const std::string phase = field_str(fields, "phase");
      std::string key = record.at("name").as_string();
      if (!phase.empty()) key += " [" + phase + "]";
      auto [it, inserted] = spans.try_emplace(key);
      if (inserted) span_order.push_back(key);
      it->second.dur_s.add(field_num(record, "dur"));
    } else if (type == "event" &&
               record.at("name").as_string() == tsce::obs::names::kSearchImprove) {
      Improvement imp;
      imp.ts = field_num(record, "ts");
      imp.phase = field_str(fields, "phase");
      imp.trial = field_num(fields, "trial");
      imp.iteration = field_num(fields, "iteration");
      imp.worth = field_num(fields, "worth");
      imp.slackness = field_num(fields, "slackness");
      improvements.push_back(imp);

      auto [it, inserted] = convergence.try_emplace(imp.phase);
      if (inserted) conv_order.push_back(imp.phase);
      Convergence& c = it->second;
      if (c.improvements == 0) {
        c.first_worth = imp.worth;
        c.t_first_s = imp.ts;
        c.best_worth = imp.worth;
        c.best_slackness = imp.slackness;
        c.t_best_s = imp.ts;
      } else if (imp.worth > c.best_worth ||
                 (imp.worth == c.best_worth &&
                  imp.slackness > c.best_slackness)) {
        c.best_worth = imp.worth;
        c.best_slackness = imp.slackness;
        c.t_best_s = imp.ts;
      }
      ++c.improvements;
    } else if (type == "event") {
      const std::string name = record.at("name").as_string();
      auto [it, inserted] = events.try_emplace(name);
      if (inserted) event_order.push_back(name);
      EventGroup& g = it->second;
      const double ts = field_num(record, "ts");
      if (g.count == 0) g.t_first_s = ts;
      g.t_last_s = ts;
      ++g.count;
    }
  }

  if (spans.empty() && convergence.empty() && events.empty()) {
    std::fprintf(stderr,
                 "trace_report: no span or improvement records found (%zu "
                 "malformed lines)\n",
                 malformed);
    return 1;
  }

  if (!spans.empty()) {
    Table span_table({"phase", "spans", "total s", "mean ms", "max ms"});
    for (const std::string& key : span_order) {
      const RunningStats& d = spans.at(key).dur_s;
      span_table.add_row({key, std::to_string(d.count()),
                          Table::num(d.mean() * static_cast<double>(d.count()), 3),
                          Table::num(d.mean() * 1e3, 3),
                          Table::num(d.max() * 1e3, 3)});
    }
    if (csv) {
      span_table.print_csv();
    } else {
      std::printf("\nPer-phase span time:\n");
      span_table.print();
    }
  }

  if (!events.empty()) {
    Table event_table({"event", "count", "t(first) s", "t(last) s"});
    for (const std::string& name : event_order) {
      const EventGroup& g = events.at(name);
      event_table.add_row({name, std::to_string(g.count),
                           Table::num(g.t_first_s, 6),
                           Table::num(g.t_last_s, 6)});
    }
    if (csv) {
      event_table.print_csv();
    } else {
      std::printf("\nEvents:\n");
      event_table.print();
    }
  }

  if (!convergence.empty()) {
    Table conv_table({"phase", "improvements", "first worth", "best worth",
                      "best slack", "t(first) s", "t(best) s"});
    for (const std::string& phase : conv_order) {
      const Convergence& c = convergence.at(phase);
      conv_table.add_row({phase.empty() ? "(none)" : phase,
                          std::to_string(c.improvements),
                          Table::num(c.first_worth, 0),
                          Table::num(c.best_worth, 0),
                          Table::num(c.best_slackness, 4),
                          Table::num(c.t_first_s, 3), Table::num(c.t_best_s, 3)});
    }
    if (csv) {
      conv_table.print_csv();
    } else {
      std::printf("\nFitness convergence (search.improve events):\n");
      conv_table.print();
    }
  }

  if (full && !improvements.empty()) {
    Table improvement_table(
        {"t s", "phase", "trial", "iteration", "worth", "slack"});
    for (const Improvement& imp : improvements) {
      improvement_table.add_row(
          {Table::num(imp.ts, 3), imp.phase, Table::num(imp.trial, 0),
           Table::num(imp.iteration, 0), Table::num(imp.worth, 0),
           Table::num(imp.slackness, 4)});
    }
    if (csv) {
      improvement_table.print_csv();
    } else {
      std::printf("\nImprovement events:\n");
      improvement_table.print();
    }
  }

  if (malformed > 0) {
    std::fprintf(stderr, "trace_report: skipped %zu malformed lines\n",
                 malformed);
  }
  return 0;
}
