#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/run_info.hpp"
#include "util/json.hpp"

namespace tsce::obs {
namespace {

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + leaf;
}

std::vector<util::Json> read_records(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<util::Json> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    records.push_back(util::Json::parse(line));
  }
  return records;
}

/// First record of \p type named \p name whose phase is \p phase (any phase
/// when empty).
const util::Json* find_record(const std::vector<util::Json>& records,
                              const std::string& type, std::string_view name,
                              const std::string& phase = "") {
  for (const auto& r : records) {
    if (r.at("t").as_string() != type || !r.contains("name") ||
        r.at("name").as_string() != name) {
      continue;
    }
    if (phase.empty() || (r.at("f").contains("phase") &&
                          r.at("f").at("phase").as_string() == phase)) {
      return &r;
    }
  }
  return nullptr;
}

TEST(Trace, InactiveByDefault) {
  EXPECT_FALSE(tracing_active());
  // Inert without an open trace: must not crash or write anywhere.
  trace_event(FrKind::kBenchMicroEvent, intern_phase("inactive"), 1);
  Span span(FrKind::kBenchMicroSpan, intern_phase("inactive"), 2);
  span.set(std::uint64_t{3});
}

TEST(Trace, RoundTripHeaderSpanEvent) {
  const std::string path = temp_path("tsce_trace_roundtrip.jsonl");
  std::remove(path.c_str());

  RunInfo info = RunInfo::current();
  info.seed = 42;
  info.set_param("scenario", "unit_test");
  ASSERT_TRUE(trace_open(path, info));
  EXPECT_TRUE(tracing_active());

  const PhaseId psg = intern_phase("RoundTripPSG");
  EXPECT_EQ(intern_phase("RoundTripPSG"), psg);  // interned once
  trace_improve(psg, 2, 3, 1.5, 0.25);
  {
    Span span(FrKind::kSearchTrial, psg, 7);
    span.set(std::uint64_t{128});
  }
  trace_close();
  EXPECT_FALSE(tracing_active());

  const auto records = read_records(path);
  ASSERT_GE(records.size(), 3u);
  const util::Json& header = records.front();
  EXPECT_EQ(header.at("t").as_string(), "header");
  EXPECT_EQ(header.at("version").as_number(), 1.0);
  EXPECT_EQ(header.at("run_info").at("seed").as_number(), 42.0);
  EXPECT_EQ(header.at("run_info").at("params").at("scenario").as_string(),
            "unit_test");

  const util::Json* event = find_record(records, "event", "search.improve");
  ASSERT_NE(event, nullptr);
  EXPECT_GE(event->at("ts").as_number(), 0.0);
  EXPECT_EQ(event->at("f").at("phase").as_string(), "RoundTripPSG");
  EXPECT_EQ(event->at("f").at("trial").as_number(), 2.0);
  EXPECT_EQ(event->at("f").at("iteration").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(event->at("f").at("worth").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(event->at("f").at("slackness").as_number(), 0.25);

  const util::Json* span = find_record(records, "span", "search.trial");
  ASSERT_NE(span, nullptr);
  EXPECT_GE(span->at("dur").as_number(), 0.0);
  EXPECT_EQ(span->at("f").at("phase").as_string(), "RoundTripPSG");
  EXPECT_EQ(span->at("f").at("trial").as_number(), 7.0);
  EXPECT_EQ(span->at("f").at("evaluations").as_number(), 128.0);
}

TEST(Trace, NestedSpansBothRecorded) {
  const std::string path = temp_path("tsce_trace_nested.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  {
    Span outer(FrKind::kBenchAlloc, intern_phase("NestedOuter"));
    {
      Span inner(FrKind::kSearchTrial, intern_phase("NestedInner"));
    }
  }
  trace_close();
  const auto records = read_records(path);
  const util::Json* outer = find_record(records, "span", "bench.alloc", "NestedOuter");
  const util::Json* inner = find_record(records, "span", "search.trial", "NestedInner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_LE(outer->at("ts").as_number(), inner->at("ts").as_number());
}

TEST(Trace, WorkerThreadRecordsSurviveClose) {
  const std::string path = temp_path("tsce_trace_worker.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  const PhaseId worker_phase = intern_phase("worker");
  std::thread worker([worker_phase] {
    Span span(FrKind::kSearchRestart, worker_phase, 4);
  });
  worker.join();  // harness contract: workers joined before trace_close
  trace_close();
  const auto records = read_records(path);
  const util::Json* span = find_record(records, "span", "search.restart", "worker");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->at("f").at("restart").as_number(), 4.0);
}

TEST(Trace, StringFieldsAreEscaped) {
  const std::string path = temp_path("tsce_trace_escape.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  const std::string tricky = "a\"b\\c\nd\te";
  trace_event(FrKind::kBenchMicroEvent, intern_phase(tricky), 1);
  trace_close();
  const auto records = read_records(path);
  const util::Json* event = find_record(records, "event", "bench.micro.event", tricky);
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->at("f").at("phase").as_string(), tricky);
}

TEST(Trace, SecondOpenFailsWhileActive) {
  const std::string path = temp_path("tsce_trace_double.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  EXPECT_FALSE(trace_open(temp_path("tsce_trace_double2.jsonl"), RunInfo::current()));
  EXPECT_TRUE(tracing_active());  // the first trace is unaffected
  trace_close();
}

TEST(Trace, ReopenAfterCloseStartsFreshTrace) {
  const std::string first = temp_path("tsce_trace_reopen1.jsonl");
  const std::string second = temp_path("tsce_trace_reopen2.jsonl");
  std::remove(first.c_str());
  std::remove(second.c_str());

  ASSERT_TRUE(trace_open(first, RunInfo::current()));
  trace_event(FrKind::kBenchMicroEvent, intern_phase("ReopenFirst"), 1);
  trace_close();

  ASSERT_TRUE(trace_open(second, RunInfo::current()));
  trace_event(FrKind::kBenchMicroEvent, intern_phase("ReopenSecond"), 2);
  trace_close();

  const auto records = read_records(second);
  EXPECT_EQ(records.front().at("t").as_string(), "header");
  EXPECT_NE(find_record(records, "event", "bench.micro.event", "ReopenSecond"),
            nullptr);
  EXPECT_EQ(find_record(records, "event", "bench.micro.event", "ReopenFirst"),
            nullptr);
}

TEST(Trace, RecordsAfterCloseAreDropped) {
  const std::string path = temp_path("tsce_trace_after_close.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  trace_close();
  trace_event(FrKind::kBenchMicroEvent, intern_phase("Late"), 1);
  {
    Span span(FrKind::kBenchMicroSpan, intern_phase("Late"));
  }
  const auto records = read_records(path);
  EXPECT_EQ(records.size(), 1u);  // the header only
  EXPECT_EQ(find_record(records, "event", "bench.micro.event", "Late"), nullptr);
  EXPECT_EQ(find_record(records, "span", "bench.micro.span", "Late"), nullptr);
}

TEST(Trace, OpenFailsOnUnwritablePath) {
  EXPECT_FALSE(trace_open("/nonexistent-dir/trace.jsonl", RunInfo::current()));
  EXPECT_FALSE(tracing_active());
}

TEST(Trace, SinkKeepsSpansTheRingOverwrote) {
  // The sink drains a ring before an undrained span slot is overwritten, so
  // a trace keeps every span however many ring-only events follow it.
  flight_recorder_reset();
  FlightRecorderConfig config;
  config.ring_capacity = 16;
  flight_recorder_configure(config);
  const std::string path = temp_path("tsce_trace_wrap.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(trace_open(path, RunInfo::current()));
  std::thread worker([] {  // a fresh ring sized by the configuration above
    const PhaseId phase = intern_phase("Wrap");
    for (std::uint64_t i = 0; i < 40; ++i) {
      Span span(FrKind::kSearchTrial, phase, i);
      for (int d = 0; d < 20; ++d) flight_recorder_note_decode(100, 0, 1);
    }
  });
  worker.join();
  trace_close();
  flight_recorder_configure(FlightRecorderConfig{});

  std::vector<double> trials;
  for (const util::Json& r : read_records(path)) {
    EXPECT_NE(r.contains("name") ? r.at("name").as_string() : "", "fr.decode");
    if (r.at("t").as_string() == "span") {
      trials.push_back(r.at("f").at("trial").as_number());
    }
  }
  ASSERT_EQ(trials.size(), 40u);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i], static_cast<double>(i));
  }
}

TEST(Trace, DumpShowsTheSpanEnclosingItsDecodes) {
  // One pipeline: a span and the decodes it encloses land in the same ring,
  // so a flight-recorder dump places them on one tid and one clock.
  flight_recorder_reset();
  const std::string path = temp_path("tsce_trace_fr_window.jsonl");
  const std::string inside = temp_path("tsce_trace_fr_inside.jsonl");
  {
    Span span(FrKind::kSearchTrial, intern_phase("Window"), 5);
    for (std::uint64_t i = 0; i < 8; ++i) flight_recorder_note_decode(200 + i, 1, 2);
    // A dump taken inside the span (an anomaly dump) lists it as open.
    ASSERT_TRUE(flight_recorder_dump(inside));
  }
  const auto inside_records = read_records(inside);
  const util::Json* open =
      find_record(inside_records, "span", "search.trial", "Window");
  ASSERT_NE(open, nullptr);
  EXPECT_TRUE(open->at("open").as_bool());
  EXPECT_EQ(open->at("f").at("trial").as_number(), 5.0);
  std::remove(inside.c_str());

  ASSERT_TRUE(flight_recorder_dump(path));
  const auto records = read_records(path);
  const util::Json* span = find_record(records, "span", "search.trial", "Window");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->at("f").at("trial").as_number(), 5.0);
  const double begin = span->at("ts").as_number();
  const double end = begin + span->at("dur").as_number();
  std::size_t decodes = 0;
  for (const util::Json& r : records) {
    if (r.at("t").as_string() != "event" ||
        r.at("name").as_string() != "fr.decode") {
      continue;
    }
    ++decodes;
    EXPECT_EQ(r.at("tid").as_number(), span->at("tid").as_number());
    // The dump prints nanosecond-rounded seconds; allow a few rounding steps.
    EXPECT_GE(r.at("ts").as_number(), begin - 3e-9);
    EXPECT_LE(r.at("ts").as_number(), end + 3e-9);
  }
  EXPECT_EQ(decodes, 8u);
  std::remove(path.c_str());
  flight_recorder_reset();
}

}  // namespace
}  // namespace tsce::obs
