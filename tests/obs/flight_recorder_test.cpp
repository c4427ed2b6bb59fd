/// \file flight_recorder_test.cpp
/// Flight recorder behaviour suite: ring wrap-around semantics, JSONL dump
/// validity, anomaly-triggered automatic dumps (slow decode, including the
/// one-shot latch), the SIGUSR1 trigger + poll path,
/// and the end-of-life ordering contract — per-thread rings fold into the
/// retired sink when their thread exits, so a dump after heavy thread churn
/// still contains every event (zero lost).

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "util/json.hpp"

namespace tsce::obs {
namespace {

/// Parses every line of a dump as JSON; asserts the header shape and returns
/// the event records.
std::vector<util::Json> read_dump(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing dump " << path;
  std::vector<util::Json> events;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const util::Json record = util::Json::parse(line);  // throws on bad JSONL
    const std::string& type = record.at("t").as_string();
    if (type == "header") {
      saw_header = true;
      EXPECT_EQ(record.at("recorder").as_string(), "flight");
      EXPECT_TRUE(record.contains("run_info"));
    } else {
      EXPECT_EQ(type, "event");
      events.push_back(record);
    }
  }
  EXPECT_TRUE(saw_header) << path;
  return events;
}

std::size_t count_named(const std::vector<util::Json>& events,
                        std::string_view name) {
  std::size_t n = 0;
  for (const util::Json& e : events) {
    if (e.at("name").as_string() == name) ++n;
  }
  return n;
}

std::string temp_path(const char* stem) {
  return testing::TempDir() + stem;
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { flight_recorder_reset(); }
  void TearDown() override {
    flight_recorder_reset();
    flight_recorder_configure(FlightRecorderConfig{});
  }
};

TEST_F(FlightRecorderTest, RingKeepsTheLastCapacityEvents) {
  FlightRecorderConfig config;
  config.ring_capacity = 64;
  flight_recorder_configure(config);
  // A fresh thread gets a fresh ring sized by the current configuration.
  std::thread writer([] {
    for (std::uint64_t i = 0; i < 200; ++i) {
      flight_recorder_record(FrKind::kMark, i, 7, 0);
    }
  });
  writer.join();

  const std::string path = temp_path("fr_wrap.jsonl");
  ASSERT_TRUE(flight_recorder_dump(path));
  const auto events = read_dump(path);

  // The thread wrote 200 marks; its ring retained the newest 64 (136..199).
  std::vector<std::uint64_t> marks;
  for (const util::Json& e : events) {
    if (e.at("name").as_string() == "fr.mark" &&
        e.at("f").at("a1").as_number() == 7.0) {
      marks.push_back(static_cast<std::uint64_t>(e.at("f").at("a0").as_number()));
    }
  }
  ASSERT_EQ(marks.size(), 64u);
  for (std::size_t i = 0; i < marks.size(); ++i) {
    EXPECT_EQ(marks[i], 136u + i);  // ts-sorted, single writer => in order
  }
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, SlowDecodeAnomalyTriggersOneDumpWithContext) {
  const std::string path = temp_path("fr_anomaly.jsonl");
  FlightRecorderConfig config;
  config.decode_latency_watermark_ns = 1'000;
  config.auto_dump_path = path;
  flight_recorder_configure(config);

  for (std::uint64_t i = 0; i < 10; ++i) {
    flight_recorder_note_decode(100 + i, 3, 5);  // healthy decodes
  }
  flight_recorder_note_decode(50'000, 0, 5);  // the anomaly
  EXPECT_EQ(flight_recorder_dump_count(), 1u);
  // The latch is one-shot: a second slow decode records an anomaly event but
  // does not dump again.
  flight_recorder_note_decode(60'000, 0, 5);
  EXPECT_EQ(flight_recorder_dump_count(), 1u);

  const auto events = read_dump(path);
  // The dump captured the window: the healthy decodes surrounding the
  // anomaly, the slow decode itself, and the anomaly record.
  EXPECT_GE(count_named(events, "fr.decode"), 11u);
  ASSERT_EQ(count_named(events, "fr.anomaly"), 1u);
  for (const util::Json& e : events) {
    if (e.at("name").as_string() != "fr.anomaly") continue;
    EXPECT_EQ(e.at("f").at("code").as_number(),
              static_cast<double>(FrAnomaly::kSlowDecode));
    EXPECT_EQ(e.at("f").at("value").as_number(), 50'000.0);
    EXPECT_EQ(e.at("f").at("watermark").as_number(), 1'000.0);
  }
  std::remove(path.c_str());
}

#ifdef SIGUSR1
TEST_F(FlightRecorderTest, SignalTriggerDumpsAtTheNextPoll) {
  const std::string path = temp_path("fr_signal.jsonl");
  FlightRecorderConfig config;
  config.auto_dump_path = path;
  flight_recorder_configure(config);
  flight_recorder_install_signal_trigger();

  flight_recorder_record(FrKind::kMark, 42, 0, 0);
  flight_recorder_poll();  // nothing pending: no dump
  EXPECT_EQ(flight_recorder_dump_count(), 0u);

  std::raise(SIGUSR1);
  flight_recorder_poll();
  EXPECT_EQ(flight_recorder_dump_count(), 1u);
  const auto events = read_dump(path);
  EXPECT_GE(count_named(events, "fr.mark"), 1u);
  std::remove(path.c_str());
}
#endif

TEST_F(FlightRecorderTest, RetiredThreadsLoseNoEvents) {
  FlightRecorderConfig config;
  config.ring_capacity = 256;  // retired sink keeps 4x = 1024 events
  flight_recorder_configure(config);
  const std::uint64_t before = flight_recorder_events_recorded();

  // Heavy thread churn: 8 waves of short-lived workers, each recording well
  // under its ring capacity, then exiting (folding its ring into the retired
  // sink).  Total events (8 * 2 * 50 = 800) fit the retired bound, so the
  // end-of-life fold must preserve every one.
  constexpr std::uint64_t kWaves = 8;
  constexpr std::uint64_t kThreadsPerWave = 2;
  constexpr std::uint64_t kEventsPerThread = 50;
  for (std::uint64_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> workers;
    for (std::uint64_t t = 0; t < kThreadsPerWave; ++t) {
      workers.emplace_back([wave, t] {
        for (std::uint64_t i = 0; i < kEventsPerThread; ++i) {
          flight_recorder_record(FrKind::kMark, i, 13, wave * 10 + t);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }

  constexpr std::uint64_t kTotal = kWaves * kThreadsPerWave * kEventsPerThread;
  EXPECT_EQ(flight_recorder_events_recorded() - before, kTotal);

  const std::string path = temp_path("fr_churn.jsonl");
  ASSERT_TRUE(flight_recorder_dump(path));
  const auto events = read_dump(path);
  std::size_t churn_marks = 0;
  for (const util::Json& e : events) {
    if (e.at("name").as_string() == "fr.mark" &&
        e.at("f").at("a1").as_number() == 13.0) {
      ++churn_marks;
    }
  }
  EXPECT_EQ(churn_marks, kTotal) << "events lost across thread retirement";
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, KindNamesAreRegistered) {
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kDecode), "fr.decode");
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kCommitReject),
            "fr.commit.reject");
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kUncommit), "fr.uncommit");
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kRemap), "fr.remap");
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kAnomaly), "fr.anomaly");
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kMark), "fr.mark");
  // Span and trace-event kinds carry the names.hpp span/event names.
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kSearchTrial), "search.trial");
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kSearchTemperReplica),
            "search.temper.replica");
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kBenchUb), "bench.ub");
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kBenchMicroSpan),
            "bench.micro.span");
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kSearchImprove),
            "search.improve");
  EXPECT_EQ(flight_recorder_kind_name(FrKind::kBenchMicroEvent),
            "bench.micro.event");
}

}  // namespace
}  // namespace tsce::obs
