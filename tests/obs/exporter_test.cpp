/// \file exporter_test.cpp
/// MetricsExporter suite: JSONL series shape (header + monotonically
/// sequenced samples carrying registry snapshots), synchronous export_once,
/// and the final sample taken by stop().

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace tsce::obs {
namespace {

TEST(MetricsExporter, JsonlSeriesHasHeaderAndSequencedSamples) {
  auto& registry = MetricsRegistry::instance();
  registry.reset();
  auto& decodes = registry.counter("test.exporter.decodes");
  auto& latency = registry.histogram("test.exporter.latency");

  const std::string path = testing::TempDir() + "exporter_series.jsonl";
  MetricsExporterConfig config;
  config.path = path;
  config.period_ms = 60'000;  // ticks driven manually via export_once
  MetricsExporter exporter(config);
  ASSERT_TRUE(exporter.start());

  decodes.add(5);
  latency.record(1'000);
  EXPECT_TRUE(exporter.export_once());
  decodes.add(7);
  latency.record(3'000);
  EXPECT_TRUE(exporter.export_once());
  exporter.stop();  // takes one final sample
  EXPECT_EQ(exporter.samples(), 3u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::vector<util::Json> records;
  while (std::getline(in, line)) {
    if (!line.empty()) records.push_back(util::Json::parse(line));
  }
  ASSERT_EQ(records.size(), 4u);  // header + 3 samples

  EXPECT_EQ(records[0].at("t").as_string(), "header");
  EXPECT_EQ(records[0].at("exporter").as_string(), "metrics");
  EXPECT_EQ(records[0].at("period_ms").as_number(), 60'000.0);
  EXPECT_TRUE(records[0].contains("run_info"));

  double prev_t = -1.0;
  for (std::size_t i = 1; i < records.size(); ++i) {
    const util::Json& sample = records[i];
    EXPECT_EQ(sample.at("t").as_string(), "sample");
    EXPECT_EQ(sample.at("seq").as_number(), static_cast<double>(i - 1));
    EXPECT_GE(sample.at("t_s").as_number(), prev_t);
    prev_t = sample.at("t_s").as_number();
  }
  // The counter trajectory is visible across samples.
  const auto counter_at = [&](std::size_t i) {
    return records[i]
        .at("metrics")
        .at("counters")
        .at("test.exporter.decodes")
        .as_number();
  };
  EXPECT_EQ(counter_at(1), 5.0);
  EXPECT_EQ(counter_at(2), 12.0);
  EXPECT_EQ(counter_at(3), 12.0);
  // Histogram samples carry the HDR snapshot fields.
  const util::Json& hist =
      records[2].at("metrics").at("histograms").at("test.exporter.latency");
  EXPECT_EQ(hist.at("count").as_number(), 2.0);
  EXPECT_TRUE(hist.contains("p999"));
  std::remove(path.c_str());
  registry.reset();
}

TEST(MetricsExporter, ExportOnceRequiresStart) {
  MetricsExporterConfig config;
  config.path = testing::TempDir() + "exporter_never_started.jsonl";
  MetricsExporter exporter(config);
  EXPECT_FALSE(exporter.export_once());
}

TEST(MetricsExporter, StartFailsOnUnwritablePath) {
  MetricsExporterConfig config;
  config.path = "/nonexistent-dir/exporter.jsonl";
  MetricsExporter exporter(config);
  EXPECT_FALSE(exporter.start());
}

}  // namespace
}  // namespace tsce::obs
