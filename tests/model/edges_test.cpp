// The edge-list string: validation of DAG strings, chain construction from
// per-app outputs, the file format's chains-only rule, and the longest-path
// sweep every chain fold now goes through.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "model/serialization.hpp"
#include "model/system_model.hpp"
#include "sim/simulator.hpp"
#include "testing/builders.hpp"
#include "util/rng.hpp"

namespace tsce::model {
namespace {

bool mentions(const std::vector<std::string>& problems, const std::string& what) {
  for (const auto& p : problems) {
    if (p.find(what) != std::string::npos) return true;
  }
  return false;
}

TEST(DagSystemModel, ValidateAcceptsDiamond) {
  EXPECT_TRUE(testing::diamond_system().validate().empty());
}

TEST(DagSystemModel, ValidateRejectsCycle) {
  // Closing the diamond into a cycle needs a backward edge.
  SystemModel m = testing::diamond_system();
  m.strings[0].edges.push_back({3, 0, 5.0});
  EXPECT_TRUE(mentions(m.validate(), "runs backward"));
}

TEST(DagSystemModel, ValidateRejectsSelfLoopAndBadEndpoint) {
  SystemModel m = testing::diamond_system();
  m.strings[0].edges.push_back({3, 3, 5.0});
  EXPECT_TRUE(mentions(m.validate(), "self-loop"));
  m.strings[0].edges.back() = {3, 99, 5.0};
  EXPECT_TRUE(mentions(m.validate(), "out of range"));
  m.strings[0].edges.back() = {-1, 3, 5.0};
  EXPECT_TRUE(mentions(m.validate(), "out of range"));
}

TEST(DagSystemModel, ValidateRejectsDuplicateEdge) {
  SystemModel m = testing::diamond_system();
  m.strings[0].edges.insert(m.strings[0].edges.begin() + 1, {0, 1, 7.0});
  EXPECT_TRUE(mentions(m.validate(), "duplicates"));
}

TEST(DagSystemModel, ValidateRejectsUnsortedEdges) {
  SystemModel m = testing::diamond_system();
  std::swap(m.strings[0].edges[1], m.strings[0].edges[2]);
  EXPECT_TRUE(mentions(m.validate(), "not sorted"));
}

TEST(DagSystemModel, ValidateRejectsDisconnectedString) {
  SystemModel m = testing::diamond_system();
  m.strings[0].edges.erase(m.strings[0].edges.begin() + 2,
                           m.strings[0].edges.end());  // 3 is isolated
  EXPECT_TRUE(mentions(m.validate(), "not weakly connected"));
}

TEST(DagSystemModel, ValidateRejectsNegativeEdgeOutput) {
  SystemModel m = testing::diamond_system();
  m.strings[0].edges[2].kbytes = -1.0;
  EXPECT_TRUE(mentions(m.validate(), "negative output"));
}

TEST(DagConversion, ChainRoundTrip) {
  // The builder turns per-app outputs into chain edges (i, i+1, O[i]) and
  // drops the final app's output; the file format round-trips them.
  const SystemModel m = SystemModelBuilder(2)
                            .uniform_bandwidth(4.0)
                            .begin_string(10.0, 40.0)
                            .add_app(1.0, 0.5, 11.0)
                            .add_app(2.0, 0.5, 22.0)
                            .add_app(3.0, 0.5, 33.0)
                            .build();
  const AppString& s = m.strings[0];
  EXPECT_TRUE(s.is_path());
  EXPECT_EQ(s.edges, (std::vector<Edge>{{0, 1, 11.0}, {1, 2, 22.0}}));
  const SystemModel loaded = system_model_from_json(to_json(m));
  EXPECT_EQ(loaded.strings[0].edges, s.edges);
  EXPECT_TRUE(loaded.strings[0].is_path());
}

TEST(DagConversion, NonPathRejected) {
  // tsce-model-v1 stores chains only, and the simulator runs chains only.
  const SystemModel m = testing::diamond_system();
  EXPECT_FALSE(m.strings[0].is_path());
  EXPECT_THROW((void)to_json(m), std::invalid_argument);
  Allocation alloc(m);
  for (AppIndex i = 0; i < 4; ++i) alloc.assign(0, i, 0);
  alloc.set_deployed(0, true);
  EXPECT_THROW((void)sim::simulate(m, alloc), std::invalid_argument);
}

TEST(LongestPath, ChainIsTheInterleavedLeftFold) {
  util::Rng rng(5);
  AppString s;
  s.apps.resize(9);
  for (AppIndex e = 0; e + 1 < 9; ++e) s.edges.push_back({e, e + 1, 0.0});
  std::vector<double> comp(9);
  std::vector<double> tran(8);
  for (double& c : comp) c = rng.uniform(0.1, 10.0);
  for (double& t : tran) t = rng.uniform(0.0, 3.0);
  double fold = 0.0;
  for (std::size_t i = 0; i < 9; ++i) {
    fold += comp[i];
    if (i < 8) fold += tran[i];
  }
  std::vector<double> start(9);
  std::vector<AppIndex> pred(9);
  const double got = longest_path(
      s, [&](std::size_t i) { return comp[i]; }, [&](std::size_t e) { return tran[e]; },
      std::span<double>(start), std::span<AppIndex>(pred));
  EXPECT_EQ(got, fold);  // bit for bit
  EXPECT_EQ(pred[0], kInvalidId);
  for (AppIndex v = 1; v < 9; ++v) EXPECT_EQ(pred[static_cast<std::size_t>(v)], v - 1);
}

TEST(LongestPath, DiamondTakesTheSlowerBranch) {
  const AppString s = testing::diamond_string(1);
  const std::vector<double> comp = {1.0, 5.0, 1.0, 1.0};
  const std::vector<double> tran = {0.5, 0.5, 0.5, 3.0};  // 0-1, 0-2, 1-3, 2-3
  std::vector<double> start(4);
  std::vector<AppIndex> pred(4);
  const double got = longest_path(
      s, [&](std::size_t i) { return comp[i]; }, [&](std::size_t e) { return tran[e]; },
      std::span<double>(start), std::span<AppIndex>(pred));
  // 0 (1) -> 1 (0.5 + 5) -> 3 (0.5 + 1) = 8 beats 0 -> 2 -> 3 = 6.5.
  EXPECT_DOUBLE_EQ(got, 8.0);
  EXPECT_EQ(pred[3], 2);  // edge 1 -> 3
  EXPECT_EQ(pred[1], 0);
}

}  // namespace
}  // namespace tsce::model
