#include "model/serialization.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/ordered.hpp"
#include "testing/builders.hpp"
#include "workload/generator.hpp"

namespace tsce::model {
namespace {

void expect_models_equal(const SystemModel& a, const SystemModel& b) {
  ASSERT_EQ(a.num_machines(), b.num_machines());
  ASSERT_EQ(a.num_strings(), b.num_strings());
  EXPECT_EQ(a.machine_names, b.machine_names);
  const auto m = static_cast<MachineId>(a.num_machines());
  for (MachineId j1 = 0; j1 < m; ++j1) {
    for (MachineId j2 = 0; j2 < m; ++j2) {
      EXPECT_EQ(a.network.bandwidth_mbps(j1, j2), b.network.bandwidth_mbps(j1, j2));
    }
  }
  for (std::size_t k = 0; k < a.num_strings(); ++k) {
    const auto& sa = a.strings[k];
    const auto& sb = b.strings[k];
    EXPECT_EQ(sa.name, sb.name);
    EXPECT_DOUBLE_EQ(sa.period_s, sb.period_s);
    EXPECT_DOUBLE_EQ(sa.max_latency_s, sb.max_latency_s);
    EXPECT_EQ(sa.worth, sb.worth);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa.apps[i].name, sb.apps[i].name);
      EXPECT_EQ(sa.apps[i].nominal_time_s, sb.apps[i].nominal_time_s);
      EXPECT_EQ(sa.apps[i].nominal_util, sb.apps[i].nominal_util);
    }
    EXPECT_EQ(sa.edges, sb.edges);
  }
}

TEST(Serialization, ModelRoundTripInMemory) {
  const SystemModel original = testing::two_machine_system();
  const SystemModel loaded = system_model_from_json(to_json(original));
  expect_models_equal(original, loaded);
}

TEST(Serialization, GeneratedModelRoundTrip) {
  util::Rng rng(5);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kQosLimited);
  config.num_machines = 4;
  config.num_strings = 10;
  const SystemModel original = workload::generate(config, rng);
  // Through text, not just the Json value: exercises number round-tripping.
  const auto json_text = to_json(original).dump(2);
  const SystemModel loaded = system_model_from_json(util::Json::parse(json_text));
  expect_models_equal(original, loaded);
}

TEST(Serialization, InfiniteBandwidthBecomesNull) {
  const SystemModel m = testing::two_machine_system();
  const auto json = to_json(m);
  EXPECT_TRUE(json.at("bandwidth_mbps").as_array()[0].as_array()[0].is_null());
  EXPECT_DOUBLE_EQ(
      json.at("bandwidth_mbps").as_array()[0].as_array()[1].as_number(), 8.0);
}

TEST(Serialization, MachineNamesSurvive) {
  SystemModel m = testing::two_machine_system();
  m.machine_names = {"alpha", "bravo"};
  const SystemModel loaded = system_model_from_json(to_json(m));
  ASSERT_EQ(loaded.machine_names.size(), 2u);
  EXPECT_EQ(loaded.machine_names[0], "alpha");
}

TEST(Serialization, RejectsWrongFormat) {
  EXPECT_THROW((void)system_model_from_json(util::Json::parse("{}")),
               std::runtime_error);
  EXPECT_THROW((void)system_model_from_json(
                   util::Json::parse(R"({"format": "something-else"})")),
               std::runtime_error);
}

TEST(Serialization, RejectsInvalidLoadedModel) {
  auto json = to_json(testing::two_machine_system());
  // Corrupt a utilization beyond (0, 1].
  auto& strings = json.as_object();
  for (auto& [key, value] : strings) {
    if (key != "strings") continue;
    ASSERT_TRUE(value.as_array()[0].contains("apps"));  // ensure shape
    for (auto& [skey, svalue] : value.as_array()[0].as_object()) {
      if (skey != "apps") continue;
      for (auto& [akey, avalue] : svalue.as_array()[0].as_object()) {
        if (akey == "util") avalue.as_array()[0] = util::Json(5.0);
      }
    }
  }
  EXPECT_THROW((void)system_model_from_json(json), std::runtime_error);
}

TEST(Serialization, AllocationRoundTrip) {
  const SystemModel m = testing::two_machine_system();
  util::Rng rng(1);
  const auto result = core::MostWorthFirst{}.allocate(m, rng);
  const Allocation loaded = allocation_from_json(to_json(result.allocation), m);
  EXPECT_EQ(loaded, result.allocation);
}

TEST(Serialization, PartialAllocationRoundTrip) {
  const SystemModel m = testing::two_machine_system();
  Allocation a(m);
  a.assign(0, 0, 1);  // string 0 half-mapped, not deployed
  const Allocation loaded = allocation_from_json(to_json(a), m);
  EXPECT_EQ(loaded, a);
  EXPECT_EQ(loaded.machine_of(0, 0), 1);
  EXPECT_EQ(loaded.machine_of(0, 1), kUnassigned);
}

TEST(Serialization, AllocationShapeMismatchThrows) {
  const SystemModel m = testing::two_machine_system();
  const SystemModel other = testing::minimal_system();
  Allocation a(m);
  EXPECT_THROW((void)allocation_from_json(to_json(a), other), std::runtime_error);
}

TEST(Serialization, DeployedButUnmappedThrows) {
  const SystemModel m = testing::two_machine_system();
  auto json = to_json(Allocation(m));
  for (auto& [key, value] : json.as_object()) {
    if (key == "deployed") value.as_array()[0] = util::Json(true);
  }
  EXPECT_THROW((void)allocation_from_json(json, m), std::runtime_error);
}

TEST(Serialization, FileRoundTrip) {
  const std::string model_path = ::testing::TempDir() + "/tsce_model.json";
  const std::string alloc_path = ::testing::TempDir() + "/tsce_alloc.json";
  const SystemModel m = testing::two_machine_system();
  util::Rng rng(2);
  const auto result = core::MostWorthFirst{}.allocate(m, rng);

  save_system_model(model_path, m);
  save_allocation(alloc_path, result.allocation);
  const SystemModel loaded_model = load_system_model(model_path);
  expect_models_equal(m, loaded_model);
  const Allocation loaded_alloc = load_allocation(alloc_path, loaded_model);
  EXPECT_EQ(loaded_alloc, result.allocation);
  std::remove(model_path.c_str());
  std::remove(alloc_path.c_str());
}

}  // namespace
}  // namespace tsce::model
