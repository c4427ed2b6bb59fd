// Untrusted model and allocation JSON: every malformed document must end in
// std::runtime_error (or load successfully) — never a hang, a crash, UB, or
// any other exception type.  Regression cases first, then a seeded mutation
// property over valid documents (run under the sanitizer legs too).

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/serialization.hpp"
#include "testing/builders.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::model {
namespace {

using util::Json;

/// Loads \p doc as a model; true on success, false on std::runtime_error.
/// Any other exception fails the calling test.
bool loads_model(const Json& doc) {
  try {
    (void)system_model_from_json(doc);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-runtime_error: " << e.what() << "\n" << doc.dump();
    return false;
  }
}

bool loads_allocation(const Json& doc, const SystemModel& model) {
  try {
    (void)allocation_from_json(doc, model);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-runtime_error: " << e.what() << "\n" << doc.dump();
    return false;
  }
}

TEST(SerializationUntrusted, NegativeMachineCountIsAnErrorNotAHang) {
  const Json doc = Json::parse(
      R"({"format":"tsce-model-v1","machines":-1,"bandwidth_mbps":[],"strings":[]})");
  EXPECT_FALSE(loads_model(doc));
}

TEST(SerializationUntrusted, MachineCountMustMatchTheBandwidthMatrix) {
  for (const char* machines : {"1e300", "2.5", "3"}) {
    const std::string text = std::string(R"({"format":"tsce-model-v1","machines":)") +
                             machines + R"(,"bandwidth_mbps":[[null]],"strings":[]})";
    const Json doc = Json::parse(text);
    EXPECT_FALSE(loads_model(doc)) << machines;
  }
}

TEST(SerializationUntrusted, HugeWorthIsAnError) {
  Json doc = to_json(testing::two_machine_system());
  for (auto& [key, value] : doc.as_object()) {
    if (key != "strings") continue;
    for (auto& [skey, svalue] : value.as_array()[0].as_object()) {
      if (skey == "worth") svalue = Json(1e300);
    }
  }
  EXPECT_FALSE(loads_model(doc));
}

TEST(SerializationUntrusted, MappingCellsMustBeMachineIds) {
  const SystemModel m = testing::two_machine_system();
  for (const char* cell : {"1e300", "-1e300", "2.5", "2", "-2", "\"0\""}) {
    const Json doc = Json::parse(
        std::string(R"({"format":"tsce-allocation-v1","mapping":[[0,)") + cell +
        R"(],[-1,-1]],"deployed":[true,false]})");
    EXPECT_FALSE(loads_allocation(doc, m)) << cell;
  }
  EXPECT_TRUE(loads_allocation(Json::parse(R"({"format":"tsce-allocation-v1",)"
                                           R"("mapping":[[0,1],[-1,-1]],)"
                                           R"("deployed":[true,false]})"),
                               m));
}

TEST(SerializationUntrusted, MissingKeysAreSchemaErrors) {
  EXPECT_FALSE(loads_model(Json::parse(R"({"format":"tsce-model-v1"})")));
  EXPECT_FALSE(loads_allocation(Json::parse(R"({"format":"tsce-allocation-v1"})"),
                                testing::two_machine_system()));
}

/// Every node of \p root, depth first (pointers stay valid until \p root
/// is mutated).
void collect(Json& node, std::vector<Json*>& out) {
  out.push_back(&node);
  if (node.is_array()) {
    for (Json& child : node.as_array()) collect(child, out);
  } else if (node.is_object()) {
    for (auto& [key, child] : node.as_object()) collect(child, out);
  }
}

/// One random mutation: drop an object key, swap a node's type, or plant an
/// extreme number.
void mutate(Json& root, util::Rng& rng) {
  std::vector<Json*> nodes;
  collect(root, nodes);
  Json& node = *nodes[rng.bounded(nodes.size())];
  static const std::array<double, 8> kNumbers = {-1.0, 2.5,   1e300, -1e300,
                                                 0.0,  1e9,   -0.5,  4294967296.0};
  switch (rng.bounded(3)) {
    case 0:
      if (node.is_object() && !node.as_object().empty()) {
        auto& fields = node.as_object();
        fields.erase(fields.begin() +
                     static_cast<std::ptrdiff_t>(rng.bounded(fields.size())));
        return;
      }
      [[fallthrough]];
    case 1:
      switch (rng.bounded(5)) {
        case 0: node = Json(nullptr); return;
        case 1: node = Json(true); return;
        case 2: node = Json("x"); return;
        case 3: node = Json::array(); return;
        default: node = Json::object(); return;
      }
    default:
      node = Json(kNumbers[rng.bounded(kNumbers.size())]);
      return;
  }
}

TEST(SerializationUntrusted, MutatedDocumentsFailCleanly) {
  util::Rng gen_rng(3);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = 3;
  config.num_strings = 4;
  const SystemModel generated = workload::generate(config, gen_rng);
  const std::array<SystemModel, 2> models = {testing::two_machine_system(), generated};

  util::Rng rng(20261017);
  std::size_t loaded = 0;
  for (int round = 0; round < 3000; ++round) {
    const SystemModel& m = models[static_cast<std::size_t>(round) % models.size()];
    Allocation alloc(m);
    for (std::size_t k = 0; k < m.num_strings(); k += 2) {
      for (std::size_t i = 0; i < m.strings[k].size(); ++i) {
        alloc.assign(static_cast<StringId>(k), static_cast<AppIndex>(i), 0);
      }
      alloc.set_deployed(static_cast<StringId>(k), true);
    }
    Json model_doc = to_json(m);
    Json alloc_doc = to_json(alloc);
    const std::size_t mutations = 1 + rng.bounded(3);
    for (std::size_t n = 0; n < mutations; ++n) {
      mutate(model_doc, rng);
      mutate(alloc_doc, rng);
    }
    loaded += loads_model(model_doc) ? 1 : 0;
    loaded += loads_allocation(alloc_doc, m) ? 1 : 0;
  }
  // Some mutations are harmless (e.g. a dropped optional name); most are not.
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, 6000u);
}

}  // namespace
}  // namespace tsce::model
