// Untrusted JSON text: every truncation, byte flip, splice or bracket run
// planted in a valid document must parse to a value or throw JsonParseError —
// never crash, overflow the stack, or throw anything else.  Seeded, so a
// failure reproduces; tier 1, so the sanitizer legs run it too.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>

#include "model/serialization.hpp"
#include "testing/mutate.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::util {
namespace {

/// A saved model, as `tsce_cli --save-model` writes it (pretty-printed).
std::string saved_model_text(std::uint64_t seed) {
  Rng rng(seed);
  auto config = workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = 4;
  config.num_strings = 6;
  return model::to_json(workload::generate(config, rng)).dump(2);
}

TEST(JsonUntrusted, MutatedSavedModelsParseOrThrowJsonParseError) {
  const std::string docs[] = {saved_model_text(1), saved_model_text(2)};
  Rng rng(2024);
  std::size_t values = 0;
  std::size_t errors = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::string& doc = docs[round % 2];
    const std::string text = testing::mutate_text(doc, docs[(round + 1) % 2], rng);
    try {
      const Json v = Json::parse(text);
      ++values;
      // A value always re-serializes to a document the parser accepts.
      EXPECT_NO_THROW((void)Json::parse(v.dump())) << "round " << round;
    } catch (const JsonParseError&) {
      ++errors;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "round " << round << ": non-JsonParseError: " << e.what();
    }
  }
  // Both outcomes occur, so neither branch of the property is vacuous.
  EXPECT_GT(values, 0u);
  EXPECT_GT(errors, 0u);
}

}  // namespace
}  // namespace tsce::util
