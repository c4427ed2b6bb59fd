// Pins GENITOR search results to fixed values recorded before offspring
// could inherit a parent's fitness.  Every quantity below is compared bit
// for bit (hexfloat slackness, exact counts, 64-bit digests), so any change
// to the search path — an extra or missing RNG draw, a different competition
// order, a fitness that differs from a full decode, a changed evaluation
// count — fails this test.
//
// Per scenario x seed, at a reduced GA budget.  Scenarios 1 and 2 run on
// 4 machines x 24 strings and end in partial allocations, so most offspring
// have a decisive prefix shorter than the order; scenario 3 runs at its
// Fig. 5 shape (12 x 25), where every string fits:
//   * PSG, Seeded PSG, LP-Seeded PSG and the class-based allocator: worth,
//     slackness, evaluation count and a digest of the winning order;
//   * one bare Genitor<PermutationProblem> run: best fitness, iterations,
//     evaluations and a digest of the observer's elite trace.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/class_based.hpp"
#include "core/psg.hpp"
#include "genitor/genitor.hpp"
#include "workload/generator.hpp"

namespace tsce {
namespace {

using model::SystemModel;
using workload::Scenario;

constexpr std::size_t kAllocators = 4;  // PSG, Seeded, LP-Seeded, class-based

struct AllocPin {
  int worth;
  double slack;
  std::size_t evaluations;
  std::uint64_t order_digest;
};

struct GaPin {
  int worth;
  double slack;
  std::size_t iterations;
  std::size_t evaluations;
  std::uint64_t trace_digest;
};

struct PsgPin {
  std::array<AllocPin, kAllocators> alloc;
  GaPin ga;
};

/// FNV-1a over 64-bit words.
void mix(std::uint64_t& h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

SystemModel pin_model(Scenario scenario, std::uint64_t seed) {
  util::Rng rng(seed);
  auto config = workload::GeneratorConfig::for_scenario(scenario);
  if (scenario != Scenario::kLightlyLoaded) {
    config.num_machines = 4;
    config.num_strings = 24;
  }
  return workload::generate(config, rng);
}

AllocPin pin_allocation(const core::AllocatorResult& r) {
  AllocPin pin{r.fitness.total_worth, r.fitness.slackness, r.evaluations, kFnvBasis};
  for (const model::StringId id : r.order) mix(pin.order_digest, id);
  return pin;
}

PsgPin compute_pin(Scenario scenario, std::uint64_t seed) {
  const SystemModel m = pin_model(scenario, seed);
  PsgPin pin{};

  core::PsgOptions psg;
  psg.ga.population_size = 30;
  psg.ga.max_iterations = 150;
  psg.ga.stagnation_limit = 60;
  psg.trials = 2;
  core::ClassBasedOptions cb;
  cb.ga.population_size = 16;
  cb.ga.max_iterations = 80;
  cb.ga.stagnation_limit = 40;

  const std::uint64_t alloc_seed = seed * 31 + static_cast<std::uint64_t>(scenario);
  {
    util::Rng rng(alloc_seed);
    pin.alloc[0] = pin_allocation(core::Psg(psg).allocate(m, rng));
  }
  {
    util::Rng rng(alloc_seed);
    pin.alloc[1] = pin_allocation(core::SeededPsg(psg).allocate(m, rng));
  }
  {
    util::Rng rng(alloc_seed);
    pin.alloc[2] = pin_allocation(core::LpSeededPsg(psg).allocate(m, rng));
  }
  {
    util::Rng rng(alloc_seed);
    pin.alloc[3] = pin_allocation(core::ClassBasedAllocator(cb).allocate(m, rng));
  }

  const core::PermutationProblem problem(m);
  genitor::Genitor<core::PermutationProblem> ga(problem, psg.ga);
  util::Rng rng(alloc_seed + 1);
  std::uint64_t trace = kFnvBasis;
  const auto result =
      ga.run(rng, {}, [&](std::size_t iteration, const analysis::Fitness& elite) {
        mix(trace, iteration);
        mix(trace, static_cast<std::uint64_t>(elite.total_worth));
        mix(trace, std::bit_cast<std::uint64_t>(elite.slackness));
      });
  pin.ga = {result.best_fitness.total_worth, result.best_fitness.slackness,
            result.iterations, result.evaluations, trace};
  return pin;
}

/// The pin as a C++ initializer, printed on mismatch so a deliberate
/// re-pin is a copy-paste.
std::string literal(const PsgPin& p) {
  std::string out = "{{{";
  char buf[160];
  for (std::size_t a = 0; a < kAllocators; ++a) {
    const AllocPin& x = p.alloc[a];
    std::snprintf(buf, sizeof(buf), "%s{%d, %a, %zu, 0x%016llxULL}",
                  a == 0 ? "" : ",\n   ", x.worth, x.slack, x.evaluations,
                  static_cast<unsigned long long>(x.order_digest));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "}},\n  {%d, %a, %zu, %zu, 0x%016llxULL}}",
                p.ga.worth, p.ga.slack, p.ga.iterations, p.ga.evaluations,
                static_cast<unsigned long long>(p.ga.trace_digest));
  return out + buf;
}

struct PinCase {
  Scenario scenario;
  std::uint64_t seed;
  PsgPin expected;
};

// Recorded at the last commit whose GENITOR decoded every offspring.
const std::array<PinCase, 6> kPins = {{
    {Scenario::kHighlyLoaded, 1,
     {{{{683, 0x1.2a98e601b5a5p-4, 879, 0x0d6ef00f8075cd65ULL},
        {682, 0x1.32de5f163363p-4, 690, 0xd1ea5a19680211c5ULL},
        {692, 0x1.972da9582f2dp-5, 804, 0x6d4ea338675d3d05ULL},
        {692, 0x1.6fb159a59b6p-4, 436, 0x3430163c73b880cdULL}}},
       {683, 0x1.14b49ec2e0108p-4, 150, 480, 0x9bf96b57777059b5ULL}}},
    {Scenario::kHighlyLoaded, 2,
     {{{{853, 0x1.9c6019ef37a28p-4, 825, 0x89677787d1db7c25ULL},
        {861, 0x1.1b7ca7accaaap-4, 960, 0xe3373f9cf0c0a665ULL},
        {862, 0x1.08da7706da218p-3, 960, 0x8b01170bf5819bc5ULL},
        {871, 0x1.f3d6a1b0892ap-4, 496, 0x4baae88a143cfc32ULL}}},
       {842, 0x1.2371a97eb68c8p-3, 150, 480, 0xae490c89ba2ab941ULL}}},
    {Scenario::kQosLimited, 1,
     {{{{501, 0x1.fad343636c3e4p-3, 732, 0xfcaea468f66c7485ULL},
        {600, 0x1.33dc4a1510dap-2, 624, 0x78a1e1dc885cb885ULL},
        {610, 0x1.ced307cc0a838p-4, 648, 0x5f9100a4eb31ff85ULL},
        {610, 0x1.c018afb82ed54p-3, 415, 0x54ca5f60b797f31fULL}}},
       {600, 0x1.04cc0e09c075cp-2, 150, 480, 0xf0821725f33f79c5ULL}}},
    {Scenario::kQosLimited, 2,
     {{{{540, 0x1.fe1a98756b11p-3, 762, 0xec8a8b0c505ebb65ULL},
        {531, 0x1.39ccae373bacp-4, 846, 0x2aceda42de732945ULL},
        {610, 0x1.076d27e189aep-2, 855, 0x72164f543dc713a5ULL},
        {711, 0x1.822a9a12be28cp-3, 475, 0xad69d66036007c64ULL}}},
       {531, 0x1.cf8f08558159p-3, 150, 480, 0x5ae38e1a19a0c5a5ULL}}},
    {Scenario::kLightlyLoaded, 1,
     {{{{1096, 0x1.5e3a5927ca49ap-1, 699, 0x58e45441759160bdULL},
        {1096, 0x1.5defc47bd766ap-1, 849, 0xe0d8482e76bc2bbdULL},
        {1096, 0x1.604b3a7ac4ecfp-1, 840, 0xea85dc1d81fcbf5dULL},
        {1096, 0x1.5755c2f8fd19ap-1, 358, 0x5f56fa27b3bb7bddULL}}},
       {1096, 0x1.5adddba1d30bbp-1, 69, 237, 0x8d1b9efeeb32cc07ULL}}},
    {Scenario::kLightlyLoaded, 2,
     {{{{871, 0x1.48dca491c9262p-1, 852, 0x53fdcd6d8d0b4b1dULL},
        {871, 0x1.4758e3f77addcp-1, 747, 0xf0e1ad0513f5787dULL},
        {871, 0x1.4870435aa843ap-1, 537, 0x7357c91aa95d4f3dULL},
        {871, 0x1.46d28c42d38bcp-1, 469, 0xfb1803eb4061307dULL}}},
       {871, 0x1.4295a3db0bbaep-1, 126, 408, 0x8d75a43022e52e1dULL}}},
}};

class PsgPinTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PsgPinTest, ResultsAreBitIdenticalToRecordedValues) {
  const PinCase& c = kPins[GetParam()];
  const PsgPin got = compute_pin(c.scenario, c.seed);
  const PsgPin& want = c.expected;
  for (std::size_t a = 0; a < kAllocators; ++a) {
    EXPECT_EQ(got.alloc[a].worth, want.alloc[a].worth) << "allocator " << a;
    EXPECT_EQ(got.alloc[a].slack, want.alloc[a].slack) << "allocator " << a;
    EXPECT_EQ(got.alloc[a].evaluations, want.alloc[a].evaluations) << "allocator " << a;
    EXPECT_EQ(got.alloc[a].order_digest, want.alloc[a].order_digest) << "allocator " << a;
  }
  EXPECT_EQ(got.ga.worth, want.ga.worth);
  EXPECT_EQ(got.ga.slack, want.ga.slack);
  EXPECT_EQ(got.ga.iterations, want.ga.iterations);
  EXPECT_EQ(got.ga.evaluations, want.ga.evaluations);
  EXPECT_EQ(got.ga.trace_digest, want.ga.trace_digest);
  if (HasFailure()) ADD_FAILURE() << "computed pin:\n" << literal(got);
}

INSTANTIATE_TEST_SUITE_P(ScenarioSeeds, PsgPinTest,
                         ::testing::Range<std::size_t>(0, kPins.size()));

}  // namespace
}  // namespace tsce
