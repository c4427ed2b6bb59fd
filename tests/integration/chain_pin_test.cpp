// Pins chain results to fixed values recorded before strings carried an
// explicit edge list.  Every quantity below is compared bit for bit
// (hexfloat literals, exact integer digests), so any change in a fold order
// along the chain — tightness, eq. (1) latency, utilization sums, IMR
// placement, or the LP's row/column layout — fails this test.
//
// Per scenario x seed (12 machines, string_scale 0.2):
//   * MWF, TF and 8 random decode orders: worth and slackness;
//   * for each of those 10 allocations, TimeEstimates::latency and
//     relative_tightness of every deployed string, folded into a sum and a
//     64-bit digest of the raw bit patterns.
// Plus the worth upper bound of one 4 x 12 scenario-1 instance.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "analysis/estimates.hpp"
#include "analysis/tightness.hpp"
#include "core/decode.hpp"
#include "core/ordered.hpp"
#include "lp/upper_bound.hpp"
#include "workload/generator.hpp"

namespace tsce {
namespace {

using model::StringId;
using model::SystemModel;

constexpr std::size_t kOrders = 8;

struct ChainPin {
  int mwf_worth;
  double mwf_slack;
  int tf_worth;
  double tf_slack;
  std::array<int, kOrders> order_worth;
  std::array<double, kOrders> order_slack;
  double latency_sum;
  double tightness_sum;
  std::uint64_t digest;
};

/// FNV-1a over 64-bit words.
void mix(std::uint64_t& h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

void fold_allocation(const SystemModel& m, const model::Allocation& alloc,
                     ChainPin& pin) {
  const analysis::TimeEstimates est = analysis::estimate_all(m, alloc);
  for (std::size_t k = 0; k < m.num_strings(); ++k) {
    const auto sk = static_cast<StringId>(k);
    if (!alloc.deployed(sk)) continue;
    const double latency = est.latency(sk);
    const double tightness = analysis::relative_tightness(m, alloc, sk);
    pin.latency_sum += latency;
    pin.tightness_sum += tightness;
    mix(pin.digest, k);
    mix(pin.digest, std::bit_cast<std::uint64_t>(latency));
    mix(pin.digest, std::bit_cast<std::uint64_t>(tightness));
  }
}

ChainPin compute_pin(workload::Scenario scenario, std::uint64_t seed) {
  util::Rng rng(seed);
  const SystemModel m =
      workload::generate(workload::GeneratorConfig::for_scenario(scenario, 0.2), rng);
  ChainPin pin{};
  pin.digest = 0xcbf29ce484222325ULL;

  util::Rng unused(0);
  const core::AllocatorResult mwf = core::MostWorthFirst().allocate(m, unused);
  pin.mwf_worth = mwf.fitness.total_worth;
  pin.mwf_slack = mwf.fitness.slackness;
  fold_allocation(m, mwf.allocation, pin);
  const core::AllocatorResult tf = core::TightestFirst().allocate(m, unused);
  pin.tf_worth = tf.fitness.total_worth;
  pin.tf_slack = tf.fitness.slackness;
  fold_allocation(m, tf.allocation, pin);

  std::vector<StringId> order(m.num_strings());
  std::iota(order.begin(), order.end(), 0);
  util::Rng order_rng(seed * 7919 + static_cast<std::uint64_t>(scenario));
  for (std::size_t o = 0; o < kOrders; ++o) {
    order_rng.shuffle(order);
    const core::DecodeResult r = core::decode_order(m, order);
    pin.order_worth[o] = r.fitness.total_worth;
    pin.order_slack[o] = r.fitness.slackness;
    fold_allocation(m, r.allocation, pin);
  }
  return pin;
}

struct PinCase {
  workload::Scenario scenario;
  std::uint64_t seed;
  ChainPin expected;
};

// Recorded at the last commit whose strings were implicit chains.
const std::array<PinCase, 9> kPins = {{
    {workload::Scenario::kHighlyLoaded, 1,
     {1308, 0x1.1896279b39689p-1, 1308, 0x1.2410c490e1b2bp-1,
      {1308, 1308, 1308, 1308, 1308, 1308, 1308, 1308},
      {0x1.17bb2d87fbacap-1, 0x1.23a82736c8f6fp-1, 0x1.241f9e16b4d7cp-1,
       0x1.271220508de3dp-1, 0x1.36a61da8ddfccp-1, 0x1.23c7d70995432p-1,
       0x1.189831e1f3d24p-1, 0x1.3023c88d23c91p-1},
      0x1.888e90b590a75p+13, 0x1.02d0a876a8511p+5, 0x7eb98f791dbc1307ULL}},
    {workload::Scenario::kHighlyLoaded, 2,
     {975, 0x1.082bef4a645f3p-1, 975, 0x1.03c13ba8e7284p-1,
      {975, 975, 975, 975, 975, 975, 975, 975},
      {0x1.0bc89b9004c3cp-1, 0x1.134c0bad84fcp-1, 0x1.0c3e2c2ad885fp-1,
       0x1.14e984865028ap-1, 0x1.151485d99fc44p-1, 0x1.0e79363a8cc72p-1,
       0x1.06fad1dad1ca6p-1, 0x1.0b41269604938p-1},
      0x1.f81062bcfc69ap+13, 0x1.08eb7f7cf150ep+5, 0x1e39ce8224ee26f4ULL}},
    {workload::Scenario::kHighlyLoaded, 3,
     {1065, 0x1.1469bb7f68c62p-1, 1065, 0x1.01dd7a84a52d6p-1,
      {1065, 1065, 1065, 1065, 1065, 1065, 1065, 1065},
      {0x1.1188f5d86a73dp-1, 0x1.13eb052e32887p-1, 0x1.15fb2fb58c86ep-1,
       0x1.0caa8af5d8985p-1, 0x1.151d5cbd71945p-1, 0x1.0ff4486003f2ap-1,
       0x1.15ea4f527c01dp-1, 0x1.16270cf74662p-1},
      0x1.a6a2e0fa9ff47p+13, 0x1.0f20358c562ecp+5, 0x707816a58e7147b8ULL}},
    {workload::Scenario::kQosLimited, 1,
     {1303, 0x1.05759e52b2512p-2, 1187, 0x1.3e86b3501ab14p-2,
      {764, 875, 886, 1076, 985, 653, 775, 756},
      {0x1.0ae3e682fd379p-1, 0x1.ccd85bc9b6e64p-2, 0x1.8b1e9a782f434p-2,
       0x1.8b8115a45217ap-2, 0x1.96acd14c28c66p-2, 0x1.1e7e48c4e627bp-1,
       0x1.c5e85fc43449cp-2, 0x1.006ec5094c62ep-1},
      0x1.a3a4950d7eb53p+12, 0x1.c5c88195cf5b3p+5, 0x9fc1291a98181d36ULL}},
    {workload::Scenario::kQosLimited, 2,
     {964, 0x1.4eb5b8f7ec4d4p-2, 449, 0x1.9d90b0ce56fdcp-2,
      {115, 850, 553, 530, 768, 445, 561, 335},
      {0x1.7b348c4d15143p-1, 0x1.807554be8f3b4p-2, 0x1.730cd249678b2p-2,
       0x1.cce911d3b95fcp-2, 0x1.a0229d728ebe2p-2, 0x1.2e3d0e82b83e8p-1,
       0x1.594c4570237aap-2, 0x1.722b6976c19cbp-1},
      0x1.a3ceb34bdf982p+12, 0x1.8fefde59ce80ap+5, 0x33114a147e41ccbdULL}},
    {workload::Scenario::kQosLimited, 3,
     {1040, 0x1.8c1cd8f585fa8p-2, 723, 0x1.ab1e66ad81142p-2,
      {533, 671, 612, 402, 612, 394, 785, 734},
      {0x1.2c4995fa116ecp-1, 0x1.dccf9f0819d54p-2, 0x1.b13e7b8478234p-2,
       0x1.12539d9e12151p-1, 0x1.edc89d3ef4f28p-2, 0x1.f33647d71a106p-2,
       0x1.78aaeac065c9cp-2, 0x1.2b1a75feb23c6p-2},
      0x1.7c6a2942d4bf2p+12, 0x1.ba031c8a47f8fp+5, 0x491595e733511edbULL}},
    {workload::Scenario::kLightlyLoaded, 1,
     {401, 0x1.cd9832691a243p-1, 401, 0x1.cd83e589bfad9p-1,
      {401, 401, 401, 401, 401, 401, 401, 401},
      {0x1.c2992bf564ecap-1, 0x1.c547ea870bb3ap-1, 0x1.c5ced92fb0f06p-1,
       0x1.c2992bf564ecap-1, 0x1.caad80bfc11e9p-1, 0x1.c2992bf564ecap-1,
       0x1.d74af7b434e81p-1, 0x1.d1d5597afd255p-1},
      0x1.b19d35bf152cep+9, 0x1.7d3f679216becp+2, 0x260c4f7629da6c22ULL}},
    {workload::Scenario::kLightlyLoaded, 2,
     {23, 0x1.cc4ea1ea8e67p-1, 23, 0x1.c67d79cb65f63p-1,
      {23, 23, 23, 23, 23, 23, 23, 23},
      {0x1.c3a28ba492b8cp-1, 0x1.ca892487eaf79p-1, 0x1.c288cedbeda82p-1,
       0x1.c4e47bb51041ep-1, 0x1.be1121b7f928ap-1, 0x1.ba2a245456da6p-1,
       0x1.c508fd0e95281p-1, 0x1.c4e47bb51041ep-1},
      0x1.884cc24d6d0b3p+10, 0x1.561d914d8b1fep+2, 0x611159b99545584cULL}},
    {workload::Scenario::kLightlyLoaded, 3,
     {131, 0x1.d3834d577ef7cp-1, 131, 0x1.da12a2964739dp-1,
      {131, 131, 131, 131, 131, 131, 131, 131},
      {0x1.cb4cf97d5d73cp-1, 0x1.d0ce232571136p-1, 0x1.d5dfbeea82f96p-1,
       0x1.d0ce232571136p-1, 0x1.d5328c775e6d8p-1, 0x1.d3834d577ef7cp-1,
       0x1.d3834d577ef7cp-1, 0x1.cd49d319db386p-1},
      0x1.5cfad3cbc414cp+9, 0x1.1c40f1516a36ap+2, 0xcf126195be4c8f9fULL}},
}};

class ChainPinTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainPinTest, ResultsAreBitIdenticalToRecordedValues) {
  const PinCase& c = kPins[GetParam()];
  const ChainPin got = compute_pin(c.scenario, c.seed);
  const ChainPin& want = c.expected;
  EXPECT_EQ(got.mwf_worth, want.mwf_worth);
  EXPECT_EQ(got.mwf_slack, want.mwf_slack);
  EXPECT_EQ(got.tf_worth, want.tf_worth);
  EXPECT_EQ(got.tf_slack, want.tf_slack);
  for (std::size_t o = 0; o < kOrders; ++o) {
    EXPECT_EQ(got.order_worth[o], want.order_worth[o]) << "order " << o;
    EXPECT_EQ(got.order_slack[o], want.order_slack[o]) << "order " << o;
  }
  EXPECT_EQ(got.latency_sum, want.latency_sum);
  EXPECT_EQ(got.tightness_sum, want.tightness_sum);
  EXPECT_EQ(got.digest, want.digest);
}

INSTANTIATE_TEST_SUITE_P(ScenarioSeeds, ChainPinTest,
                         ::testing::Range<std::size_t>(0, kPins.size()));

TEST(ChainPin, UpperBoundObjectiveIsBitIdentical) {
  util::Rng rng(42);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = 4;
  config.num_strings = 12;
  const SystemModel m = workload::generate(config, rng);
  const lp::UpperBoundResult ub = lp::upper_bound_worth(m);
  ASSERT_EQ(ub.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(ub.value, 0x1.08p+6);
  EXPECT_EQ(ub.lp_rows, 613u);
  EXPECT_EQ(ub.lp_cols, 1348u);
  EXPECT_EQ(ub.iterations, 752u);
}

}  // namespace
}  // namespace tsce
