#include "core/evaluator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/decode.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::core {
namespace {

using model::StringId;
using model::SystemModel;

SystemModel make_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  auto config =
      workload::GeneratorConfig::for_scenario(workload::Scenario::kHighlyLoaded);
  config.num_machines = 4;
  config.num_strings = 18;
  return workload::generate(config, rng);
}

std::vector<std::vector<StringId>> make_orders(const SystemModel& m,
                                               std::size_t count,
                                               std::uint64_t seed) {
  std::vector<std::vector<StringId>> orders(count, identity_order(m));
  util::Rng rng(seed);
  for (auto& order : orders) rng.shuffle(order);
  return orders;
}

void expect_outcomes_equal(const std::vector<DecodeOutcome>& a,
                           const std::vector<DecodeOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fitness.total_worth, b[i].fitness.total_worth) << "i=" << i;
    EXPECT_EQ(a[i].fitness.slackness, b[i].fitness.slackness) << "i=" << i;
    EXPECT_EQ(a[i].strings_deployed, b[i].strings_deployed) << "i=" << i;
    EXPECT_EQ(a[i].first_failed, b[i].first_failed) << "i=" << i;
    EXPECT_EQ(a[i].prefix_reused, b[i].prefix_reused) << "i=" << i;
  }
}

TEST(BatchEvaluator, SerialMatchesFreshDecodes) {
  const SystemModel m = make_instance(3);
  const auto orders = make_orders(m, 10, 7);
  BatchEvaluator evaluator(m, 1);
  EXPECT_EQ(evaluator.num_workers(), 1u);
  const auto outcomes = evaluator.evaluate(orders);
  ASSERT_EQ(outcomes.size(), orders.size());
  for (std::size_t i = 0; i < orders.size(); ++i) {
    const DecodeResult fresh = decode_order(m, orders[i]);
    EXPECT_EQ(outcomes[i].fitness.total_worth, fresh.fitness.total_worth);
    EXPECT_EQ(outcomes[i].fitness.slackness, fresh.fitness.slackness);
    EXPECT_EQ(outcomes[i].strings_deployed, fresh.strings_deployed);
    EXPECT_EQ(outcomes[i].first_failed, fresh.first_failed);
    EXPECT_EQ(outcomes[i].prefix_reused, 0u);  // schedule-independent contract
  }
}

TEST(BatchEvaluator, ByteIdenticalAcrossThreadCounts) {
  const SystemModel m = make_instance(4);
  const auto orders = make_orders(m, 24, 13);
  BatchEvaluator serial(m, 1);
  const auto baseline = serial.evaluate(orders);
  for (const std::size_t threads : {2u, 4u}) {
    BatchEvaluator parallel(m, threads);
    EXPECT_EQ(parallel.num_workers(), threads);
    expect_outcomes_equal(parallel.evaluate(orders), baseline);
    // Warm contexts (arbitrary interleaving history) must not change results.
    expect_outcomes_equal(parallel.evaluate(orders), baseline);
  }
}

TEST(BatchEvaluator, FitnessConvenienceMatchesEvaluate) {
  const SystemModel m = make_instance(5);
  const auto orders = make_orders(m, 12, 17);
  BatchEvaluator evaluator(m, 2);
  const auto outcomes = evaluator.evaluate(orders);
  const auto fitness = evaluator.evaluate_fitness(orders);
  ASSERT_EQ(fitness.size(), outcomes.size());
  for (std::size_t i = 0; i < fitness.size(); ++i) {
    EXPECT_EQ(fitness[i].total_worth, outcomes[i].fitness.total_worth);
    EXPECT_EQ(fitness[i].slackness, outcomes[i].fitness.slackness);
  }
}

TEST(BatchEvaluator, ForEachWithIndexedStreamsIsDeterministic) {
  const SystemModel m = make_instance(6);
  constexpr std::size_t kItems = 16;
  constexpr std::uint64_t kSeed = 99;
  auto run = [&](std::size_t threads) {
    std::vector<std::uint64_t> values(kItems);
    BatchEvaluator evaluator(m, threads);
    evaluator.for_each(kItems, [&](std::size_t i, DecodeContext&) {
      util::Rng item_rng = util::Rng::stream(kSeed, i);
      values[i] = item_rng();
    });
    return values;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(3), serial);
}

TEST(BatchEvaluator, ForEachJoinsEveryWorkerBeforeRethrowing) {
  // When an item throws, the other workers must be joined before the
  // exception reaches the caller: they pull from for_each's stack cursor and
  // call a fn that may die with the caller's frame.  Item 0 throws once some
  // other item is in flight; every other item sleeps inside the counter.
  using namespace std::chrono_literals;
  const SystemModel m = make_instance(9);
  constexpr std::size_t kItems = 24;
  std::atomic<int> in_flight{0};
  std::atomic<std::size_t> finished{0};
  BatchEvaluator evaluator(m, 4);
  int in_flight_at_catch = -1;
  try {
    evaluator.for_each(kItems, [&](std::size_t i, DecodeContext&) {
      if (i == 0) {
        const auto deadline = std::chrono::steady_clock::now() + 2s;
        while (in_flight.load() == 0 && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        throw std::runtime_error("item 0");
      }
      in_flight.fetch_add(1);
      std::this_thread::sleep_for(10ms);
      in_flight.fetch_sub(1);
      finished.fetch_add(1);
    });
  } catch (const std::runtime_error&) {
    in_flight_at_catch = in_flight.load();
  }
  EXPECT_EQ(in_flight_at_catch, 0);
  EXPECT_EQ(finished.load(), kItems - 1);
}

TEST(BatchEvaluator, ZeroThreadsUsesHardwareConcurrency) {
  const SystemModel m = make_instance(8);
  BatchEvaluator evaluator(m, 0);
  EXPECT_GE(evaluator.num_workers(), 1u);
  const auto orders = make_orders(m, 4, 21);
  BatchEvaluator serial(m, 1);
  expect_outcomes_equal(evaluator.evaluate(orders), serial.evaluate(orders));
}

}  // namespace
}  // namespace tsce::core
