/// Property test for the arena-backed UtilizationState (DESIGN.md §12):
/// random interleaved add_string / undo_add / snapshot / restore sequences
/// must stay bit-identical to a from-scratch from_allocation
/// rebuild that replays the surviving deployment order.  Every utilization is
/// maintained as a left fold over its resident slab, so the live state, the
/// replayed rebuild, and a restored snapshot can never drift apart — not even
/// in the last ulp.  The id-ordered from_allocation overload agrees up to
/// float re-association only (different fold order), which is also pinned
/// down here so the contract stays documented by a failing test if it drifts.

#include "analysis/utilization.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::analysis {
namespace {

using model::Allocation;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Everything needed to resume (and cross-check) a saved state: the arena
/// snapshot plus the shadow allocation / deployment order that produced it,
/// and the raw utilization values observed at capture time.
struct SavedState {
  util::ArenaSnapshot snap;
  Allocation alloc;
  std::vector<StringId> deploy_order;
  std::vector<double> machine_util;
  std::vector<double> route_util;
  double slackness = 0.0;
};

class Driver {
 public:
  Driver(const SystemModel& m, std::uint64_t seed)
      : m_(m), alloc_(m), util_(m), rng_(seed) {}

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      const auto r = rng_.bounded(10);
      if (r < 5) {
        add_random_string();
      } else if (r < 7) {
        undo_last_add();
      } else if (r < 9 || saved_.empty()) {
        save_snapshot();
      } else {
        restore_random_snapshot();
      }
      verify();
    }
  }

 private:
  void add_random_string() {
    std::vector<StringId> undeployed;
    for (std::size_t k = 0; k < m_.num_strings(); ++k) {
      if (!alloc_.deployed(static_cast<StringId>(k))) {
        undeployed.push_back(static_cast<StringId>(k));
      }
    }
    if (undeployed.empty()) return;
    const StringId k = undeployed[rng_.bounded(undeployed.size())];
    const auto& s = m_.strings[static_cast<std::size_t>(k)];
    for (std::size_t i = 0; i < s.size(); ++i) {
      alloc_.assign(k, static_cast<AppIndex>(i),
                    static_cast<MachineId>(rng_.bounded(m_.num_machines())));
    }
    alloc_.set_deployed(k, true);
    util_.add_string(alloc_, k);
    deploy_order_.push_back(k);
    last_added_ = k;
  }

  void undo_last_add() {
    // Only the most recent add can be undone, and a restore forgets it.
    if (last_added_ == model::kInvalidId) return;
    util_.undo_add(last_added_);
    deploy_order_.pop_back();
    alloc_.clear_string(last_added_);
    last_added_ = model::kInvalidId;
  }

  void save_snapshot() {
    if (saved_.size() >= 8) return;  // bound memory, keep restores meaningful
    SavedState s{.snap = {},
                 .alloc = alloc_,
                 .deploy_order = deploy_order_,
                 .machine_util = {},
                 .route_util = {},
                 .slackness = util_.slackness()};
    util_.snapshot_into(s.snap);
    capture_utils(s.machine_util, s.route_util);
    saved_.push_back(std::move(s));
  }

  void restore_random_snapshot() {
    const SavedState& s = saved_[rng_.bounded(saved_.size())];
    util_.restore_from(s.snap);
    alloc_ = s.alloc;
    deploy_order_ = s.deploy_order;
    last_added_ = model::kInvalidId;
    // The restored state must reproduce the captured observables exactly —
    // the snapshot protocol is a byte image, not a recomputation.
    std::vector<double> machine_util;
    std::vector<double> route_util;
    capture_utils(machine_util, route_util);
    for (std::size_t j = 0; j < machine_util.size(); ++j) {
      ASSERT_TRUE(bit_equal(machine_util[j], s.machine_util[j])) << "machine " << j;
    }
    for (std::size_t r = 0; r < route_util.size(); ++r) {
      ASSERT_TRUE(bit_equal(route_util[r], s.route_util[r])) << "route " << r;
    }
    ASSERT_TRUE(bit_equal(util_.slackness(), s.slackness));
  }

  void capture_utils(std::vector<double>& machine_util,
                     std::vector<double>& route_util) const {
    const auto machines = static_cast<MachineId>(m_.num_machines());
    for (MachineId j = 0; j < machines; ++j) {
      machine_util.push_back(util_.machine_util(j));
    }
    for (MachineId j1 = 0; j1 < machines; ++j1) {
      for (MachineId j2 = 0; j2 < machines; ++j2) {
        route_util.push_back(util_.route_util(j1, j2));
      }
    }
  }

  void verify() const {
    // Bit-identical against the from-scratch rebuild replaying the surviving
    // deployment order (the fold-order invariant the decode engine relies on).
    const UtilizationState replay =
        UtilizationState::from_allocation(m_, alloc_, deploy_order_);
    // Id-ordered rebuild: same resident sets, possibly different fold order —
    // equal up to re-association.
    const UtilizationState id_order = UtilizationState::from_allocation(m_, alloc_);
    const auto machines = static_cast<MachineId>(m_.num_machines());
    for (MachineId j = 0; j < machines; ++j) {
      ASSERT_TRUE(bit_equal(util_.machine_util(j), replay.machine_util(j)))
          << "machine " << j;
      ASSERT_NEAR(util_.machine_util(j), id_order.machine_util(j), 1e-9);
      const auto live = util_.apps_on(j);
      const auto rebuilt = replay.apps_on(j);
      ASSERT_EQ(live.size(), rebuilt.size()) << "machine " << j;
      for (std::size_t i = 0; i < live.size(); ++i) {
        ASSERT_TRUE(live[i] == rebuilt[i]) << "machine " << j << " slot " << i;
      }
      for (MachineId j2 = 0; j2 < machines; ++j2) {
        ASSERT_TRUE(bit_equal(util_.route_util(j, j2), replay.route_util(j, j2)))
            << "route " << j << "->" << j2;
        ASSERT_NEAR(util_.route_util(j, j2), id_order.route_util(j, j2), 1e-9);
        const auto live_t = util_.transfers_on(j, j2);
        const auto rebuilt_t = replay.transfers_on(j, j2);
        ASSERT_EQ(live_t.size(), rebuilt_t.size());
        for (std::size_t i = 0; i < live_t.size(); ++i) {
          ASSERT_TRUE(live_t[i] == rebuilt_t[i]);
        }
      }
    }
    ASSERT_TRUE(bit_equal(util_.slackness(), replay.slackness()));
    ASSERT_TRUE(bit_equal(util_.max_machine_util(), replay.max_machine_util()));
    ASSERT_TRUE(bit_equal(util_.max_route_util(), replay.max_route_util()));
  }

  const SystemModel& m_;
  Allocation alloc_;
  UtilizationState util_;
  util::Rng rng_;
  std::vector<StringId> deploy_order_;
  StringId last_added_ = model::kInvalidId;
  std::vector<SavedState> saved_;
};

class UtilizationProperty : public ::testing::TestWithParam<workload::Scenario> {};

TEST_P(UtilizationProperty, InterleavedOpsMatchFromAllocationRebuild) {
  // Scale string counts down so the per-op full rebuild stays cheap; the
  // machine count and workload shape are the paper's.
  const auto cfg = workload::GeneratorConfig::for_scenario(GetParam(), 0.4);
  util::Rng model_rng(42);
  const SystemModel m = workload::generate(cfg, model_rng);
  for (std::uint64_t seed : {7u, 1234u}) {
    Driver driver(m, seed);
    driver.run(120);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, UtilizationProperty,
                         ::testing::Values(workload::Scenario::kHighlyLoaded,
                                           workload::Scenario::kQosLimited,
                                           workload::Scenario::kLightlyLoaded),
                         [](const auto& info) {
                           switch (info.param) {
                             case workload::Scenario::kHighlyLoaded: return "HighlyLoaded";
                             case workload::Scenario::kQosLimited: return "QosLimited";
                             case workload::Scenario::kLightlyLoaded: return "LightlyLoaded";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace tsce::analysis
