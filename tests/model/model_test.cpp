#include "model/system_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "testing/builders.hpp"

namespace tsce::model {
namespace {

TEST(Application, AveragesAcrossMachines) {
  Application a;
  a.nominal_time_s = {2.0, 4.0, 6.0};
  a.nominal_util = {0.2, 0.4, 0.6};
  EXPECT_DOUBLE_EQ(a.avg_time_s(), 4.0);
  EXPECT_DOUBLE_EQ(a.avg_util(), 0.4);
  EXPECT_DOUBLE_EQ(a.cpu_work(1), 1.6);
}

TEST(Application, EmptyAveragesAreZero) {
  Application a;
  EXPECT_DOUBLE_EQ(a.avg_time_s(), 0.0);
  EXPECT_DOUBLE_EQ(a.avg_util(), 0.0);
}

TEST(Worth, FactorValues) {
  EXPECT_EQ(worth_value(Worth::kLow), 1);
  EXPECT_EQ(worth_value(Worth::kMedium), 10);
  EXPECT_EQ(worth_value(Worth::kHigh), 100);
}

TEST(SystemModel, BuilderProducesValidModel) {
  const SystemModel m = testing::two_machine_system();
  EXPECT_EQ(m.num_machines(), 2u);
  EXPECT_EQ(m.num_strings(), 2u);
  EXPECT_EQ(m.num_apps(), 4u);
  EXPECT_EQ(m.total_worth_available(), 110);
  EXPECT_TRUE(m.validate().empty());
}

TEST(SystemModel, BuilderHomogeneousAppReplicatesPerMachine) {
  const SystemModel m = testing::two_machine_system();
  const auto& app = m.strings[0].apps[0];
  ASSERT_EQ(app.nominal_time_s.size(), 2u);
  EXPECT_DOUBLE_EQ(app.nominal_time_s[0], app.nominal_time_s[1]);
  EXPECT_DOUBLE_EQ(app.nominal_util[0], app.nominal_util[1]);
}

TEST(SystemModel, ValidateCatchesBadPeriod) {
  SystemModel m = testing::two_machine_system();
  m.strings[0].period_s = 0.0;
  const auto problems = m.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.front().find("period"), std::string::npos);
}

TEST(SystemModel, ValidateCatchesBadUtilization) {
  SystemModel m = testing::two_machine_system();
  m.strings[1].apps[0].nominal_util[0] = 1.5;
  EXPECT_FALSE(m.validate().empty());
  m.strings[1].apps[0].nominal_util[0] = 0.0;
  EXPECT_FALSE(m.validate().empty());
}

TEST(SystemModel, ValidateCatchesSizeMismatch) {
  SystemModel m = testing::two_machine_system();
  m.strings[0].apps[0].nominal_time_s.pop_back();
  EXPECT_FALSE(m.validate().empty());
}

TEST(SystemModel, ValidateCatchesBadWorth) {
  SystemModel m = testing::two_machine_system();
  m.strings[0].worth = static_cast<Worth>(7);
  EXPECT_FALSE(m.validate().empty());
}

TEST(SystemModel, ValidateCatchesEmptyString) {
  SystemModel m = testing::two_machine_system();
  m.strings[0].apps.clear();
  EXPECT_FALSE(m.validate().empty());
}

TEST(SystemModel, ValidateCatchesNegativeOutput) {
  SystemModel m = testing::two_machine_system();
  m.strings[0].edges[0].kbytes = -1.0;
  EXPECT_FALSE(m.validate().empty());
}

TEST(SystemModelBuilder, BuildThrowsOnInvalid) {
  SystemModelBuilder builder(2);
  builder.begin_string(/*period=*/-1.0, /*latency=*/10.0);
  builder.add_app(1.0, 0.5);
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(SystemModelBuilder, AddAppBeforeStringThrows) {
  SystemModelBuilder builder(2);
  EXPECT_THROW(builder.add_app(1.0, 0.5), std::logic_error);
}

TEST(SystemModelBuilder, MachineNames) {
  SystemModel m = SystemModelBuilder(2)
                      .machine_name(0, "sonar-proc")
                      .machine_name(1, "tracker")
                      .begin_string(5.0, 10.0)
                      .add_app(1.0, 0.5)
                      .build();
  ASSERT_EQ(m.machine_names.size(), 2u);
  EXPECT_EQ(m.machine_names[0], "sonar-proc");
  EXPECT_EQ(m.machine_names[1], "tracker");
}

TEST(Types, UnitConversions) {
  EXPECT_DOUBLE_EQ(kbytes_to_megabits(100.0), 0.8);
  EXPECT_DOUBLE_EQ(transfer_seconds(100.0, 8.0), 0.1);
  EXPECT_DOUBLE_EQ(transfer_seconds(100.0, kInfiniteBandwidth), 0.0);
}

}  // namespace
}  // namespace tsce::model
