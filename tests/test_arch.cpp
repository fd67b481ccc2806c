// Tests for the architecture description: Table II configurations,
// Table III component/parameter mapping, and the event schema.

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>

#include "arch/component.hpp"
#include "arch/events.hpp"
#include "arch/params.hpp"
#include "util/error.hpp"

namespace autopower::arch {
namespace {

TEST(Params, FifteenConfigurations) {
  const auto& configs = boom_design_space();
  ASSERT_EQ(configs.size(), 15u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(configs[i].name(), "C" + std::to_string(i + 1));
  }
}

TEST(Params, TableIISpotChecks) {
  // Cross-checked against the paper's Table II.
  const auto& c1 = boom_config("C1");
  EXPECT_EQ(c1.value(HwParam::kFetchWidth), 4);
  EXPECT_EQ(c1.value(HwParam::kDecodeWidth), 1);
  EXPECT_EQ(c1.value(HwParam::kFetchBufferEntry), 5);
  EXPECT_EQ(c1.value(HwParam::kRobEntry), 16);
  EXPECT_EQ(c1.value(HwParam::kIntPhyRegister), 36);
  EXPECT_EQ(c1.value(HwParam::kCacheWay), 2);

  const auto& c9 = boom_config("C9");
  EXPECT_EQ(c9.value(HwParam::kRobEntry), 114);
  EXPECT_EQ(c9.value(HwParam::kMemFpIssueWidth), 2);
  EXPECT_EQ(c9.value(HwParam::kTlbEntry), 32);

  const auto& c15 = boom_config("C15");
  EXPECT_EQ(c15.value(HwParam::kFetchWidth), 8);
  EXPECT_EQ(c15.value(HwParam::kDecodeWidth), 5);
  EXPECT_EQ(c15.value(HwParam::kFetchBufferEntry), 40);
  EXPECT_EQ(c15.value(HwParam::kRobEntry), 140);
  EXPECT_EQ(c15.value(HwParam::kMshrEntry), 8);
  EXPECT_EQ(c15.value(HwParam::kICacheFetchBytes), 4);
}

TEST(Params, MonotoneScaleAcrossDesignSpace) {
  // The design space is ordered small -> large; key capacity parameters
  // never shrink drastically and the corners are the extremes.
  const auto& c1 = boom_config("C1");
  const auto& c15 = boom_config("C15");
  for (HwParam p : all_hw_params()) {
    EXPECT_LE(c1.value(p), c15.value(p))
        << hw_param_name(p) << " should grow from C1 to C15";
  }
}

TEST(Params, RobBankingStaysIntegral) {
  // The ROB SRAM floorplan relies on RobEntry % DecodeWidth == 0; the
  // paper's Table II design space satisfies it everywhere.
  for (const auto& cfg : boom_design_space()) {
    EXPECT_EQ(cfg.value(HwParam::kRobEntry) %
                  cfg.value(HwParam::kDecodeWidth),
              0)
        << cfg.name();
  }
}

TEST(Params, UnknownConfigThrows) {
  EXPECT_THROW((void)boom_config("C16"), util::InvalidArgument);
  EXPECT_THROW((void)boom_config(""), util::InvalidArgument);
}

TEST(Params, FeatureExtraction) {
  const auto& c1 = boom_config("C1");
  const auto all = c1.as_features();
  ASSERT_EQ(all.size(), kNumHwParams);
  EXPECT_DOUBLE_EQ(all[0], 4.0);  // FetchWidth

  const std::array params{HwParam::kDecodeWidth, HwParam::kRobEntry};
  const auto sub = c1.features_for(params);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub[0], 1.0);
  EXPECT_DOUBLE_EQ(sub[1], 16.0);
}

TEST(Params, NamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (HwParam p : all_hw_params()) {
    EXPECT_FALSE(hw_param_name(p).empty());
    names.insert(hw_param_name(p));
  }
  EXPECT_EQ(names.size(), kNumHwParams);
}

TEST(Components, TwentyTwoComponents) {
  EXPECT_EQ(all_components().size(), kNumComponents);
  std::set<std::string_view> names;
  for (ComponentKind c : all_components()) {
    EXPECT_FALSE(component_name(c).empty());
    names.insert(component_name(c));
  }
  EXPECT_EQ(names.size(), kNumComponents);
}

TEST(Components, TableIIIMappingSpotChecks) {
  // IFU: FetchWidth, DecodeWidth, FetchBufferEntry.
  const auto ifu = component_hw_params(ComponentKind::kIfu);
  ASSERT_EQ(ifu.size(), 3u);
  EXPECT_EQ(ifu[0], HwParam::kFetchWidth);
  EXPECT_EQ(ifu[1], HwParam::kDecodeWidth);
  EXPECT_EQ(ifu[2], HwParam::kFetchBufferEntry);

  // ROB: DecodeWidth, RobEntry.
  const auto rob = component_hw_params(ComponentKind::kRob);
  ASSERT_EQ(rob.size(), 2u);
  EXPECT_EQ(rob[0], HwParam::kDecodeWidth);
  EXPECT_EQ(rob[1], HwParam::kRobEntry);

  // DCacheMSHR: MSHREntry only.
  const auto mshr = component_hw_params(ComponentKind::kDCacheMshr);
  ASSERT_EQ(mshr.size(), 1u);
  EXPECT_EQ(mshr[0], HwParam::kMshrEntry);

  // Other Logic: all parameters.
  EXPECT_EQ(component_hw_params(ComponentKind::kOtherLogic).size(),
            kNumHwParams);
}

TEST(Components, EveryComponentHasParamsAndEvents) {
  for (ComponentKind c : all_components()) {
    EXPECT_FALSE(component_hw_params(c).empty())
        << component_name(c);
    EXPECT_FALSE(component_events(c).empty()) << component_name(c);
  }
}

TEST(Events, NamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kNumEvents; ++i) {
    const auto name = event_name(static_cast<EventKind>(i));
    EXPECT_FALSE(name.empty());
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kNumEvents);
}

TEST(Events, RateSemantics) {
  EventVector ev;
  EXPECT_DOUBLE_EQ(ev.rate(EventKind::kInstructions), 0.0);  // 0 cycles
  ev[EventKind::kCycles] = 100.0;
  ev[EventKind::kInstructions] = 150.0;
  EXPECT_DOUBLE_EQ(ev.rate(EventKind::kInstructions), 1.5);
  EXPECT_DOUBLE_EQ(ev.rate(EventKind::kCycles), 1.0);
}

TEST(Events, AccumulationAddsEverything) {
  EventVector a;
  a[EventKind::kCycles] = 50.0;
  a[EventKind::kLoads] = 10.0;
  a[EventKind::kRobOccupancy] = 500.0;  // occupancy integral
  EventVector b;
  b[EventKind::kCycles] = 50.0;
  b[EventKind::kLoads] = 30.0;
  b[EventKind::kRobOccupancy] = 1500.0;
  a += b;
  EXPECT_DOUBLE_EQ(a.cycles(), 100.0);
  EXPECT_DOUBLE_EQ(a[EventKind::kLoads], 40.0);
  // Average occupancy of the union: (500 + 1500) / 100 = 20.
  EXPECT_DOUBLE_EQ(a.rate(EventKind::kRobOccupancy), 20.0);
}

TEST(Events, ComponentEventFeaturesAlign) {
  EventVector ev;
  ev[EventKind::kCycles] = 10.0;
  ev[EventKind::kDispatchedUops] = 20.0;
  const auto features =
      component_event_features(ComponentKind::kRob, ev);
  const auto names = component_event_feature_names(ComponentKind::kRob);
  ASSERT_EQ(features.size(), names.size());
  // kDispatchedUops is the first ROB event.
  EXPECT_EQ(names[0], "E.DispatchedUops");
  EXPECT_DOUBLE_EQ(features[0], 2.0);
}

}  // namespace
}  // namespace autopower::arch
