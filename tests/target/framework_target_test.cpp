// FrameworkTarget (paper Fig. 3 porting skeleton) tests, plus the
// TEST_P bodies of the target-agnostic conformance contract declared in
// conformance.h. The contract is instantiated here for the skeleton
// itself and for a minimal one-override port of it; thor_rd_target_test
// instantiates the same contract for the full Thor RD board.
#include "target/framework_target.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "conformance.h"

namespace goofi::target {
namespace {

using LocationInfo = TargetSystemInterface::LocationInfo;

// =====================================================================
// The conformance contract. Everything below TEST_P uses only the
// abstract TargetSystemInterface — never a concrete target type.
// =====================================================================

TEST_P(TargetConformanceTest, AdvertisesInjectableLocations) {
  auto target = GetParam().make();
  const std::vector<LocationInfo> locations = target->ListLocations();
  ASSERT_FALSE(locations.empty());
  std::set<std::string> names;
  bool any_writable = false;
  for (const LocationInfo& location : locations) {
    EXPECT_TRUE(names.insert(location.name).second)
        << "duplicate location name " << location.name;
    if (location.kind == LocationInfo::Kind::kScanElement) {
      EXPECT_GT(location.width_bits, 0u) << location.name;
      EXPECT_FALSE(location.chain.empty()) << location.name;
    } else {
      EXPECT_GT(location.size, 0u) << location.name;
    }
    any_writable = any_writable || location.writable;
  }
  EXPECT_TRUE(any_writable);
}

TEST_P(TargetConformanceTest, ReferenceRunIsDeterministic) {
  auto target = GetParam().make();
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const Observation first = target->TakeObservation();
  EXPECT_FALSE(first.fault_was_injected);
  EXPECT_FALSE(first.chain_images.empty());
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const Observation second = target->TakeObservation();
  EXPECT_EQ(first.Serialize(), second.Serialize());
}

TEST_P(TargetConformanceTest, ScifiExperimentInjectsAtTrigger) {
  auto target = GetParam().make();
  ExperimentSpec spec;
  spec.name = "conformance-scifi";
  spec.technique = Technique::kScifi;
  spec.trigger = GetParam().trigger;
  spec.targets = {GetParam().writable_fault};
  target->set_experiment(spec);
  ASSERT_TRUE(target->RunExperiment().ok());
  const Observation observation = target->TakeObservation();
  EXPECT_TRUE(observation.fault_was_injected);
  EXPECT_FALSE(observation.chain_images.empty());
  // Whatever happened, the run must have ended for a defined reason.
  EXPECT_LE(static_cast<int>(observation.stop_reason),
            static_cast<int>(sim::StopReason::kBudgetExhausted));
}

TEST_P(TargetConformanceTest, ObserveOnlyLocationRejectsInjection) {
  if (GetParam().readonly_location.empty()) {
    GTEST_SKIP() << "target advertises no observe-only locations";
  }
  auto target = GetParam().make();
  ExperimentSpec spec;
  spec.technique = Technique::kScifi;
  spec.trigger = GetParam().trigger;
  spec.targets = {{GetParam().readonly_location, 0}};
  target->set_experiment(spec);
  EXPECT_FALSE(target->RunExperiment().ok());
}

TEST_P(TargetConformanceTest, ExperimentLeavesTargetReusable) {
  auto target = GetParam().make();
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const std::string golden = target->TakeObservation().Serialize();

  ExperimentSpec spec;
  spec.technique = Technique::kScifi;
  spec.trigger = GetParam().trigger;
  spec.targets = {GetParam().writable_fault};
  target->set_experiment(spec);
  ASSERT_TRUE(target->RunExperiment().ok());
  (void)target->TakeObservation();

  // A fresh reference run on the same instance must reproduce the
  // golden observation exactly: experiments may not leak state.
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  EXPECT_EQ(golden, target->TakeObservation().Serialize());
}

TEST_P(TargetConformanceTest, TakeObservationResetsTheSlate) {
  auto target = GetParam().make();
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const Observation taken = target->TakeObservation();
  EXPECT_FALSE(taken.chain_images.empty());
  EXPECT_TRUE(target->observation().chain_images.empty());
  EXPECT_EQ(target->observation().instructions, 0u);
}

// =====================================================================
// Instantiations for the skeleton and for a minimal port of it.
// =====================================================================

ConformanceParam SkeletonParam() {
  ConformanceParam param;
  param.label = "FrameworkSkeleton";
  param.make = [] { return std::make_unique<FrameworkTarget>(); };
  param.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  param.trigger.count = 10;
  param.writable_fault = {"counter1", 7};
  param.readonly_location = "machine_id";
  return param;
}

// The smallest possible port: override one identity and inherit every
// operation. Proves a port stays driveable while built up incrementally.
class RenamedPort : public FrameworkTarget {
 public:
  const std::string& target_name() const override {
    static const std::string kName = "renamed_port";
    return kName;
  }
};

ConformanceParam RenamedPortParam() {
  ConformanceParam param = SkeletonParam();
  param.label = "RenamedPort";
  param.make = [] { return std::make_unique<RenamedPort>(); };
  return param;
}

INSTANTIATE_TEST_SUITE_P(Framework, TargetConformanceTest,
                         ::testing::Values(SkeletonParam(),
                                           RenamedPortParam()),
                         ConformanceParamName);

// =====================================================================
// Skeleton-specific behaviour.
// =====================================================================

TEST(FrameworkTargetTest, ReferenceRunEmitsTheCounterSum) {
  FrameworkTarget target;
  ASSERT_TRUE(target.MakeReferenceRun().ok());
  const Observation& observation = target.observation();
  EXPECT_EQ(observation.stop_reason, sim::StopReason::kHalted);
  EXPECT_EQ(observation.instructions, 64u);
  ASSERT_EQ(observation.emitted.size(), 2u);
  EXPECT_EQ(observation.emitted[0], 64u * 65u / 2u);  // sum 1..64
}

TEST(FrameworkTargetTest, HighBitFlipTripsTheRangeEdm) {
  FrameworkTarget target;
  ExperimentSpec spec;
  spec.technique = Technique::kScifi;
  spec.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  spec.trigger.count = 10;
  spec.targets = {{"counter0", 30}};  // way above the legal ceiling
  target.set_experiment(spec);
  ASSERT_TRUE(target.RunExperiment().ok());
  const Observation& observation = target.observation();
  EXPECT_TRUE(observation.fault_was_injected);
  EXPECT_EQ(observation.stop_reason, sim::StopReason::kEdm);
  ASSERT_TRUE(observation.edm.has_value());
  EXPECT_EQ(observation.edm->type, sim::EdmType::kAssertion);
}

TEST(FrameworkTargetTest, LowBitFlipCorruptsTheSumSilently) {
  FrameworkTarget target;
  ASSERT_TRUE(target.MakeReferenceRun().ok());
  const std::vector<std::uint32_t> golden = target.observation().emitted;

  ExperimentSpec spec;
  spec.technique = Technique::kScifi;
  spec.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  spec.trigger.count = 10;
  spec.targets = {{"counter0", 0}};
  target.set_experiment(spec);
  ASSERT_TRUE(target.RunExperiment().ok());
  const Observation& observation = target.observation();
  // A one-bit nudge stays under the EDM ceiling but corrupts the sum.
  EXPECT_EQ(observation.stop_reason, sim::StopReason::kHalted);
  ASSERT_EQ(observation.emitted.size(), 2u);
  EXPECT_NE(observation.emitted[0], golden[0]);
}

TEST(FrameworkTargetTest, TriggerPastTheEndMeansNoInjection) {
  FrameworkTarget target;
  ExperimentSpec spec;
  spec.technique = Technique::kScifi;
  spec.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  spec.trigger.count = 10'000;  // beyond the 64-step workload
  spec.targets = {{"counter0", 30}};
  target.set_experiment(spec);
  ASSERT_TRUE(target.RunExperiment().ok());
  EXPECT_FALSE(target.observation().fault_was_injected);
  EXPECT_EQ(target.observation().stop_reason, sim::StopReason::kHalted);
}

TEST(FrameworkTargetTest, UnknownLocationIsNotFound) {
  FrameworkTarget target;
  ExperimentSpec spec;
  spec.technique = Technique::kScifi;
  spec.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  spec.trigger.count = 10;
  spec.targets = {{"bogus", 0}};
  target.set_experiment(spec);
  EXPECT_EQ(target.RunExperiment().code(), ErrorCode::kNotFound);

  spec.targets = {{"counter9", 0}};  // matches the naming scheme but
  target.set_experiment(spec);       // names a counter that isn't there
  EXPECT_EQ(target.RunExperiment().code(), ErrorCode::kNotFound);

  spec.targets = {{"counter1", 40}};  // a real counter, impossible bit
  target.set_experiment(spec);
  EXPECT_EQ(target.RunExperiment().code(), ErrorCode::kOutOfRange);
}

TEST(FrameworkTargetTest, RuntimeSwifiFlipsLiveState) {
  FrameworkTarget target;
  ASSERT_TRUE(target.MakeReferenceRun().ok());
  const std::vector<std::uint32_t> golden = target.observation().emitted;

  ExperimentSpec spec;
  spec.technique = Technique::kSwifiRuntime;
  spec.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  spec.trigger.count = 32;
  spec.targets = {{"counter0", 2}};
  target.set_experiment(spec);
  ASSERT_TRUE(target.RunExperiment().ok());
  EXPECT_TRUE(target.observation().fault_was_injected);
  ASSERT_EQ(target.observation().emitted.size(), 2u);
  EXPECT_NE(target.observation().emitted[0], golden[0]);
}

TEST(FrameworkTargetTest, RestoreRejectsASnapshotWithoutItsMachineState) {
  FrameworkTarget target;
  ASSERT_TRUE(target.MakeReferenceRun().ok());
  auto snapshot = target.CaptureSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(target.RestoreSnapshot(*snapshot).ok());

  EXPECT_EQ(target.RestoreSnapshot(sim::Snapshot{}).code(),
            ErrorCode::kInvalidArgument);
  sim::Snapshot other_key = *snapshot;
  other_key.extras["environment"] = other_key.extras.at("framework");
  other_key.extras.erase("framework");
  EXPECT_EQ(target.RestoreSnapshot(other_key).code(),
            ErrorCode::kInvalidArgument);
  sim::Snapshot other_type = *snapshot;
  other_type.extras["framework"] = std::string("framework");
  EXPECT_EQ(target.RestoreSnapshot(other_type).code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace goofi::target
