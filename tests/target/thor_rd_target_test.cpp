// ThorRdTarget: the simulated Thor RD board behind the test card.
// Instantiates the target-agnostic conformance contract (TEST_P bodies
// in framework_target_test.cpp) for the rad-hard and commercial board
// variants, then pins down Thor-specific behaviour: the three
// techniques end-to-end, observe-only protection, detail logging and
// the engine-control mission.
#include "target/thor_rd_target.h"

#include <gtest/gtest.h>

#include "conformance.h"
#include "target/workloads.h"

namespace goofi::target {
namespace {

std::unique_ptr<ThorRdTarget> MakeLoadedTarget(
    const std::string& workload) {
  auto target = std::make_unique<ThorRdTarget>();
  auto spec = GetBuiltinWorkload(workload);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_TRUE(target->SetWorkload(std::move(spec.value())).ok());
  return target;
}

ConformanceParam ThorRdFibParam() {
  ConformanceParam param;
  param.label = "ThorRdFib";
  param.make = [] {
    return std::unique_ptr<TargetSystemInterface>(MakeLoadedTarget("fib"));
  };
  param.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  param.trigger.count = 10;
  param.writable_fault = {"cpu.regs.r2", 13};
  param.readonly_location = "cpu.chip_id";
  return param;
}

ConformanceParam ThorIsortParam() {
  ConformanceParam param;
  param.label = "ThorIsort";
  param.make = [] {
    std::unique_ptr<ThorRdTarget> target = MakeThorTarget();
    auto spec = GetBuiltinWorkload("isort");
    EXPECT_TRUE(spec.ok());
    EXPECT_TRUE(target->SetWorkload(std::move(spec.value())).ok());
    return std::unique_ptr<TargetSystemInterface>(std::move(target));
  };
  param.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  param.trigger.count = 50;
  param.writable_fault = {"cpu.regs.r7", 3};
  param.readonly_location = "cpu.edm_status";
  return param;
}

INSTANTIATE_TEST_SUITE_P(Thor, TargetConformanceTest,
                         ::testing::Values(ThorRdFibParam(),
                                           ThorIsortParam()),
                         ConformanceParamName);

ExperimentSpec AtInstret(std::uint64_t count, FaultTarget fault,
                         Technique technique = Technique::kScifi) {
  ExperimentSpec spec;
  spec.technique = technique;
  spec.trigger.kind = sim::Breakpoint::Kind::kInstretReached;
  spec.trigger.count = count;
  spec.targets = {std::move(fault)};
  return spec;
}

TEST(ThorRdTargetTest, AdvertisesScanElementsAndMemoryRanges) {
  auto target = MakeLoadedTarget("fib");
  bool saw_r2 = false, saw_chip_id = false, saw_code = false,
       saw_data = false;
  for (const auto& location : target->ListLocations()) {
    if (location.name == "cpu.regs.r2") {
      saw_r2 = true;
      EXPECT_TRUE(location.writable);
      EXPECT_EQ(location.chain, "internal");
      EXPECT_EQ(location.width_bits, 32u);
    } else if (location.name == "cpu.chip_id") {
      saw_chip_id = true;
      EXPECT_FALSE(location.writable);
    } else if (location.name.rfind("mem.code@", 0) == 0) {
      saw_code = true;
      EXPECT_EQ(location.category, "memory_code");
      EXPECT_GT(location.size, 0u);
    } else if (location.name.rfind("mem.data@", 0) == 0) {
      saw_data = true;
      EXPECT_EQ(location.category, "memory_data");
    }
  }
  EXPECT_TRUE(saw_r2);
  EXPECT_TRUE(saw_chip_id);
  EXPECT_TRUE(saw_code);
  EXPECT_TRUE(saw_data);
}

TEST(ThorRdTargetTest, ReferenceRunComputesFibonacci) {
  auto target = MakeLoadedTarget("fib");
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const Observation& observation = target->observation();
  EXPECT_EQ(observation.stop_reason, sim::StopReason::kHalted);
  ASSERT_EQ(observation.emitted.size(), 1u);
  EXPECT_EQ(observation.emitted[0], 10946u);  // fib(21)
  ASSERT_EQ(observation.output_region.size(), 4u);
}

TEST(ThorRdTargetTest, ScifiRegisterFlipDivergesFromReference) {
  auto target = MakeLoadedTarget("fib");
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const std::vector<std::uint32_t> golden = target->observation().emitted;

  target->set_experiment(AtInstret(10, {"cpu.regs.r2", 13}));
  ASSERT_TRUE(target->RunExperiment().ok());
  const Observation& observation = target->observation();
  EXPECT_TRUE(observation.fault_was_injected);
  ASSERT_EQ(observation.emitted.size(), 1u);
  EXPECT_NE(observation.emitted[0], golden[0]);
}

TEST(ThorRdTargetTest, LinkRetriesLandInTheObservationPerRun) {
  // A lossy host<->card link: every transferred word needs retries.
  // The per-run delta (not the card's cumulative counter) must land in
  // the observation, so each experiment logs its own link trouble.
  TestCardOptions lossy;
  lossy.link_fault_probability = 1.0;
  ThorRdTarget target(lossy);
  auto spec = GetBuiltinWorkload("fib");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(target.SetWorkload(std::move(spec.value())).ok());

  ASSERT_TRUE(target.MakeReferenceRun().ok());
  const std::uint64_t reference_retries =
      target.observation().link_words_retried;
  EXPECT_GT(reference_retries, 0u);

  target.set_experiment(AtInstret(10, {"cpu.regs.r2", 13}));
  ASSERT_TRUE(target.RunExperiment().ok());
  const Observation observation = target.TakeObservation();
  EXPECT_GT(observation.link_words_retried, 0u);
  // Per-run delta, not the cumulative card counter.
  EXPECT_LT(observation.link_words_retried,
            target.test_card().link_stats().words_retried);
  // And the stat survives the LoggedSystemState text codec.
  auto decoded = Observation::Deserialize(observation.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().link_words_retried,
            observation.link_words_retried);

  // A clean link records none.
  auto clean = MakeLoadedTarget("fib");
  ASSERT_TRUE(clean->MakeReferenceRun().ok());
  EXPECT_EQ(clean->observation().link_words_retried, 0u);
}

TEST(ThorRdTargetTest, RuntimeSwifiMatchesScifiForTheSameFlip) {
  // A transient register flip at the same trigger must corrupt the run
  // identically whether it arrives via the scan chains or the debug
  // port — the two techniques differ in mechanism, not effect.
  auto target = MakeLoadedTarget("fib");
  target->set_experiment(AtInstret(10, {"cpu.regs.r2", 13}));
  ASSERT_TRUE(target->RunExperiment().ok());
  const std::vector<std::uint32_t> scifi = target->observation().emitted;

  target->set_experiment(
      AtInstret(10, {"cpu.regs.r2", 13}, Technique::kSwifiRuntime));
  ASSERT_TRUE(target->RunExperiment().ok());
  EXPECT_EQ(target->observation().emitted, scifi);
}

TEST(ThorRdTargetTest, PreRuntimeSwifiCorruptsTheDownloadedImage) {
  auto target = MakeLoadedTarget("isort");
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const std::vector<std::uint8_t> golden =
      target->observation().output_region;
  ASSERT_FALSE(golden.empty());

  // Flip a bit of the first input word before execution starts.
  target->set_experiment(AtInstret(0, {"mem@0x00010000", 0},
                                   Technique::kSwifiPreRuntime));
  ASSERT_TRUE(target->RunExperiment().ok());
  const Observation& observation = target->observation();
  EXPECT_TRUE(observation.fault_was_injected);
  EXPECT_NE(observation.output_region, golden);
}

// The ISSUE's observe-only guarantee: injecting into a read-only scan
// position must fail AND must not perturb the captured state — the
// chain image on the target stays bit-identical to the one GOOFI read.
TEST(ThorRdTargetTest, ReadOnlyInjectionFailsWithoutTouchingTheChain) {
  auto target = MakeLoadedTarget("fib");
  target->set_experiment(AtInstret(10, {"cpu.chip_id", 0}));
  const Status status = target->RunExperiment();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kTargetFault);

  // readScanChain ran before the failing injectFault, so the captured
  // image is in the observation; the target must still hold it.
  const auto captured = target->observation().chain_images.find("internal");
  ASSERT_NE(captured, target->observation().chain_images.end());
  auto live = target->test_card().ReadChain("internal");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().ToHexString(), captured->second.ToHexString());
}

TEST(ThorRdTargetTest, MultiBitFaultsApplyEveryTarget) {
  auto target = MakeLoadedTarget("fib");
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const std::vector<std::uint32_t> golden = target->observation().emitted;

  ExperimentSpec spec = AtInstret(10, {"cpu.regs.r2", 13});
  spec.targets.push_back({"cpu.regs.r1", 5});
  target->set_experiment(spec);
  ASSERT_TRUE(target->RunExperiment().ok());
  EXPECT_TRUE(target->observation().fault_was_injected);
  EXPECT_NE(target->observation().emitted, golden);
}

TEST(ThorRdTargetTest, TriggerThatNeverFiresMeansNoInjection) {
  auto target = MakeLoadedTarget("fib");
  ExperimentSpec spec = AtInstret(0, {"cpu.regs.r2", 13});
  spec.trigger.kind = sim::Breakpoint::Kind::kPcEquals;
  spec.trigger.address = 0xFFFC;  // never executed
  spec.trigger.count = 1;
  target->set_experiment(spec);
  ASSERT_TRUE(target->RunExperiment().ok());
  const Observation& observation = target->observation();
  EXPECT_FALSE(observation.fault_was_injected);
  EXPECT_EQ(observation.stop_reason, sim::StopReason::kHalted);
  ASSERT_EQ(observation.emitted.size(), 1u);
  EXPECT_EQ(observation.emitted[0], 10946u);
}

TEST(ThorRdTargetTest, DetailModeCapturesOneImagePerInstruction) {
  auto target = MakeLoadedTarget("fib");
  target->set_logging_mode(LoggingMode::kDetail);
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const Observation& observation = target->observation();
  ASSERT_FALSE(observation.detail_trace.empty());
  EXPECT_EQ(observation.detail_trace.size(), observation.instructions);
  const std::size_t image_bits = observation.detail_trace[0].second.size();
  EXPECT_GT(image_bits, 0u);
  for (std::size_t i = 1; i < observation.detail_trace.size(); ++i) {
    EXPECT_LT(observation.detail_trace[i - 1].first,
              observation.detail_trace[i].first);
    EXPECT_EQ(observation.detail_trace[i].second.size(), image_bits);
  }
}

TEST(ThorRdTargetTest, EngineControlMissionCompletesFortyIterations) {
  auto target = MakeLoadedTarget("engine_control");
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const Observation& observation = target->observation();
  EXPECT_EQ(observation.stop_reason, sim::StopReason::kIterationLimit);
  EXPECT_EQ(observation.iterations, 40u);
  ASSERT_EQ(observation.env_outputs.size(), 40u);
  // The controller must actually drive the plant: actuator commands
  // settle to something non-zero against the load.
  EXPECT_NE(observation.env_outputs.back(), 0u);
  ASSERT_NE(target->environment(), nullptr);
  EXPECT_EQ(target->environment()->name(), "engine");
}

TEST(ThorRdTargetTest, PermanentStuckAtKeepsTheBitPinned) {
  auto target = MakeLoadedTarget("fib");
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  const std::vector<std::uint32_t> golden = target->observation().emitted;

  // Stuck-at-0 on r2 bit 0: Fibonacci parity is destroyed for good.
  ExperimentSpec spec = AtInstret(10, {"cpu.regs.r2", 0});
  spec.model.kind = FaultModel::Kind::kPermanentStuckAt;
  spec.model.stuck_to_one = false;
  target->set_experiment(spec);
  ASSERT_TRUE(target->RunExperiment().ok());
  const Observation& observation = target->observation();
  EXPECT_TRUE(observation.fault_was_injected);
  EXPECT_NE(observation.emitted, golden);
  const auto image = observation.chain_images.find("internal");
  ASSERT_NE(image, observation.chain_images.end());
}

TEST(ThorRdTargetTest, RejectsWorkloadsThatDoNotAssemble) {
  ThorRdTarget target;
  WorkloadSpec bad;
  bad.name = "bad";
  bad.assembly = "this is not assembly\n";
  EXPECT_FALSE(target.SetWorkload(bad).ok());
}

TEST(ThorRdTargetTest, ScifiIntoMemoryLocationIsRejected) {
  auto target = MakeLoadedTarget("fib");
  target->set_experiment(AtInstret(10, {"mem@0x00010000", 0}));
  const Status status = target->RunExperiment();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST(ThorRdTargetTest, RestoreRejectsASnapshotWithoutTheEnvironment) {
  auto plain = MakeLoadedTarget("isort");
  ASSERT_TRUE(plain->MakeReferenceRun().ok());
  auto snapshot = plain->CaptureSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  auto mission = MakeLoadedTarget("engine_control");
  ASSERT_TRUE(mission->MakeReferenceRun().ok());
  ASSERT_NE(mission->environment(), nullptr);
  EXPECT_EQ(mission->RestoreSnapshot(*snapshot).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ThorRdTargetTest, RestoreRejectsASnapshotWithoutCpuOrTapState) {
  auto target = MakeLoadedTarget("fib");
  ASSERT_TRUE(target->MakeReferenceRun().ok());
  auto snapshot = target->CaptureSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_TRUE(target->RestoreSnapshot(*snapshot).ok());

  sim::Snapshot no_cpu = *snapshot;
  no_cpu.cpu.reset();
  EXPECT_EQ(target->RestoreSnapshot(no_cpu).code(),
            ErrorCode::kInvalidArgument);
  sim::Snapshot no_tap = *snapshot;
  no_tap.tap.reset();
  EXPECT_EQ(target->RestoreSnapshot(no_tap).code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace goofi::target
