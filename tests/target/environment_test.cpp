// The host-side plant models (paper: "the environment simulator runs on
// the host computer and exchanges sensor/actuator values with the
// workload at every iteration").
#include "target/environment.h"

#include <gtest/gtest.h>

#include <any>
#include <functional>
#include <string>
#include <vector>

#include "target/io_map.h"

namespace goofi::target {
namespace {

sim::Memory MakeIoMemory() {
  sim::Memory memory;
  EXPECT_TRUE(
      memory.AddSegment({"io", kIoBase, kIoSize, true, true, false, true})
          .ok());
  return memory;
}

std::uint32_t ReadIo(const sim::Memory& memory, std::uint32_t offset) {
  std::uint32_t value = 0;
  EXPECT_TRUE(memory.PeekWord(kIoBase + offset, &value));
  return value;
}

TEST(EnvironmentTest, FactoryKnowsTheEngineAndNothingElse) {
  auto engine = MakeEnvironment("engine");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value()->name(), "engine");
  EXPECT_FALSE(MakeEnvironment("wind_tunnel").ok());
  EXPECT_FALSE(MakeEnvironment("").ok());
}

TEST(EnvironmentTest, ResetPrimesTheSensorPage) {
  sim::Memory memory = MakeIoMemory();
  EngineEnvironment engine;
  engine.Reset(memory);
  EXPECT_GT(ReadIo(memory, kIoInOffset), 0u);  // initial shaft speed
  EXPECT_EQ(ReadIo(memory, kIoOutOffset), 0u);
  EXPECT_EQ(ReadIo(memory, kIoIterOffset), 0u);
  EXPECT_TRUE(engine.outputs().empty());
}

TEST(EnvironmentTest, EveryIterationRecordsTheActuatorCommand) {
  sim::Memory memory = MakeIoMemory();
  EngineEnvironment engine;
  engine.Reset(memory);
  for (std::uint32_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(memory.PokeWord(kIoBase + kIoOutOffset, 400 + i));
    ASSERT_TRUE(engine.OnIterationEnd(memory));
    ASSERT_EQ(engine.outputs().size(), i);
    EXPECT_EQ(engine.outputs().back(), 400 + i);
    EXPECT_EQ(ReadIo(memory, kIoIterOffset), i);
  }
}

TEST(EnvironmentTest, PlantRespondsToTheActuator) {
  sim::Memory memory = MakeIoMemory();
  EngineEnvironment engine;
  engine.Reset(memory);
  const std::int32_t initial = engine.speed();
  // Full throttle spins the shaft up.
  ASSERT_TRUE(memory.PokeWord(kIoBase + kIoOutOffset, 1000));
  ASSERT_TRUE(engine.OnIterationEnd(memory));
  EXPECT_GT(engine.speed(), initial);
  // The new speed is on the sensor page for the next iteration.
  EXPECT_EQ(ReadIo(memory, kIoInOffset),
            static_cast<std::uint32_t>(engine.speed()));
}

TEST(EnvironmentTest, ZeroThrottleNeverDrivesSpeedNegative) {
  sim::Memory memory = MakeIoMemory();
  EngineEnvironment engine;
  engine.Reset(memory);
  ASSERT_TRUE(memory.PokeWord(kIoBase + kIoOutOffset, 0));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.OnIterationEnd(memory));
    ASSERT_GE(engine.speed(), 0);
  }
  EXPECT_EQ(engine.speed(), 0);  // coasted to a stop
}

TEST(EnvironmentTest, LoadDisturbanceIsASquareWave) {
  // With the actuator held constant, the speed trajectory must change
  // when the load steps at iteration 8 — the disturbance is what keeps
  // the controller exercised over the mission.
  sim::Memory memory = MakeIoMemory();
  EngineEnvironment engine;
  engine.Reset(memory);
  ASSERT_TRUE(memory.PokeWord(kIoBase + kIoOutOffset, 300));
  std::vector<std::int32_t> speeds;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(engine.OnIterationEnd(memory));
    speeds.push_back(engine.speed());
  }
  // speeds[7] is computed after the load has already stepped up, so
  // sample a delta from well inside each phase: the light-load half
  // spins the shaft up, the heavy-load half drags it back down.
  const std::int32_t delta_before = speeds[5] - speeds[4];
  const std::int32_t delta_after = speeds[10] - speeds[9];
  EXPECT_GT(delta_before, 0);
  EXPECT_LT(delta_after, 0);
  EXPECT_NE(delta_before, delta_after);
}

TEST(EnvironmentTest, TwoInstancesEvolveIdentically) {
  sim::Memory memory_a = MakeIoMemory();
  sim::Memory memory_b = MakeIoMemory();
  EngineEnvironment a, b;
  a.Reset(memory_a);
  b.Reset(memory_b);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(memory_a.PokeWord(kIoBase + kIoOutOffset, 350 + i));
    ASSERT_TRUE(memory_b.PokeWord(kIoBase + kIoOutOffset, 350 + i));
    ASSERT_TRUE(a.OnIterationEnd(memory_a));
    ASSERT_TRUE(b.OnIterationEnd(memory_b));
    ASSERT_EQ(a.speed(), b.speed());
  }
  EXPECT_EQ(a.outputs(), b.outputs());
}

TEST(EnvironmentTest, ResetRestartsThePlantFromScratch) {
  sim::Memory memory = MakeIoMemory();
  EngineEnvironment engine;
  engine.Reset(memory);
  const std::int32_t initial = engine.speed();
  ASSERT_TRUE(memory.PokeWord(kIoBase + kIoOutOffset, 900));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.OnIterationEnd(memory));
  }
  ASSERT_NE(engine.speed(), initial);
  engine.Reset(memory);
  EXPECT_EQ(engine.speed(), initial);
  EXPECT_TRUE(engine.outputs().empty());
  EXPECT_EQ(ReadIo(memory, kIoIterOffset), 0u);
}

// An engine after one exchange per actuator command. From the initial
// speed, an actuator of 60000 or more saturates the shaft at its
// maximum, so two histories that differ only in such commands end at
// the same speed.
EngineEnvironment RunEngine(const std::vector<std::uint32_t>& actuators) {
  sim::Memory memory = MakeIoMemory();
  EngineEnvironment engine;
  engine.Reset(memory);
  for (const std::uint32_t actuator : actuators) {
    EXPECT_TRUE(memory.PokeWord(kIoBase + kIoOutOffset, actuator));
    EXPECT_TRUE(engine.OnIterationEnd(memory));
  }
  return engine;
}

TEST(EnvironmentTest, ConvergenceMatchComparesSpeedCountAndLaterOutputs) {
  const EngineEnvironment live = RunEngine({65535, 500, 500});
  EXPECT_TRUE(live.MatchesState(live.CaptureState(), 0));

  // Differs below outputs_from only, at the same speed: a match from 1,
  // not from 0.
  const EngineEnvironment early = RunEngine({60000, 500, 500});
  ASSERT_EQ(early.speed(), live.speed());
  EXPECT_TRUE(live.MatchesState(early.CaptureState(), 1));
  EXPECT_FALSE(live.MatchesState(early.CaptureState(), 0));

  // The same outputs from 1 on, another speed.
  const EngineEnvironment slower = RunEngine({1000, 500, 500});
  ASSERT_NE(slower.speed(), live.speed());
  EXPECT_FALSE(live.MatchesState(slower.CaptureState(), 1));

  // One more exchange: the step and the output count differ.
  EXPECT_FALSE(
      live.MatchesState(RunEngine({65535, 500, 500, 500}).CaptureState(), 1));

  // The same speed, step and count; only the last output differs.
  const EngineEnvironment saturated = RunEngine({65535, 500, 65535});
  const EngineEnvironment last = RunEngine({65535, 500, 60000});
  ASSERT_EQ(last.speed(), saturated.speed());
  EXPECT_FALSE(saturated.MatchesState(last.CaptureState(), 2));
  EXPECT_TRUE(saturated.MatchesState(last.CaptureState(), 3));
}

TEST(EnvironmentTest, EngineStateMatchComparesEachFieldApart) {
  const EngineEnvironment live = RunEngine({65535, 500, 500});
  const std::any captured = live.CaptureState();
  const auto* golden = std::any_cast<EngineEnvironment::State>(&captured);
  ASSERT_NE(golden, nullptr);
  auto matches_after =
      [&](const std::function<void(EngineEnvironment::State&)>& change,
          std::size_t outputs_from) {
        EngineEnvironment::State changed = *golden;
        change(changed);
        return live.MatchesState(changed, outputs_from);
      };
  using State = EngineEnvironment::State;
  EXPECT_TRUE(matches_after([](State&) {}, 1));
  EXPECT_FALSE(matches_after([](State& s) { ++s.speed; }, 1));
  EXPECT_FALSE(matches_after([](State& s) { ++s.step; }, 1));
  auto outputs_after = [](const std::function<void(std::vector<std::uint32_t>&)>&
                              change) {
    return [change](State& s) {
      std::vector<std::uint32_t> outputs = s.outputs.ToVector();
      change(outputs);
      s.outputs = sim::WordLog::Prefix(std::move(outputs));
    };
  };
  using Words = std::vector<std::uint32_t>;
  EXPECT_FALSE(matches_after(outputs_after([](Words& w) { w.push_back(0); }), 1));
  EXPECT_FALSE(matches_after(outputs_after([](Words& w) { w[1] ^= 1; }), 1));
  EXPECT_FALSE(matches_after(outputs_after([](Words& w) { w[2] ^= 1; }), 1));
  EXPECT_TRUE(matches_after(outputs_after([](Words& w) { w[0] ^= 1; }), 1));
  EXPECT_FALSE(live.MatchesState(std::any{}, 1));
  EXPECT_FALSE(live.MatchesState(std::string("engine"), 1));
}

TEST(EnvironmentTest, RestoreReinstatesTheEngineAndRejectsForeignState) {
  const EngineEnvironment live = RunEngine({900, 450, 65535});
  EngineEnvironment restored;
  ASSERT_TRUE(restored.RestoreState(live.CaptureState()).ok());
  EXPECT_EQ(restored.speed(), live.speed());
  EXPECT_EQ(restored.outputs(), live.outputs());
  EXPECT_TRUE(restored.MatchesState(live.CaptureState(), 0));

  EXPECT_EQ(restored.RestoreState(std::any{}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(restored.RestoreState(std::vector<std::uint8_t>(24)).code(),
            ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace goofi::target
