// Loads the toy-target shared library at run time and runs experiments
// against it — the reproduction's answer to extending GOOFI with new
// TargetSystemInterface classes without recompiling the tool.
#include "core/plugin.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/registry.h"
#include "target/thor_rd_target.h"

#ifndef GOOFI_TOY_PLUGIN_PATH
#error "build must define GOOFI_TOY_PLUGIN_PATH"
#endif

namespace goofi::core {
namespace {

TEST(RegistryTest, BuiltinTargets) {
  TargetRegistry registry;
  RegisterBuiltinTargets(registry);
  EXPECT_TRUE(registry.Has("thor_rd"));
  EXPECT_TRUE(registry.Has("thor"));
  EXPECT_TRUE(registry.Has("cache_hierarchy"));
  auto target = registry.Create("thor_rd");
  ASSERT_TRUE(target.ok());
  EXPECT_EQ((*target)->target_name(), "thor_rd");
  auto thor = registry.Create("thor");
  ASSERT_TRUE(thor.ok());
  EXPECT_EQ((*thor)->target_name(), "thor");
  EXPECT_EQ(registry.Create("missing").status().code(),
            ErrorCode::kNotFound);
  // Double registration of the same name is rejected...
  EXPECT_EQ(registry
                .Register("thor_rd",
                          []() {
                            return std::unique_ptr<
                                target::TargetSystemInterface>();
                          })
                .code(),
            ErrorCode::kAlreadyExists);
  // ...but RegisterBuiltinTargets itself is idempotent.
  RegisterBuiltinTargets(registry);
  EXPECT_EQ(registry.Names().size(), 3u);
}

TEST(RegistryTest, ThorLacksCacheParityCheckers) {
  // The predecessor board: cache faults are not parity-detected.
  auto thor = target::MakeThorTarget();
  EXPECT_FALSE(thor->test_card().cpu().config().edm.IsEnabled(
      sim::EdmType::kIcacheParity));
  EXPECT_FALSE(thor->test_card().cpu().config().edm.IsEnabled(
      sim::EdmType::kDcacheParity));
  // The scan-chain location space is identical: the test logic did not
  // change between Thor and Thor RD, only the checkers did.
  target::ThorRdTarget thor_rd;
  EXPECT_EQ(thor->ListLocations().size(),
            thor_rd.ListLocations().size());
}

// The process-wide registry starts out with the built-ins, as defaults
// a program may replace once (an instrumented subclass, say).
TEST(RegistryTest, ProcessRegistryStartsWithReplaceableBuiltins) {
  TargetRegistry& registry = TargetRegistry::Instance();
  EXPECT_TRUE(registry.Has("thor_rd"));
  EXPECT_TRUE(registry.Has("thor"));
  EXPECT_TRUE(registry.Has("cache_hierarchy"));
  const auto thor_rd = [] {
    return std::unique_ptr<target::TargetSystemInterface>(
        new target::ThorRdTarget());
  };
  EXPECT_TRUE(registry.Register("thor_rd", thor_rd).ok());
  EXPECT_EQ(registry.Register("thor_rd", thor_rd).code(),
            ErrorCode::kAlreadyExists);
  RegisterBuiltinTargets(registry);  // a no-op: every name is taken
  EXPECT_EQ(registry.Names().size(), 3u);
}

// Campaign workers and daemon executors mint targets from the process
// registry concurrently (runs under ThreadSanitizer in CI).
TEST(RegistryTest, ConcurrentMintsFromTheProcessRegistry) {
  std::vector<std::thread> minters;
  for (int t = 0; t < 4; ++t) {
    minters.emplace_back([] {
      for (int i = 0; i < 4; ++i) {
        RegisterBuiltinTargets(TargetRegistry::Instance());
        auto target = TargetRegistry::Instance().Create(
            i % 2 == 0 ? "thor_rd" : "cache_hierarchy");
        ASSERT_TRUE(target.ok());
        EXPECT_FALSE((*target)->ListLocations().empty());
      }
    });
  }
  for (std::thread& minter : minters) minter.join();
}

TEST(RegistryTest, RejectsBadRegistrations) {
  TargetRegistry registry;
  EXPECT_EQ(registry.Register("", []() {
    return std::unique_ptr<target::TargetSystemInterface>();
  }).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(registry.Register("x", nullptr).code(),
            ErrorCode::kInvalidArgument);
}

TEST(PluginTest, LoadErrors) {
  TargetRegistry registry;
  EXPECT_EQ(LoadTargetPlugin("/nonexistent/plugin.so", registry).code(),
            ErrorCode::kIo);
}

TEST(PluginTest, LoadsToyTargetAndRunsExperiments) {
  TargetRegistry registry;
  ASSERT_TRUE(LoadTargetPlugin(GOOFI_TOY_PLUGIN_PATH, registry).ok());
  ASSERT_TRUE(registry.Has("toy_accumulator"));
  auto created = registry.Create("toy_accumulator");
  ASSERT_TRUE(created.ok());
  target::TargetSystemInterface& toy = **created;
  EXPECT_EQ(toy.target_name(), "toy_accumulator");
  EXPECT_EQ(toy.ListLocations().size(), 3u);

  // Golden run: sum 1..50 = 1275.
  ASSERT_TRUE(toy.MakeReferenceRun().ok());
  const target::Observation golden = toy.TakeObservation();
  ASSERT_EQ(golden.emitted.size(), 1u);
  EXPECT_EQ(golden.emitted[0], 1275u);

  // Inject a high bit early: the toy's range-check EDM detects it.
  target::ExperimentSpec spec;
  spec.technique = target::Technique::kScifi;
  spec.trigger.count = 10;
  spec.targets = {{"acc0", 20}};  // +2^20: way beyond the legal range
  toy.set_experiment(spec);
  ASSERT_TRUE(toy.RunExperiment().ok());
  const target::Observation detected = toy.TakeObservation();
  EXPECT_EQ(detected.stop_reason, sim::StopReason::kEdm);

  // A low-bit flip escapes with a wrong result.
  spec.targets = {{"acc0", 0}};
  toy.set_experiment(spec);
  ASSERT_TRUE(toy.RunExperiment().ok());
  const target::Observation escaped = toy.TakeObservation();
  EXPECT_EQ(escaped.stop_reason, sim::StopReason::kHalted);
  EXPECT_NE(escaped.emitted[0], 1275u);

  // A flip in the unused acc2 is overwritten/latent (no output change).
  spec.targets = {{"acc2", 5}};
  toy.set_experiment(spec);
  ASSERT_TRUE(toy.RunExperiment().ok());
  EXPECT_EQ(toy.observation().emitted, golden.emitted);
}

TEST(PluginTest, LoadingTwiceConflictsOnName) {
  TargetRegistry registry;
  ASSERT_TRUE(LoadTargetPlugin(GOOFI_TOY_PLUGIN_PATH, registry).ok());
  // Second load: registration fails internally (duplicate name), but
  // loading reports OK — the plugin decides how to handle it; the
  // registry still has exactly one entry.
  ASSERT_TRUE(LoadTargetPlugin(GOOFI_TOY_PLUGIN_PATH, registry).ok());
  EXPECT_EQ(registry.Names().size(), 1u);
}

}  // namespace
}  // namespace goofi::core
