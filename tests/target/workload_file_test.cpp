// The built-in workload set and the .workload file loader.
#include "target/workloads.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/assembler.h"

namespace goofi::target {
namespace {

TEST(WorkloadsTest, BuiltinNamesAreSortedAndResolvable) {
  const std::vector<std::string> names = BuiltinWorkloadNames();
  ASSERT_FALSE(names.empty());
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
  for (const std::string& name : names) {
    auto spec = GetBuiltinWorkload(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec.value().name, name);
  }
  EXPECT_FALSE(GetBuiltinWorkload("pacman").ok());
}

TEST(WorkloadsTest, EveryBuiltinAssembles) {
  for (const std::string& name : BuiltinWorkloadNames()) {
    auto spec = GetBuiltinWorkload(name);
    ASSERT_TRUE(spec.ok());
    auto program = sim::Assemble(spec.value().assembly);
    EXPECT_TRUE(program.ok())
        << name << ": " << program.status().ToString();
  }
}

TEST(WorkloadsTest, TheBenchmarkSuiteIsPresent) {
  // The paper's campaign set: sorting, matrix multiply, CRC and the
  // jet-engine controller (plus its recovery-handler variant).
  for (const char* name : {"fib", "isort", "qsort", "matmul", "crc32",
                           "engine_control", "engine_control_ber"}) {
    EXPECT_TRUE(GetBuiltinWorkload(name).ok()) << name;
  }
  auto engine = GetBuiltinWorkload("engine_control");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value().environment, "engine");
  EXPECT_EQ(engine.value().termination.max_iterations, 40u);
}

TEST(WorkloadFileTest, LoadsTheShippedVectorScaleDefinition) {
  const std::string path =
      std::string(GOOFI_WORKLOADS_DIR) + "/vector_scale.workload";
  auto spec = LoadWorkloadSpecFromFile(path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const WorkloadSpec& workload = spec.value();
  EXPECT_EQ(workload.name, "vector_scale");
  EXPECT_EQ(workload.output_base, 0x10200u);
  EXPECT_EQ(workload.output_length, 68u);
  EXPECT_EQ(workload.termination.max_instructions, 50000u);
  ASSERT_FALSE(workload.assembly.empty());
  EXPECT_TRUE(sim::Assemble(workload.assembly).ok());
}

class WorkloadFileFixture : public ::testing::Test {
 protected:
  std::string Dir() const { return ::testing::TempDir(); }

  std::string WriteFile(const std::string& name,
                        const std::string& content) {
    const std::string path = Dir() + "/" + name;
    std::ofstream out(path, std::ios::trunc);
    out << content;
    return path;
  }
};

TEST_F(WorkloadFileFixture, ResolvesTheAssemblyFileRelatively) {
  WriteFile("tiny.s", "halt\n");
  const std::string path = WriteFile("tiny.workload",
                                     "[workload]\n"
                                     "name = tiny\n"
                                     "assembly_file = tiny.s\n"
                                     "max_iterations = 3\n");
  auto spec = LoadWorkloadSpecFromFile(path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().assembly, "halt\n");
  EXPECT_EQ(spec.value().termination.max_iterations, 3u);
  EXPECT_EQ(spec.value().output_length, 0u);
  EXPECT_TRUE(spec.value().environment.empty());
}

TEST_F(WorkloadFileFixture, MissingPiecesAreDiagnosed) {
  EXPECT_FALSE(LoadWorkloadSpecFromFile(Dir() + "/absent.workload").ok());

  const std::string no_section =
      WriteFile("no_section.workload", "name = x\n");
  EXPECT_FALSE(LoadWorkloadSpecFromFile(no_section).ok());

  const std::string no_name = WriteFile(
      "no_name.workload", "[workload]\nassembly_file = tiny.s\n");
  EXPECT_FALSE(LoadWorkloadSpecFromFile(no_name).ok());

  const std::string no_assembly =
      WriteFile("no_assembly.workload", "[workload]\nname = x\n");
  EXPECT_FALSE(LoadWorkloadSpecFromFile(no_assembly).ok());

  const std::string dangling = WriteFile(
      "dangling.workload",
      "[workload]\nname = x\nassembly_file = does_not_exist.s\n");
  EXPECT_FALSE(LoadWorkloadSpecFromFile(dangling).ok());
}

TEST_F(WorkloadFileFixture, MalformedNumbersAreInvalidArgumentsNamingTheKey) {
  WriteFile("tiny.s", "halt\n");
  struct Case {
    const char* key;
    const char* value;
  };
  // Before typed reads, "3x" became 0, "-1" wrapped to 2^64-1 and a base
  // past 32 bits was silently truncated.
  for (const Case& c : {Case{"max_instructions", "3x"},
                        Case{"max_instructions", "-1"},
                        Case{"max_iterations", "ten"},
                        Case{"max_iterations", "-5"},
                        Case{"output_base", "0x1_0000"},
                        Case{"output_base", "0x100000000"},
                        Case{"output_length", "-4"},
                        Case{"output_length", "4294967296"}}) {
    const std::string path = WriteFile(
        "bad_number.workload", std::string("[workload]\nname = x\n") +
                                   "assembly_file = tiny.s\n" + c.key +
                                   " = " + c.value + "\n");
    const auto spec = LoadWorkloadSpecFromFile(path);
    ASSERT_FALSE(spec.ok()) << c.key << " = " << c.value;
    EXPECT_EQ(spec.status().code(), ErrorCode::kInvalidArgument)
        << spec.status().ToString();
    EXPECT_NE(spec.status().message().find(c.key), std::string::npos)
        << spec.status().ToString();
  }
}

TEST_F(WorkloadFileFixture, NumbersAtTheirRangeLimitsLoad) {
  WriteFile("tiny.s", "halt\n");
  const std::string path =
      WriteFile("limits.workload",
                "[workload]\nname = x\nassembly_file = tiny.s\n"
                "output_base = 0xffffffff\n"
                "output_length = 4294967295\n"
                "max_instructions = 18446744073709551615\n"
                "max_iterations = 0\n");
  const auto spec = LoadWorkloadSpecFromFile(path);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->output_base, 0xffffffffu);
  EXPECT_EQ(spec->output_length, 0xffffffffu);
  EXPECT_EQ(spec->termination.max_instructions, ~std::uint64_t{0});
  EXPECT_EQ(spec->termination.max_iterations, 0u);

  // A leading '+' and "-0" are integers, as the untyped reader took them.
  const std::string signs =
      WriteFile("signs.workload",
                "[workload]\nname = x\nassembly_file = tiny.s\n"
                "output_base = +16\n"
                "output_length = -0\n"
                "max_instructions = +5000\n"
                "max_iterations = +18446744073709551615\n");
  const auto signed_spec = LoadWorkloadSpecFromFile(signs);
  ASSERT_TRUE(signed_spec.ok()) << signed_spec.status().ToString();
  EXPECT_EQ(signed_spec->output_base, 16u);
  EXPECT_EQ(signed_spec->output_length, 0u);
  EXPECT_EQ(signed_spec->termination.max_instructions, 5000u);
  EXPECT_EQ(signed_spec->termination.max_iterations, ~std::uint64_t{0});
}

}  // namespace
}  // namespace goofi::target
