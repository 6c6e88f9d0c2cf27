// Target-agnostic conformance contract for TargetSystemInterface ports.
//
// Any target plugin GOOFI's algorithms can drive must pass this
// parameterized suite. The TEST_P bodies live in
// framework_target_test.cpp (one translation unit, per gtest's
// cross-TU value-parameterized pattern); every target test file
// instantiates the suite with its own factories:
//
//   INSTANTIATE_TEST_SUITE_P(MyTarget, TargetConformanceTest,
//                            ::testing::Values(MyParam()),
//                            ConformanceParamName);
//
// The params carry only a factory and generic fault coordinates, so the
// contract itself never references a concrete target type.
#pragma once

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "target/fault_injection_algorithms.h"

namespace goofi::target {

struct ConformanceParam {
  // Used as the test-name suffix; [A-Za-z0-9_] only.
  std::string label;
  // Returns a fully configured target (workload installed, ready for
  // MakeReferenceRun / RunExperiment).
  std::function<std::unique_ptr<TargetSystemInterface>()> make;
  // A trigger that fires strictly before the workload finishes.
  sim::Breakpoint trigger;
  // A fault reaching a writable scan element of this target.
  FaultTarget writable_fault;
  // Name of an observe-only location, or "" if the target has none
  // (the corresponding test skips).
  std::string readonly_location;
};

// Prints the label. gtest's default prints the struct's bytes, which
// start with a heap address, so the ctest names would change from one
// build (or run) to the next.
inline void PrintTo(const ConformanceParam& param, std::ostream* os) {
  *os << param.label;
}

inline std::string ConformanceParamName(
    const ::testing::TestParamInfo<ConformanceParam>& info) {
  return info.param.label;
}

class TargetConformanceTest
    : public ::testing::TestWithParam<ConformanceParam> {};

}  // namespace goofi::target
