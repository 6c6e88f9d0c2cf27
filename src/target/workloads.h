// Built-in GOOFI-32 workloads and the .workload file loader.
//
// The paper's campaigns run small benchmark programs on the target
// ("the workload and initial input data is downloaded to the system");
// this module provides the reproduction's workload set — the classic
// embedded kernels (sorting, matrix multiply, CRC) plus the jet-engine
// PID controller used for the recovery studies — and a loader for
// user-supplied workload definitions (workloads/vector_scale.workload).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "target/target_types.h"
#include "util/config.h"
#include "util/status.h"

namespace goofi::target {

struct WorkloadSpec {
  std::string name;
  // GOOFI-32 assembly source (see src/sim/assembler.h); assembled by the
  // target when the workload is loaded.
  std::string assembly;
  // Declared output region: the bytes the analysis stage compares
  // against the fault-free reference. Zero length = no output region.
  std::uint32_t output_base = 0;
  std::uint32_t output_length = 0;
  // Plant model exchanged with at every iteration end; empty = none
  // (see target/environment.h).
  std::string environment;
  // Workload-default termination, used when the experiment spec leaves
  // its own TerminationSpec zero.
  TerminationSpec termination{0, 0};
};

// Names of the built-in workloads, sorted.
std::vector<std::string> BuiltinWorkloadNames();

Result<WorkloadSpec> GetBuiltinWorkload(const std::string& name);

// Load a `.workload` INI file:
//   [workload]
//   name = vector_scale
//   assembly_file = vector_scale.s      ; relative to the .workload file
//   output_base = 0x10200
//   output_length = 68
//   max_instructions = 50000            ; optional
//   max_iterations = 0                  ; optional
//   environment = engine                ; optional
Result<WorkloadSpec> LoadWorkloadSpecFromFile(const std::string& path);

// The numeric keys of a `.workload` file's [workload] section, typed:
// output_base and output_length fit 32 bits (an address and a byte
// count on the 32-bit target); max_instructions and max_iterations are
// any non-negative 64-bit count. An absent key reads 0. Each value that
// is not such an integer reads 0 and adds one InvalidArgument naming
// its key to `errors`, in key order. The loader fails on the first;
// goofi-lint reports each at its line.
struct WorkloadNumbers {
  struct Error {
    std::string key;
    Status status;
  };
  std::uint64_t output_base = 0;
  std::uint64_t output_length = 0;
  std::uint64_t max_instructions = 0;
  std::uint64_t max_iterations = 0;
  std::vector<Error> errors;
};
WorkloadNumbers ReadWorkloadNumbers(const ConfigSection& section);

}  // namespace goofi::target
