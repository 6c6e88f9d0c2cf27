// Experiment T-SIM (DESIGN.md): the interpreter's cost per instruction.
// Runtime SWIFI runs the workload on the simulated CPU before and after
// the injection, so the step loop (sim::Run -> Cpu::Step -> prefetch
// through the instruction cache) prices every such experiment. One
// benchmark per built-in workload times its fault-free reference run on
// the test card, exactly as the target drives it, and reports
// `ns_per_instr`; one more runs the 10,000-iteration engine_control
// mission. Reloading the image and resetting the CPU between runs
// is excluded from the timing.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/assembler.h"
#include "target/environment.h"
#include "target/test_card.h"
#include "target/workloads.h"

namespace {

using namespace goofi;

// `iterations` overrides the workload's own iteration limit (0 = keep).
void BM_ReferenceRun(benchmark::State& state, const std::string& name,
                     std::uint64_t iterations) {
  const auto spec = target::GetBuiltinWorkload(name);
  if (!spec.ok()) {
    state.SkipWithError(spec.status().ToString().c_str());
    return;
  }
  const auto program = sim::Assemble(spec->assembly);
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }
  target::TestCard card;
  if (!card.Initialize().ok()) {
    state.SkipWithError("test card initialization failed");
    return;
  }
  std::unique_ptr<target::Environment> environment;
  if (!spec->environment.empty()) {
    auto made = target::MakeEnvironment(spec->environment);
    if (!made.ok()) {
      state.SkipWithError(made.status().ToString().c_str());
      return;
    }
    environment = std::move(*made);
  }
  std::function<bool(sim::Cpu&)> on_iteration;
  if (environment != nullptr) {
    on_iteration = [&environment](sim::Cpu& cpu) {
      return environment->OnIterationEnd(cpu.memory());
    };
  }
  const auto handler = program->symbols.find("trap_handler");
  target::TerminationSpec termination = spec->termination;
  if (iterations != 0) {
    termination.max_iterations = iterations;
    termination.max_instructions = 100 * iterations + 100000;
  }

  std::uint64_t instructions = 0;
  std::chrono::steady_clock::duration run_time{};
  for (auto _ : state) {
    state.PauseTiming();
    card.cpu().memory().ClearContents();
    (void)card.LoadProgram(*program);
    card.ResetTarget(program->entry);
    if (handler != program->symbols.end()) {
      card.cpu().set_trap_handler(true, handler->second);
    }
    if (environment != nullptr) environment->Reset(card.cpu().memory());
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    const sim::RunResult result =
        card.Run(termination.max_instructions, termination.max_iterations,
                 on_iteration);
    run_time += std::chrono::steady_clock::now() - start;
    benchmark::DoNotOptimize(result.instructions_executed);
    instructions += result.instructions_executed;
  }
  state.counters["instructions"] = static_cast<double>(
      instructions / static_cast<std::uint64_t>(state.iterations()));
  state.counters["ns_per_instr"] =
      std::chrono::duration<double, std::nano>(run_time).count() /
      static_cast<double>(instructions);
}

}  // namespace

int main(int argc, char** argv) {
  for (const std::string& name : goofi::target::BuiltinWorkloadNames()) {
    benchmark::RegisterBenchmark(("BM_ReferenceRun/" + name).c_str(),
                                 BM_ReferenceRun, name, 0);
  }
  // The 10,000-iteration engine_control mission of the runtime-SWIFI
  // campaigns (~276 k instructions).
  benchmark::RegisterBenchmark(
      "BM_ReferenceRun/engine_control_10000_iterations", BM_ReferenceRun,
      std::string("engine_control"), std::uint64_t{10000});
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
