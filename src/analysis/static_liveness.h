// Static pre-run liveness of a GOOFI-32 workload: the analysis-layer
// façade the campaign runner and the linter consume.
//
// Where the def-use index (analysis/equivalence.h; paper §4's
// pre-injection analysis, Barbosa et al.) derives live (location, time)
// points from the *reference run's* access trace,
// StaticLiveness derives a conservative over-approximation from the
// workload image alone — before any run. Campaigns use it to drop fault
// locations that are provably dead on every path (a register no
// reachable instruction ever reads), which shrinks the sampling space
// for free; the dynamic analysis then refines what remains.
//
// Soundness contract (checked by core::CrossCheckWorkload on every
// built-in workload): on a fault-free run, any (register, time) the
// dynamic analysis considers live must satisfy
// MayBeLiveAtPc(register, pc_at(time)). All queries answer `true` when
// the analysis cannot prove deadness.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "sim/assembler.h"
#include "util/status.h"

namespace goofi::analysis {

class StaticLiveness {
 public:
  // Analyze an already-assembled image, or assemble `source` first.
  static Result<StaticLiveness> Analyze(const sim::AssembledProgram& program);
  static Result<StaticLiveness> AnalyzeSource(const std::string& source);

  const Cfg& cfg() const { return cfg_; }
  const LivenessResult& liveness() const { return liveness_; }
  const MemorySummary& memory() const { return memory_; }

  // May register `reg` hold data some path starting at `pc` still
  // reads? True for any pc the CFG does not cover (conservative), false
  // always for r0.
  bool MayBeLiveAtPc(std::uint8_t reg, std::uint32_t pc) const;

  // Is `reg` live anywhere at all? A `false` licenses dropping the
  // register from a campaign's fault-location space outright.
  bool EverLive(std::uint8_t reg) const;

  // May the aligned word at `word_address` be read by the workload?
  // Widens to true whenever any load address was not statically
  // resolvable.
  bool MayWordHoldLiveData(std::uint32_t word_address) const;

  // Location-name front-end for core::LocationSpace::Restricted: false
  // only for scan elements "cpu.regs.rN" with !EverLive(N). Memory
  // ranges and every other element stay true — the comparison stage
  // reads the output region and the final scan-out regardless of
  // program dataflow.
  bool MayLocationHoldLiveData(const std::string& location_name) const;

 private:
  Cfg cfg_;
  LivenessResult liveness_;
  MemorySummary memory_;
};

}  // namespace goofi::analysis
