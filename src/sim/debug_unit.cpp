#include "sim/debug_unit.h"

namespace goofi::sim {

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kHalted: return "halted";
    case StopReason::kEdm: return "edm";
    case StopReason::kBreakpoint: return "breakpoint";
    case StopReason::kIterationLimit: return "iteration_limit";
    case StopReason::kBudgetExhausted: return "budget_exhausted";
  }
  return "?";
}

int DebugUnit::AddBreakpoint(Breakpoint breakpoint) {
  const int id = next_id_++;
  breakpoints_.push_back({id, breakpoint, 0});
  return id;
}

void DebugUnit::RemoveBreakpoint(int id) {
  for (auto it = breakpoints_.begin(); it != breakpoints_.end(); ++it) {
    if (it->id == id) {
      breakpoints_.erase(it);
      return;
    }
  }
}

void DebugUnit::Clear() { breakpoints_.clear(); }

std::optional<int> DebugUnit::Fire(std::size_t index) {
  const int id = breakpoints_[index].id;
  if (breakpoints_[index].breakpoint.one_shot) {
    breakpoints_.erase(breakpoints_.begin() +
                       static_cast<std::ptrdiff_t>(index));
  }
  return id;
}

std::optional<int> DebugUnit::CheckBefore(const Cpu& cpu) {
  for (std::size_t i = 0; i < breakpoints_.size(); ++i) {
    const Breakpoint& bp = breakpoints_[i].breakpoint;
    switch (bp.kind) {
      case Breakpoint::Kind::kPcEquals:
        if (cpu.pc() == bp.address) {
          if (++breakpoints_[i].occurrences >= std::max<std::uint64_t>(
                                                   bp.count, 1)) {
            return Fire(i);
          }
        }
        break;
      case Breakpoint::Kind::kInstretReached:
        if (cpu.instret() >= bp.count) return Fire(i);
        break;
      case Breakpoint::Kind::kRtcMicros:
        if (cpu.instret() >= bp.micros * instructions_per_micro_) {
          return Fire(i);
        }
        break;
      default:
        break;
    }
  }
  return std::nullopt;
}

std::optional<int> DebugUnit::CheckAfter(const Cpu& cpu,
                                         const StepEffects& effects) {
  (void)cpu;
  for (std::size_t i = 0; i < breakpoints_.size(); ++i) {
    const Breakpoint& bp = breakpoints_[i].breakpoint;
    bool hit = false;
    switch (bp.kind) {
      case Breakpoint::Kind::kDataRead:
        hit = effects.mem_read_address &&
              *effects.mem_read_address == bp.address;
        break;
      case Breakpoint::Kind::kDataWrite:
        hit = effects.mem_write_address &&
              *effects.mem_write_address == bp.address;
        break;
      case Breakpoint::Kind::kBranchTaken:
        hit = effects.branch_taken;
        break;
      case Breakpoint::Kind::kCall:
        hit = effects.is_call;
        break;
      default:
        break;
    }
    if (hit &&
        ++breakpoints_[i].occurrences >= std::max<std::uint64_t>(bp.count,
                                                                 1)) {
      return Fire(i);
    }
  }
  return std::nullopt;
}

RunResult Run(Cpu& cpu, DebugUnit* debug_unit,
              std::uint64_t max_instructions,
              std::uint64_t max_iterations,
              const std::function<bool(Cpu&)>& on_iteration) {
  RunResult result;
  std::uint64_t executed = 0;
  while (true) {
    if (cpu.halted()) {
      result.reason = cpu.edm_events().empty() ? StopReason::kHalted
                                               : StopReason::kEdm;
      if (!cpu.edm_events().empty()) result.edm = cpu.edm_events().back();
      break;
    }
    if (executed >= max_instructions) {
      result.reason = StopReason::kBudgetExhausted;
      break;
    }
    // With nothing armed the debug unit cannot fire; skipping it keeps
    // the unwatched run (everything after a one-shot trigger) cheap.
    const bool watched =
        debug_unit != nullptr && debug_unit->breakpoint_count() != 0;
    if (watched) {
      if (const auto id = debug_unit->CheckBefore(cpu)) {
        result.reason = StopReason::kBreakpoint;
        result.breakpoint_id = id;
        break;
      }
    }
    const StepOutcome outcome = cpu.Step();
    ++executed;
    switch (outcome.kind) {
      case StepOutcome::Kind::kHalted:
        result.reason = StopReason::kHalted;
        result.instructions_executed = executed;
        return result;
      case StepOutcome::Kind::kEdm:
        result.reason = StopReason::kEdm;
        result.edm = cpu.edm_events().back();
        result.instructions_executed = executed;
        return result;
      case StepOutcome::Kind::kEdmTrapped:
        // Detection handled on-chip by the recovery handler; the
        // experiment keeps running.
        break;
      case StepOutcome::Kind::kIterationEnd: {
        bool keep_going = true;
        if (on_iteration != nullptr) keep_going = on_iteration(cpu);
        if (!keep_going ||
            (max_iterations != 0 &&
             cpu.iteration_count() >= max_iterations)) {
          result.reason = StopReason::kIterationLimit;
          result.instructions_executed = executed;
          return result;
        }
        break;
      }
      case StepOutcome::Kind::kRetired:
        break;
    }
    if (watched) {
      if (const auto id = debug_unit->CheckAfter(cpu, outcome.effects)) {
        result.reason = StopReason::kBreakpoint;
        result.breakpoint_id = id;
        break;
      }
    }
  }
  result.instructions_executed = executed;
  return result;
}

}  // namespace goofi::sim
