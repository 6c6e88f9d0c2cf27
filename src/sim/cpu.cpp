#include "sim/cpu.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "util/strings.h"

namespace goofi::sim {

Cpu::Cpu(CpuConfig config)
    : config_(config),
      icache_(config.icache_geometry),
      dcache_(config.dcache_geometry) {
  core_.wdt = config_.watchdog_period;
}

int Cpu::AddPostStepHook(PostStepHook hook) {
  const int id = next_hook_id_++;
  hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Cpu::RemovePostStepHook(int id) {
  for (auto it = hooks_.begin(); it != hooks_.end(); ++it) {
    if (it->first == id) {
      hooks_.erase(it);
      return;
    }
  }
}

void Cpu::ClearPostStepHooks() { hooks_.clear(); }

CpuState Cpu::CaptureState() const {
  return CpuState{core_,
                  emitted_.Capture(),
                  edm_events_,
                  memory_.CaptureState(),
                  icache_.CaptureState(),
                  dcache_.CaptureState()};
}

Status Cpu::RestoreState(const CpuState& state) {
  // Each sub-restore checks its geometry before it copies anything; the
  // core block and the logs change only once all three succeeded.
  RETURN_IF_ERROR(memory_.RestoreState(state.memory));
  RETURN_IF_ERROR(icache_.RestoreState(state.icache));
  RETURN_IF_ERROR(dcache_.RestoreState(state.dcache));
  core_ = state;
  emitted_.Restore(state.emitted);
  edm_events_ = state.edm_events;
  return Status::Ok();
}

bool Cpu::MatchesExceptMemory(const CpuState& state,
                              std::size_t emitted_from) const {
  return core_ == static_cast<const CpuCore&>(state) &&
         emitted_.MatchesFrom(state.emitted, emitted_from) &&
         edm_events_ == state.edm_events && icache_.ArraysMatch(state.icache) &&
         dcache_.ArraysMatch(state.dcache);
}

void Cpu::Reset(std::uint32_t boot_pc) {
  core_ = CpuCore{};
  core_.pc = boot_pc;
  core_.wdt = config_.watchdog_period;
  emitted_.Clear();
  edm_events_.clear();
  icache_.Invalidate();
  dcache_.Invalidate();
}

bool Cpu::RaiseEdm(EdmType type, std::uint32_t pc, std::string detail,
                   StepOutcome* outcome) {
  if (!config_.edm.IsEnabled(type)) return false;
  EdmEvent event;
  event.type = type;
  event.time = core_.instret;
  event.pc = pc;
  event.detail = std::move(detail);
  edm_events_.push_back(std::move(event));
  if (config_.trap_to_handler) {
    // Abort the offending instruction and vector to the recovery
    // handler. Trap entry rearms the watchdog (otherwise an expired
    // watchdog would re-trap before the handler's first instruction).
    core_.pc = config_.trap_vector;
    core_.ir_valid = false;
    core_.wdt = config_.watchdog_period;
    outcome->kind = StepOutcome::Kind::kEdmTrapped;
    return true;
  }
  core_.halted = true;
  outcome->kind = StepOutcome::Kind::kEdm;
  return true;
}

bool Cpu::Prefetch(StepOutcome* outcome) {
  std::uint32_t word = 0;
  bool parity_error = false;
  const MemFault fault =
      core_.pc % 4 != 0
          ? MemFault::kMisaligned
          : icache_.ReadWord(memory_, core_.pc, &word, AccessKind::kExecute,
                             &parity_error);
  if (fault != MemFault::kNone || parity_error) {
    return PrefetchFault(fault, parity_error, word, outcome);
  }
  core_.ir = word;
  core_.ir_valid = true;
  return true;
}

bool Cpu::PrefetchFault(MemFault fault, bool parity_error, std::uint32_t word,
                        StepOutcome* outcome) {
  if (fault == MemFault::kMisaligned) {
    if (RaiseEdm(EdmType::kMisalignedAccess, core_.pc,
                 StrFormat("fetch from misaligned pc 0x%08x", core_.pc),
                 outcome)) {
      return false;
    }
    core_.pc &= ~3u;  // mechanism disabled: hardware masks the low bits
    fault = icache_.ReadWord(memory_, core_.pc, &word, AccessKind::kExecute,
                             &parity_error);
  }
  if (fault == MemFault::kUnmapped || fault == MemFault::kProtection) {
    if (RaiseEdm(EdmType::kPcOutOfRange, core_.pc,
                 StrFormat("fetch outside program memory at 0x%08x", core_.pc),
                 outcome)) {
      return false;
    }
    // Mechanism disabled: runaway execution reads zeros (NOPs) — the
    // tool-level timeout eventually terminates the experiment.
    word = 0;
  } else if (parity_error) {
    if (RaiseEdm(EdmType::kIcacheParity, core_.pc,
                 StrFormat("instruction cache parity at 0x%08x", core_.pc),
                 outcome)) {
      return false;
    }
  }
  core_.ir = word;
  core_.ir_valid = true;
  return true;
}

StepOutcome Cpu::Step() {
  StepOutcome outcome;
  if (core_.halted) {
    outcome.kind = StepOutcome::Kind::kHalted;
    return outcome;
  }
  // Initial fetch after Reset.
  if (!core_.ir_valid) {
    if (!Prefetch(&outcome)) return outcome;
  }

  // Watchdog: counts down once per instruction; SYS kWdtKick and
  // iteration ends rearm it.
  if (config_.edm.IsEnabled(EdmType::kWatchdog) &&
      config_.watchdog_period > 0) {
    if (core_.wdt == 0) {
      RaiseEdm(EdmType::kWatchdog, core_.pc, "watchdog expired", &outcome);
      return outcome;
    }
    --core_.wdt;
  }

  const std::uint64_t time = core_.instret;
  const std::uint32_t at_pc = core_.pc;
  if (!IsValidOpcode(static_cast<std::uint8_t>(core_.ir >> 24))) {
    // Decode formats the event's detail text; only this path needs it.
    if (RaiseEdm(EdmType::kIllegalOpcode, at_pc,
                 Decode(core_.ir).status().message(), &outcome)) {
      return outcome;
    }
    // Mechanism disabled: treat as NOP.
    core_.pc += 4;
    ++core_.instret;
    if (!Prefetch(&outcome)) return outcome;
    RunPostStepHooks();
    return outcome;
  }
  const Instruction insn = DecodeFields(core_.ir);

#ifndef NDEBUG
  std::uint16_t observed_uses = 0;
  std::uint16_t observed_defs = 0;
#endif
  auto read_reg = [&](unsigned reg) {
#ifndef NDEBUG
    observed_uses |= static_cast<std::uint16_t>(1u << reg);
#endif
    if (tracer_ != nullptr) tracer_->OnRegisterRead(reg, time);
    return this->reg(reg);
  };
  auto write_reg = [&](unsigned reg, std::uint32_t value) {
#ifndef NDEBUG
    observed_defs |= static_cast<std::uint16_t>(1u << reg);
#endif
    if (tracer_ != nullptr) {
      tracer_->OnRegisterWrite(reg, this->reg(reg), value, time);
    }
    set_reg(reg, value);
  };
  // ALU operands: rb, then rc or the immediate per the isa.h operand
  // class (the same split InstructionDefUse encodes), so R-type and
  // I-type forms of one operation share a case below.
  auto alu_operands = [&] {
    const std::uint32_t b = read_reg(insn.rb);
    const std::uint32_t c = IsRType(insn.opcode)
                                ? read_reg(insn.rc)
                                : static_cast<std::uint32_t>(insn.imm);
    return std::pair<std::uint32_t, std::uint32_t>(b, c);
  };
  // An ALU operation that cannot raise an EDM: ra = op(b, c).
  auto alu = [&](auto op) {
    const auto [b, c] = alu_operands();
    write_reg(insn.ra, op(b, c));
  };

  std::uint32_t next_pc = core_.pc + 4;
  bool halt_after = false;

  switch (insn.opcode) {
    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      halt_after = true;
      break;
    case Opcode::kSys: {
      switch (static_cast<SysCode>(static_cast<std::uint16_t>(insn.imm))) {
        case SysCode::kIterEnd:
          ++core_.iterations;
          core_.wdt = config_.watchdog_period;
          outcome.kind = StepOutcome::Kind::kIterationEnd;
          break;
        case SysCode::kAssertFail:
          if (RaiseEdm(EdmType::kAssertion, at_pc,
                       StrFormat("executable assertion failed (r1=0x%08x)",
                                 reg(1)),
                       &outcome)) {
            return outcome;
          }
          break;
        case SysCode::kWdtKick:
          core_.wdt = config_.watchdog_period;
          break;
        case SysCode::kEmit:
          emitted_.Append(read_reg(1));
          break;
        case SysCode::kRecovery:
          ++core_.recoveries;
          break;
        default:
          if (RaiseEdm(EdmType::kIllegalOpcode, at_pc,
                       StrFormat("undefined SYS code %d", insn.imm),
                       &outcome)) {
            return outcome;
          }
          break;
      }
      break;
    }
    case Opcode::kLui:
      write_reg(insn.ra, static_cast<std::uint32_t>(insn.imm) << 16);
      break;

    // ----- ALU ----------------------------------------------------------
    case Opcode::kAdd:
    case Opcode::kAddi: {
      const auto [b, c] = alu_operands();
      const std::uint32_t result = b + c;
      const bool overflow = ((b ^ result) & (c ^ result) & 0x80000000u) != 0;
      if (overflow &&
          RaiseEdm(EdmType::kArithOverflow, at_pc,
                   StrFormat("%s overflow", OpcodeMnemonic(insn.opcode)),
                   &outcome)) {
        return outcome;
      }
      write_reg(insn.ra, result);
      break;
    }
    case Opcode::kSub: {
      const auto [b, c] = alu_operands();
      const std::uint32_t result = b - c;
      const bool overflow = ((b ^ c) & (b ^ result) & 0x80000000u) != 0;
      if (overflow &&
          RaiseEdm(EdmType::kArithOverflow, at_pc, "sub overflow",
                   &outcome)) {
        return outcome;
      }
      write_reg(insn.ra, result);
      break;
    }
    case Opcode::kDiv: {
      const auto [b, c] = alu_operands();
      std::uint32_t result = 0;
      if (c == 0) {
        if (RaiseEdm(EdmType::kDivByZero, at_pc, "divide by zero",
                     &outcome)) {
          return outcome;
        }
        result = 0;  // mechanism disabled
      } else {
        const std::int32_t sb = static_cast<std::int32_t>(b);
        const std::int32_t sc = static_cast<std::int32_t>(c);
        if (sb == std::numeric_limits<std::int32_t>::min() && sc == -1) {
          if (RaiseEdm(EdmType::kArithOverflow, at_pc, "div overflow",
                       &outcome)) {
            return outcome;
          }
          result = b;  // INT_MIN
        } else {
          result = static_cast<std::uint32_t>(sb / sc);
        }
      }
      write_reg(insn.ra, result);
      break;
    }
    case Opcode::kMul:
      alu([](std::uint32_t b, std::uint32_t c) { return b * c; });
      break;
    case Opcode::kAnd: case Opcode::kAndi:
      alu([](std::uint32_t b, std::uint32_t c) { return b & c; });
      break;
    case Opcode::kOr: case Opcode::kOri:
      alu([](std::uint32_t b, std::uint32_t c) { return b | c; });
      break;
    case Opcode::kXor: case Opcode::kXori:
      alu([](std::uint32_t b, std::uint32_t c) { return b ^ c; });
      break;
    case Opcode::kSll: case Opcode::kSlli:
      alu([](std::uint32_t b, std::uint32_t c) { return b << (c & 31); });
      break;
    case Opcode::kSrl: case Opcode::kSrli:
      alu([](std::uint32_t b, std::uint32_t c) { return b >> (c & 31); });
      break;
    case Opcode::kSra: case Opcode::kSrai:
      alu([](std::uint32_t b, std::uint32_t c) {
        return static_cast<std::uint32_t>(static_cast<std::int32_t>(b) >>
                                          (c & 31));
      });
      break;
    case Opcode::kSlt: case Opcode::kSlti:
      alu([](std::uint32_t b, std::uint32_t c) {
        return static_cast<std::uint32_t>(static_cast<std::int32_t>(b) <
                                          static_cast<std::int32_t>(c));
      });
      break;
    case Opcode::kSltu:
      alu([](std::uint32_t b, std::uint32_t c) {
        return static_cast<std::uint32_t>(b < c);
      });
      break;

    // ----- memory ---------------------------------------------------------
    case Opcode::kLd: case Opcode::kLdb: {
      const std::uint32_t address =
          read_reg(insn.rb) + static_cast<std::uint32_t>(insn.imm);
      core_.mar = address;
      std::uint32_t value = 0;
      MemFault fault;
      bool parity_error = false;
      const Segment* segment = memory_.FindSegment(address);
      const bool uncached = segment != nullptr && segment->uncacheable;
      if (insn.opcode == Opcode::kLd && uncached) {
        fault = memory_.ReadWord(address, &value, AccessKind::kRead);
      } else if (insn.opcode == Opcode::kLd) {
        fault = dcache_.ReadWord(memory_, address, &value,
                                 AccessKind::kRead, &parity_error);
      } else {
        std::uint8_t byte = 0;
        fault = memory_.ReadByte(address, &byte);
        value = byte;
      }
      if (parity_error &&
          RaiseEdm(EdmType::kDcacheParity, at_pc,
                   StrFormat("data cache parity at 0x%08x", address),
                   &outcome)) {
        return outcome;
      }
      if (fault == MemFault::kMisaligned) {
        if (RaiseEdm(EdmType::kMisalignedAccess, at_pc,
                     StrFormat("misaligned load at 0x%08x", address),
                     &outcome)) {
          return outcome;
        }
        // Disabled: hardware masks the low bits and retries.
        std::uint32_t masked = address & ~3u;
        bool pe2 = false;
        fault = dcache_.ReadWord(memory_, masked, &value, AccessKind::kRead,
                                 &pe2);
      }
      if (fault == MemFault::kUnmapped || fault == MemFault::kProtection) {
        if (RaiseEdm(EdmType::kMemProtection, at_pc,
                     StrFormat("load fault at 0x%08x", address),
                     &outcome)) {
          return outcome;
        }
        value = 0;  // disabled: bus reads as zero
      }
      core_.mdr = value;
      if (tracer_ != nullptr) {
        tracer_->OnMemoryRead(address, insn.opcode == Opcode::kLd ? 4 : 1,
                              time);
      }
      write_reg(insn.ra, core_.mdr);
      outcome.effects.mem_read_address = address;
      break;
    }
    case Opcode::kSt: case Opcode::kStb: {
      const std::uint32_t address =
          read_reg(insn.rb) + static_cast<std::uint32_t>(insn.imm);
      const std::uint32_t value = read_reg(insn.ra);
      core_.mar = address;
      core_.mdr = value;
      MemFault fault;
      if (insn.opcode == Opcode::kSt) {
        fault = dcache_.WriteWord(memory_, address, value);
      } else {
        fault = memory_.WriteByte(address,
                                  static_cast<std::uint8_t>(value & 0xff));
      }
      if (fault == MemFault::kMisaligned) {
        if (RaiseEdm(EdmType::kMisalignedAccess, at_pc,
                     StrFormat("misaligned store at 0x%08x", address),
                     &outcome)) {
          return outcome;
        }
        fault = dcache_.WriteWord(memory_, address & ~3u, value);
      }
      if (fault == MemFault::kUnmapped || fault == MemFault::kProtection) {
        if (RaiseEdm(EdmType::kMemProtection, at_pc,
                     StrFormat("store fault at 0x%08x", address),
                     &outcome)) {
          return outcome;
        }
        // Disabled: the store is dropped on the floor.
      }
      if (tracer_ != nullptr) {
        tracer_->OnMemoryWrite(address, insn.opcode == Opcode::kSt ? 4 : 1,
                               value, time);
      }
      outcome.effects.mem_write_address = address;
      break;
    }

    // ----- control flow ---------------------------------------------------
    case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
    case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu: {
      const std::uint32_t a = read_reg(insn.ra);
      const std::uint32_t b = read_reg(insn.rb);
      bool taken = false;
      switch (insn.opcode) {
        case Opcode::kBeq: taken = a == b; break;
        case Opcode::kBne: taken = a != b; break;
        case Opcode::kBlt:
          taken = static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
          break;
        case Opcode::kBge:
          taken = static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b);
          break;
        case Opcode::kBltu: taken = a < b; break;
        case Opcode::kBgeu: taken = a >= b; break;
        default: break;
      }
      if (taken) {
        next_pc = core_.pc + 4 +
                  static_cast<std::uint32_t>(insn.imm) * 4;
        outcome.effects.branch_taken = true;
      }
      break;
    }
    case Opcode::kJal:
      write_reg(insn.ra, core_.pc + 4);
      next_pc = core_.pc + 4 + static_cast<std::uint32_t>(insn.imm) * 4;
      outcome.effects.branch_taken = true;
      outcome.effects.is_call = true;
      break;
    case Opcode::kJalr: {
      const std::uint32_t target =
          (read_reg(insn.rb) + static_cast<std::uint32_t>(insn.imm)) & ~3u;
      write_reg(insn.ra, core_.pc + 4);
      next_pc = target;
      outcome.effects.branch_taken = true;
      outcome.effects.is_call = true;
      break;
    }
  }

#ifndef NDEBUG
  {
    // The accesses the instruction actually performed must be a subset of
    // isa.h's per-opcode def/use metadata (a subset, not an exact match:
    // EDM early-outs above skip trailing accesses, and kSys's kAssertFail
    // diagnostic read is deliberately untraced).
    const RegDefUse du = InstructionDefUse(insn);
    assert((observed_uses & ~du.uses) == 0);
    assert((observed_defs & ~du.defs) == 0);
  }
#endif

  ++core_.instret;
  if (tracer_ != nullptr) {
    tracer_->OnInstructionRetired(*this, insn, time, at_pc);
  }

  if (halt_after) {
    core_.halted = true;
    outcome.kind = StepOutcome::Kind::kHalted;
    RunPostStepHooks();
    return outcome;
  }

  core_.pc = next_pc;
  if (!Prefetch(&outcome)) return outcome;
  RunPostStepHooks();
  return outcome;
}

}  // namespace goofi::sim
