// Capture/restore implementations for every snapshottable sim
// component. They live in one translation unit so the component headers
// only need to forward-declare their state structs (sim/snapshot.h
// includes all of them; including it from cpu.h etc. would be a cycle).
#include "sim/snapshot.h"

#include <algorithm>
#include <cstring>

#include "util/strings.h"

namespace goofi::sim {

CacheState Cache::CaptureState() const {
  CacheState state;
  state.lines = lines_;
  state.stats = stats_;
  return state;
}

Status Cache::RestoreState(const CacheState& state) {
  if (state.lines.size() != lines_.size()) {
    return InvalidArgumentError(
        StrFormat("cache snapshot has %zu lines, cache has %zu",
                  state.lines.size(), lines_.size()));
  }
  for (const CacheLine& line : state.lines) {
    if (line.words.size() != geometry_.words_per_line ||
        line.parity.size() != geometry_.words_per_line) {
      return InvalidArgumentError(
          "cache snapshot line shape does not match geometry");
    }
  }
  lines_ = state.lines;
  stats_ = state.stats;
  return Status::Ok();
}

bool Cache::ArraysMatch(const CacheState& state) const {
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    const CacheLine& live = lines_[i];
    const CacheLine& golden = state.lines[i];
    if (live.valid != golden.valid || live.tag != golden.tag ||
        live.words != golden.words || live.parity != golden.parity) {
      return false;
    }
  }
  return true;
}

MemoryState Memory::CaptureState() const {
  MemoryState state;
  state.backings.reserve(backings_.size());
  for (const Backing& backing : backings_) {
    state.backings.push_back(backing.bytes);
  }
  return state;
}

Status Memory::RestoreState(const MemoryState& state) {
  if (state.backings.size() != backings_.size()) {
    return InvalidArgumentError(
        StrFormat("memory snapshot has %zu segments, memory has %zu",
                  state.backings.size(), backings_.size()));
  }
  for (std::size_t i = 0; i < backings_.size(); ++i) {
    if (state.backings[i].size() != backings_[i].bytes.size()) {
      return InvalidArgumentError(StrFormat(
          "memory snapshot segment %zu is %zu bytes, segment '%s' is %zu",
          i, state.backings[i].size(), backings_[i].segment.name.c_str(),
          backings_[i].bytes.size()));
    }
  }
  for (std::size_t i = 0; i < backings_.size(); ++i) {
    backings_[i].bytes = state.backings[i];
  }
  return Status::Ok();
}

bool Memory::DiffersOnlyWhere(
    const MemoryState& state,
    const std::function<bool(std::size_t, std::size_t)>& may_differ) const {
  // Equal blocks are skipped with one memcmp each; only a differing
  // block is walked word by word.
  constexpr std::size_t kBlock = 256;
  for (std::size_t b = 0; b < backings_.size(); ++b) {
    const std::vector<std::uint8_t>& live = backings_[b].bytes;
    const std::vector<std::uint8_t>& golden = state.backings[b];
    for (std::size_t block = 0; block < live.size(); block += kBlock) {
      const std::size_t end = std::min(live.size(), block + kBlock);
      if (std::memcmp(live.data() + block, golden.data() + block,
                      end - block) == 0) {
        continue;
      }
      for (std::size_t word = block; word < end; word += 4) {
        const std::size_t length = std::min<std::size_t>(4, end - word);
        if (std::memcmp(live.data() + word, golden.data() + word, length) !=
                0 &&
            !may_differ(b, word / 4)) {
          return false;
        }
      }
    }
  }
  return true;
}

CpuState Cpu::CaptureState() const {
  CpuState state;
  std::copy(std::begin(regs_), std::end(regs_), state.regs.begin());
  state.pc = pc_;
  state.ir = ir_;
  state.mar = mar_;
  state.mdr = mdr_;
  state.wdt = wdt_;
  state.ir_valid = ir_valid_;
  state.halted = halted_;
  state.instret = instret_;
  state.iterations = iterations_;
  state.recoveries = recoveries_;
  state.emitted = emitted_;
  state.edm_events = edm_events_;
  state.memory = memory_.CaptureState();
  state.icache = icache_.CaptureState();
  state.dcache = dcache_.CaptureState();
  return state;
}

Status Cpu::RestoreState(const CpuState& state) {
  // Validate every sub-restore before mutating anything, so a geometry
  // mismatch cannot leave the CPU half-restored.
  RETURN_IF_ERROR(memory_.RestoreState(state.memory));
  RETURN_IF_ERROR(icache_.RestoreState(state.icache));
  RETURN_IF_ERROR(dcache_.RestoreState(state.dcache));
  std::copy(state.regs.begin(), state.regs.end(), std::begin(regs_));
  pc_ = state.pc;
  ir_ = state.ir;
  mar_ = state.mar;
  mdr_ = state.mdr;
  wdt_ = state.wdt;
  ir_valid_ = state.ir_valid;
  halted_ = state.halted;
  instret_ = state.instret;
  iterations_ = state.iterations;
  recoveries_ = state.recoveries;
  emitted_ = state.emitted;
  edm_events_ = state.edm_events;
  return Status::Ok();
}

bool Cpu::MatchesExceptMemory(const CpuState& state,
                              std::size_t emitted_from) const {
  emitted_from = std::min(emitted_from, emitted_.size());
  return std::equal(std::begin(regs_), std::end(regs_),
                    state.regs.begin()) &&
         pc_ == state.pc && ir_ == state.ir && mar_ == state.mar &&
         mdr_ == state.mdr && wdt_ == state.wdt &&
         ir_valid_ == state.ir_valid && halted_ == state.halted &&
         instret_ == state.instret && iterations_ == state.iterations &&
         recoveries_ == state.recoveries &&
         emitted_.size() == state.emitted.size() &&
         std::equal(emitted_.begin() +
                        static_cast<std::ptrdiff_t>(emitted_from),
                    emitted_.end(),
                    state.emitted.begin() +
                        static_cast<std::ptrdiff_t>(emitted_from)) &&
         edm_events_ == state.edm_events && icache_.ArraysMatch(state.icache) &&
         dcache_.ArraysMatch(state.dcache);
}

TapControllerState TapController::CaptureState() const {
  TapControllerState state;
  state.state = state_;
  state.instruction = instruction_;
  state.ir_shift = ir_shift_;
  state.dr_shift = dr_shift_;
  state.dr_length = dr_length_;
  state.tck_cycles = tck_cycles_;
  return state;
}

void TapController::RestoreState(const TapControllerState& state) {
  state_ = state.state;
  instruction_ = state.instruction;
  ir_shift_ = state.ir_shift;
  dr_shift_ = state.dr_shift;
  dr_length_ = state.dr_length;
  tck_cycles_ = state.tck_cycles;
}

AccessRecorderState AccessRecorder::CaptureState() const {
  AccessRecorderState state;
  for (std::size_t i = 0; i < state.reg_events.size(); ++i) {
    state.reg_events[i] = reg_events_[i];
  }
  state.mem_events = mem_events_;
  state.pc_trace = pc_trace_;
  return state;
}

void AccessRecorder::RestoreState(const AccessRecorderState& state) {
  for (std::size_t i = 0; i < state.reg_events.size(); ++i) {
    reg_events_[i] = state.reg_events[i];
  }
  mem_events_ = state.mem_events;
  pc_trace_ = state.pc_trace;
}

}  // namespace goofi::sim
