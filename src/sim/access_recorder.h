// Records every register and memory-word access with its time.
//
// This is the data source for the paper's pre-injection analysis
// extension: "to determine when registers and other fault injection
// locations hold live data. Injecting a fault into a location that does
// not hold live data serves no purpose, since the fault will be
// overwritten." analysis/equivalence.* turns these event streams into
// the def-use index that answers it.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/tracer.h"

namespace goofi::sim {

struct AccessEvent {
  std::uint64_t time = 0;  // instret of the accessing instruction
  bool is_write = false;
};

class AccessRecorder : public Tracer {
 public:
  void OnInstructionRetired(const Cpu& cpu, const Instruction& instruction,
                            std::uint64_t time, std::uint32_t pc) override;
  void OnRegisterRead(unsigned reg, std::uint64_t time) override;
  void OnRegisterWrite(unsigned reg, std::uint32_t old_value,
                       std::uint32_t new_value, std::uint64_t time) override;
  void OnMemoryRead(std::uint32_t address, unsigned bytes,
                    std::uint64_t time) override;
  void OnMemoryWrite(std::uint32_t address, unsigned bytes,
                     std::uint32_t value, std::uint64_t time) override;

  // Events in program order, one stream per register (1..15).
  const std::vector<AccessEvent>& register_events(unsigned reg) const {
    return reg_events_[reg];
  }
  // Per word-aligned memory address.
  const std::map<std::uint32_t, std::vector<AccessEvent>>& memory_events()
      const {
    return mem_events_;
  }
  // pc_trace()[t] is the address of the instruction executed at time t.
  // core/crosscheck.* uses it to map the dynamic liveness timeline onto
  // the static analyzer's per-pc results.
  const std::vector<std::uint32_t>& pc_trace() const { return pc_trace_; }

  void Clear();

 private:
  std::vector<AccessEvent> reg_events_[16];
  std::map<std::uint32_t, std::vector<AccessEvent>> mem_events_;
  std::vector<std::uint32_t> pc_trace_;
};

}  // namespace goofi::sim
