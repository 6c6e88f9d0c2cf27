// The simulated Thor-RD-like CPU.
//
// Microarchitecture: a two-stage execute/prefetch model. `ir` holds the
// *next* instruction (already fetched through the parity-protected
// instruction cache) and `pc` its address. Step() executes `ir`, then
// prefetches the successor. This makes IR and PC genuine, *live* scan-
// chain fault-injection targets: a bit flipped in IR while the CPU is
// halted at a breakpoint corrupts the instruction that executes next,
// exactly as on scan-chain hardware.
//
// Fail-stop on detection: when an enabled EDM fires, the CPU halts and
// records the event — the experiment terminates as "error detected",
// matching the paper's termination condition "an error has been
// detected".
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/cache.h"
#include "sim/edm.h"
#include "sim/isa.h"
#include "sim/memory.h"
#include "sim/tracer.h"
#include "sim/word_log.h"
#include "util/status.h"

namespace goofi::sim {

struct CpuConfig {
  CacheGeometry icache_geometry;
  CacheGeometry dcache_geometry;
  EdmConfig edm;
  std::uint32_t watchdog_period = 200000;  // instructions between kicks
  // Detection response. Fail-stop (default): an enabled EDM halts the
  // CPU and the experiment terminates "error detected". Trap mode: the
  // CPU aborts the offending instruction and vectors to `trap_vector`
  // instead — the substrate for best-effort recovery handlers
  // (companion study [12]). Trap entry rearms the watchdog.
  bool trap_to_handler = false;
  std::uint32_t trap_vector = 0;
};

// Side effects of one Step(), consumed by the debug unit's data-access /
// branch / call fault triggers.
struct StepEffects {
  bool branch_taken = false;
  bool is_call = false;
  std::optional<std::uint32_t> mem_read_address;
  std::optional<std::uint32_t> mem_write_address;
};

struct StepOutcome {
  enum class Kind {
    kRetired,       // normal instruction
    kHalted,        // HALT executed (workload terminated by itself)
    kEdm,           // enabled EDM fired; CPU is now halted (fail-stop)
    kEdmTrapped,    // enabled EDM fired; CPU vectored to the handler
    kIterationEnd,  // SYS kIterEnd retired (environment-exchange point)
  };
  Kind kind = Kind::kRetired;
  // kEdm / kEdmTrapped: the event is edm_events().back().
  StepEffects effects;
};

// The CPU's registers, latches and run counters. The CPU runs on this
// block, so a snapshot stores a copy of it and the convergence test
// compares it with ==.
struct CpuCore {
  std::array<std::uint32_t, 16> regs{};
  std::uint32_t pc = 0;
  std::uint32_t ir = 0;
  std::uint32_t mar = 0;
  std::uint32_t mdr = 0;
  std::uint32_t wdt = 0;
  bool ir_valid = false;
  bool halted = false;
  std::uint64_t instret = 0;
  std::uint64_t iterations = 0;
  std::uint64_t recoveries = 0;

  friend bool operator==(const CpuCore&, const CpuCore&) = default;
};

// The CPU's complete run state: the core block, the emitted-output and
// EDM event logs, and the owned memory image and cache arrays. The
// emitted words are a prefix of the CPU's log (sim/word_log.h) and the
// memory image is page-shared (sim/memory.h), so captures taken along
// one run share both. Post-step fault hooks, the tracer connection and
// the trap-handler configuration are driver-side wiring re-established
// by the target's run phases, not state.
struct CpuState : CpuCore {
  WordLog::Prefix emitted;
  std::vector<EdmEvent> edm_events;
  MemoryState memory;
  CacheState icache;
  CacheState dcache;
};

class Cpu {
 public:
  explicit Cpu(CpuConfig config = {});

  // --- architectural state (all scan-chain reachable) ------------------
  std::uint32_t reg(unsigned index) const {
    return index == 0 ? 0 : core_.regs[index];
  }
  void set_reg(unsigned index, std::uint32_t value) {
    if (index != 0) core_.regs[index] = value;
  }
  std::uint32_t pc() const { return core_.pc; }
  void set_pc(std::uint32_t pc) { core_.pc = pc; }
  std::uint32_t ir() const { return core_.ir; }
  void set_ir(std::uint32_t ir) { core_.ir = ir; }
  std::uint32_t mar() const { return core_.mar; }   // memory address latch
  void set_mar(std::uint32_t v) { core_.mar = v; }
  std::uint32_t mdr() const { return core_.mdr; }   // memory data latch
  void set_mdr(std::uint32_t v) { core_.mdr = v; }
  std::uint32_t watchdog() const { return core_.wdt; }
  void set_watchdog(std::uint32_t v) { core_.wdt = v; }

  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }
  Cache& icache() { return icache_; }
  const Cache& icache() const { return icache_; }
  Cache& dcache() { return dcache_; }
  const Cache& dcache() const { return dcache_; }

  const CpuConfig& config() const { return config_; }
  EdmConfig& edm_config() { return config_.edm; }
  // Switch between fail-stop and trap-to-handler detection response
  // (typically set by the loader once the handler's address is known).
  void set_trap_handler(bool enabled, std::uint32_t vector) {
    config_.trap_to_handler = enabled;
    config_.trap_vector = vector;
  }

  // --- run status -------------------------------------------------------
  bool halted() const { return core_.halted; }
  std::uint64_t instret() const { return core_.instret; }  // time base
  std::uint64_t iteration_count() const { return core_.iterations; }
  // Emitted output stream (SYS kEmit of r1) — part of the workload's
  // observable result alongside its memory output region.
  const std::vector<std::uint32_t>& emitted() const {
    return emitted_.words();
  }
  const std::vector<EdmEvent>& edm_events() const { return edm_events_; }
  std::uint64_t recovery_count() const { return core_.recoveries; }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Persistent fault hooks, applied after every step — this is how
  // permanent stuck-at and intermittent fault models are realized
  // (DESIGN.md, core/fault_model).
  using PostStepHook = std::function<void(Cpu&)>;
  int AddPostStepHook(PostStepHook hook);
  void RemovePostStepHook(int id);
  void ClearPostStepHooks();
  bool has_post_step_hooks() const { return !hooks_.empty(); }

  // Reset architectural state (registers, pc, latches, caches, event
  // logs, counters). Memory contents are left alone: the loader fills
  // them between reset and run.
  void Reset(std::uint32_t boot_pc = 0);

  // Checkpoint support (sim/snapshot.h): copy out / reinstate the full
  // run state including the owned memory image and cache arrays. The
  // tracer, post-step hooks and trap configuration are driver wiring
  // and are not part of the state; RestoreState fails when the memory
  // or cache geometry differs from the captured one.
  CpuState CaptureState() const;
  Status RestoreState(const CpuState& state);

  // Checkpoint fork's convergence test: the core block (registers,
  // latches, run counters) == `state`'s, and so are both cache arrays,
  // the emitted words and the EDM log. Memory is left to
  // Memory::DiffersOnlyWhere; the cache statistics are not compared.
  // The first `emitted_from` emitted words are known to be equal (both
  // runs forked from one snapshot) and are skipped. Compares in place.
  bool MatchesExceptMemory(const CpuState& state,
                           std::size_t emitted_from) const;

  // Execute one instruction (plus the prefetch of its successor).
  // The very first Step() after Reset performs the initial fetch.
  StepOutcome Step();

 private:
  // Raise an EDM condition; returns true when the (enabled) mechanism
  // fired and the CPU halted.
  bool RaiseEdm(EdmType type, std::uint32_t pc, std::string detail,
                StepOutcome* outcome);
  // Prefetch `ir` from `core_.pc`; may raise fetch-side EDMs.
  bool Prefetch(StepOutcome* outcome);
  // Prefetch's fetch-side EDMs, off its hot path: `fault` and
  // `parity_error` are the outcome of the first fetch attempt
  // (kMisaligned: none was made).
  bool PrefetchFault(MemFault fault, bool parity_error, std::uint32_t word,
                     StepOutcome* outcome);
  void RunPostStepHooks() {
    for (auto& [id, hook] : hooks_) hook(*this);
  }

  CpuConfig config_;
  Memory memory_;
  Cache icache_;
  Cache dcache_;

  CpuCore core_;
  WordLog emitted_;
  std::vector<EdmEvent> edm_events_;

  Tracer* tracer_ = nullptr;
  std::vector<std::pair<int, PostStepHook>> hooks_;
  int next_hook_id_ = 1;
};

}  // namespace goofi::sim
