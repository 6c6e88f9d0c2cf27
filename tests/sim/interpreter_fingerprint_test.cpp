// Interpreter fingerprints: the architectural outcome of every built-in
// workload's reference run, and of a fixed table of single faults that
// drives every EDM Cpu::Step raises, pinned as text. The pinned values
// were recorded from the interpreter before its step loop, decoder and
// cache access path were optimised, so any change to what one
// instruction does — results, EDM detail text, cache counters, tracer
// events, post-step hook calls, injector accesses — shows up here as a
// string diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/assembler.h"
#include "sim/debug_unit.h"
#include "sim/fault_injector.h"
#include "sim/tracer.h"
#include "target/environment.h"
#include "target/test_card.h"
#include "target/workloads.h"
#include "util/crc32.h"
#include "util/strings.h"

namespace goofi::sim {
namespace {

std::uint32_t WordsCrc(const std::vector<std::uint32_t>& words) {
  return Crc32(std::string_view(reinterpret_cast<const char*>(words.data()),
                                words.size() * sizeof(std::uint32_t)));
}

std::uint32_t MemoryCrc(const Memory& memory) {
  std::string image;
  for (const Segment& segment : memory.segments()) {
    const auto bytes = memory.DumpRange(segment.base, segment.size);
    EXPECT_TRUE(bytes.ok());
    if (bytes.ok()) image.append(bytes->begin(), bytes->end());
  }
  return Crc32(image);
}

std::string CacheStatsText(const Cache& cache) {
  return StrFormat("%llu/%llu/%llu",
                   static_cast<unsigned long long>(cache.stats().hits),
                   static_cast<unsigned long long>(cache.stats().misses),
                   static_cast<unsigned long long>(cache.stats().parity_errors));
}

// Everything a run leaves behind in the CPU, one line.
std::string ArchFingerprint(const Cpu& cpu, const RunResult& result) {
  std::string text = StrFormat(
      "stop=%s ran=%llu instret=%llu iter=%llu halted=%d pc=0x%08x "
      "ir=0x%08x mar=0x%08x mdr=0x%08x wdt=%u recov=%llu regs=",
      StopReasonName(result.reason),
      static_cast<unsigned long long>(result.instructions_executed),
      static_cast<unsigned long long>(cpu.instret()),
      static_cast<unsigned long long>(cpu.iteration_count()),
      cpu.halted() ? 1 : 0, cpu.pc(), cpu.ir(), cpu.mar(), cpu.mdr(),
      cpu.watchdog(),
      static_cast<unsigned long long>(cpu.recovery_count()));
  for (unsigned r = 1; r < 16; ++r) {
    text += StrFormat(r == 1 ? "%x" : ",%x", cpu.reg(r));
  }
  text += StrFormat(" mem=%08x emit=%zu/%08x icache=%s dcache=%s edm=[",
                    MemoryCrc(cpu.memory()), cpu.emitted().size(),
                    WordsCrc(cpu.emitted()),
                    CacheStatsText(cpu.icache()).c_str(),
                    CacheStatsText(cpu.dcache()).c_str());
  for (const EdmEvent& event : cpu.edm_events()) {
    text += StrFormat("%s@%llu,0x%x,'%s';", EdmTypeName(event.type),
                      static_cast<unsigned long long>(event.time), event.pc,
                      event.detail.c_str());
  }
  text += "]";
  return text;
}

// Folds every tracer callback, with all its arguments, into one FNV-1a
// digest.
class DigestTracer : public Tracer {
 public:
  void OnInstructionRetired(const Cpu& cpu, const Instruction& insn,
                            std::uint64_t time, std::uint32_t pc) override {
    Fold(1, time, pc, insn.raw, static_cast<std::uint32_t>(insn.opcode),
         insn.ra, insn.rb, insn.rc, static_cast<std::uint32_t>(insn.imm),
         cpu.instret());
  }
  void OnRegisterRead(unsigned reg, std::uint64_t time) override {
    Fold(2, time, reg);
  }
  void OnRegisterWrite(unsigned reg, std::uint32_t old_value,
                       std::uint32_t new_value, std::uint64_t time) override {
    Fold(3, time, reg, old_value, new_value);
  }
  void OnMemoryRead(std::uint32_t address, unsigned bytes,
                    std::uint64_t time) override {
    Fold(4, time, address, bytes);
  }
  void OnMemoryWrite(std::uint32_t address, unsigned bytes,
                     std::uint32_t value, std::uint64_t time) override {
    Fold(5, time, address, bytes, value);
  }

  std::uint64_t digest() const { return digest_; }
  std::uint64_t events() const { return events_; }

 private:
  template <typename... Values>
  void Fold(Values... values) {
    ++events_;
    for (const std::uint64_t value : {static_cast<std::uint64_t>(values)...}) {
      for (int byte = 0; byte < 8; ++byte) {
        digest_ ^= (value >> (8 * byte)) & 0xff;
        digest_ *= 0x100000001b3ull;
      }
    }
  }

  std::uint64_t digest_ = 0xcbf29ce484222325ull;
  std::uint64_t events_ = 0;
};

// The optional per-step machinery: a tracer, a post-step hook and an
// access-path injector armed with a fault on an address no program
// here touches, so it is called on every access but never fires.
struct Instruments {
  DigestTracer tracer;
  AccessPathInjector injector;
  std::uint64_t hook_calls = 0;
  std::uint64_t hook_digest = 0;

  void Install(Cpu& cpu) {
    cpu.set_tracer(&tracer);
    cpu.AddPostStepHook([this](Cpu& hooked) {
      ++hook_calls;
      hook_digest = hook_digest * 31 + hooked.pc() + hooked.instret();
    });
    cpu.icache().set_fault_injector(&injector, MemUnit::kIcache);
    cpu.dcache().set_fault_injector(&injector, MemUnit::kDcache);
    cpu.memory().set_fault_injector(&injector);
    ArmedCacheFault never;
    never.unit = MemUnit::kMainMemory;
    never.array = CacheArray::kInflight;
    never.set = 0xFFFFFFF0;
    never.kind = ArmedFaultKind::kPermanentStuckAt;
    injector.Arm(never);
  }

  std::string Text() const {
    return StrFormat(
        "trace=%016llx/%llu hook=%llu/%016llx inj=%llu/%llu/%llu/%llu",
        static_cast<unsigned long long>(tracer.digest()),
        static_cast<unsigned long long>(tracer.events()),
        static_cast<unsigned long long>(hook_calls),
        static_cast<unsigned long long>(hook_digest),
        static_cast<unsigned long long>(
            injector.unit_access_count(MemUnit::kIcache)),
        static_cast<unsigned long long>(
            injector.unit_access_count(MemUnit::kDcache)),
        static_cast<unsigned long long>(
            injector.unit_access_count(MemUnit::kMainMemory)),
        static_cast<unsigned long long>(injector.applied_count()));
  }
};

// ---------------------------------------------------------------------
// Built-in workload reference runs.
// ---------------------------------------------------------------------

struct WorkloadRun {
  std::string arch;
  std::string env;  // environment output stream, when there is one
};

WorkloadRun RunWorkload(const std::string& name, std::uint64_t iterations,
                        bool arm_idle_breakpoint) {
  WorkloadRun run;
  const auto spec = target::GetBuiltinWorkload(name);
  EXPECT_TRUE(spec.ok()) << name;
  if (!spec.ok()) return run;
  const auto program = Assemble(spec->assembly);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return run;
  target::TestCard card;
  EXPECT_TRUE(card.Initialize().ok());
  EXPECT_TRUE(card.LoadProgram(*program).ok());
  card.ResetTarget(program->entry);
  const auto handler = program->symbols.find("trap_handler");
  if (handler != program->symbols.end()) {
    card.cpu().set_trap_handler(true, handler->second);
  }
  std::unique_ptr<target::Environment> environment;
  std::function<bool(Cpu&)> on_iteration;
  if (!spec->environment.empty()) {
    auto made = target::MakeEnvironment(spec->environment);
    EXPECT_TRUE(made.ok());
    if (!made.ok()) return run;
    environment = std::move(*made);
    environment->Reset(card.cpu().memory());
    on_iteration = [&environment](Cpu& cpu) {
      return environment->OnIterationEnd(cpu.memory());
    };
  }
  if (arm_idle_breakpoint) {
    // Armed for the whole run but never matched: the debug unit checks
    // it before and after every instruction.
    Breakpoint idle;
    idle.kind = Breakpoint::Kind::kPcEquals;
    idle.address = 0x0000FFFC;
    card.SetBreakpoint(idle);
  }
  target::TerminationSpec termination = spec->termination;
  if (iterations != 0) termination = {10'000'000, iterations};
  const RunResult result = card.Run(termination.max_instructions,
                                    termination.max_iterations, on_iteration);
  run.arch = ArchFingerprint(card.cpu(), result);
  if (environment != nullptr) {
    run.env = StrFormat("env=%zu/%08x", environment->outputs().size(),
                        WordsCrc(environment->outputs()));
  }
  return run;
}

struct WorkloadCase {
  const char* name;
  std::uint64_t iterations;  // 0 = the workload's own termination
  const char* arch;
  const char* env;
};

const WorkloadCase kWorkloadCases[] = {
    {"crc32", 0,
     "stop=halted ran=1632 instret=1632 iter=0 halted=1 pc=0x00000074 "
     "ir=0x01000000 mar=0x00010100 mdr=0x58d45a7c wdt=198368 recov=0 "
     "regs=58d45a7c,20,20,58d45a7c,edb88320,1001f,31,10100,ffffffff,0,0,0,0,24000,0"
     " mem=d0ca9e85 emit=1/e162b283 icache=1624/8/0 dcache=0/0/0 "
     "edm=[]",
     ""},
    {"engine_control", 0,
     "stop=iteration_limit ran=1101 instret=1101 iter=40 halted=0 "
     "pc=0x000000a0 ir=0x4000ffdd mar=0xffff0020 mdr=0x0000019f "
     "wdt=200000 recov=0 "
     "regs=0,fffffd36,fffffffa,25e,258,fffffffa,3e8,47,19f,ffff0000,8e,0,0,24000,0"
     " mem=3d408b7f emit=0/00000000 icache=1091/11/0 dcache=0/0/0 "
     "edm=[]",
     "env=40/b9b20e18"},
    {"engine_control_ber", 0,
     "stop=iteration_limit ran=1101 instret=1101 iter=40 halted=0 "
     "pc=0x000000a0 ir=0x4000ffdd mar=0xffff0020 mdr=0x0000019f "
     "wdt=200000 recov=0 "
     "regs=0,fffffd36,fffffffa,25e,258,fffffffa,3e8,47,19f,ffff0000,8e,0,0,24000,0"
     " mem=2d8763f5 emit=0/00000000 icache=1091/11/0 dcache=0/0/0 "
     "edm=[]",
     "env=40/b9b20e18"},
    {"fib", 0,
     "stop=halted ran=112 instret=112 iter=0 halted=1 pc=0x00000040 "
     "ir=0x01000000 mar=0x00010000 mdr=0x00002ac2 wdt=199888 recov=0 "
     "regs=2ac2,2ac2,14,2ac2,14,10000,0,0,0,0,0,0,0,24000,0 "
     "mem=3296bbf8 emit=1/c8da3aa7 icache=107/5/0 dcache=0/0/0 edm=[]",
     ""},
    {"isort", 0,
     "stop=halted ran=1679 instret=1679 iter=0 halted=1 pc=0x000000a8 "
     "ir=0x01000000 mar=0x00010160 mdr=0x00012af9 wdt=198321 recov=0 "
     "regs=12af9,18,18,5c,1005c,270f,10160,0,40,12af9,10100,0,0,24000,0"
     " mem=b8b603a0 emit=1/f6eb7446 icache=1668/11/0 dcache=199/6/0 "
     "edm=[]",
     ""},
    {"matmul", 0,
     "stop=halted ran=1265 instret=1265 iter=0 halted=1 pc=0x000000d0 "
     "ir=0x01000000 mar=0x00010140 mdr=0x000005c8 wdt=198735 recov=0 "
     "regs=5c8,10040,10100,10,4,4,bc,10140,bc,5c8,5,10,0,24000,0 "
     "mem=2dbc27e2 emit=1/9476db1e icache=1251/14/0 dcache=132/12/0 "
     "edm=[]",
     ""},
    {"qsort", 0,
     "stop=halted ran=1542 instret=1542 iter=0 halted=1 pc=0x00000068 "
     "ir=0x01000000 mar=0x00010150 mdr=0x0000eac3 wdt=198458 recov=0 "
     "regs=eac3,14,14,4c,1004c,270f,10150,10034,106b,eac3,10100,0,0,24000,1c"
     " mem=391268a2 emit=1/e1c9cb82 icache=1521/21/0 dcache=226/10/0 "
     "edm=[]",
     ""},
    {"engine_control", 10000,
     "stop=iteration_limit ran=275627 instret=275627 iter=10000 "
     "halted=0 pc=0x000000a0 ir=0x4000ffdd mar=0xffff0020 "
     "mdr=0x00000000 wdt=200000 recov=0 "
     "regs=0,fffffac3,ffffffe0,278,258,ffffffe0,3e8,ffffffb8,0,ffff0000,ffffff70,0,0,24000,0"
     " mem=7ea8eda9 emit=0/00000000 icache=275617/11/0 dcache=0/0/0 "
     "edm=[]",
     "env=10000/ce7804d3"},
};

void PrintTo(const WorkloadCase& c, std::ostream* os) {
  *os << c.name << "@" << c.iterations;
}

TEST(InterpreterFingerprintTest, CoversEveryBuiltinWorkload) {
  std::vector<std::string> pinned;
  for (const WorkloadCase& c : kWorkloadCases) {
    if (c.iterations == 0) pinned.emplace_back(c.name);
  }
  EXPECT_EQ(pinned, target::BuiltinWorkloadNames());
}

class WorkloadFingerprint : public ::testing::TestWithParam<WorkloadCase> {};

TEST_P(WorkloadFingerprint, ReferenceRunIsPinned) {
  const WorkloadCase& c = GetParam();
  const WorkloadRun run = RunWorkload(c.name, c.iterations, false);
  EXPECT_EQ(run.arch, c.arch);
  EXPECT_EQ(run.env, c.env);
  // An armed breakpoint that never matches changes nothing.
  const WorkloadRun watched = RunWorkload(c.name, c.iterations, true);
  EXPECT_EQ(watched.arch, run.arch);
  EXPECT_EQ(watched.env, run.env);
}

INSTANTIATE_TEST_SUITE_P(
    Builtins, WorkloadFingerprint, ::testing::ValuesIn(kWorkloadCases),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) {
      std::string name = info.param.name;
      if (info.param.iterations != 0) {
        name += "_" + std::to_string(info.param.iterations) + "_iterations";
      }
      return name;
    });

// ---------------------------------------------------------------------
// Single faults, one per EDM raise site in Cpu::Step.
// ---------------------------------------------------------------------

// A loop that exercises every instruction class: word and byte loads
// and stores, cached and uncached (IO page) accesses, DIV, SUB, the
// watchdog kick, an emit, a call/return and an executable assertion
// comparing the running sum with a shadow copy.
constexpr const char* kFaultProgram = R"(
.entry start
start:
  la r8, table
  la r12, out
  li r9, 0
  li r10, 8
  li r4, 7
  li r11, 0
  li r13, 0
loop:
  slli r1, r9, 2
  add r2, r8, r1
  ld r3, [r2]
  add r11, r11, r3
  add r13, r13, r3
  div r5, r3, r4
  sub r6, r3, r9
  add r7, r12, r1
  st r5, [r7]
  stb r6, [r7+32]
  ldb r6, [r7+32]
  addi r9, r9, 1
  sys 3
  blt r9, r10, loop
  li r1, 0xFFFF0000
  st r9, [r1+0x20]
  ld r6, [r1+0x20]
  mov r1, r11
  sys 4
  call check
  halt
check:
  beq r11, r13, check_ok
  sys 2
check_ok:
  ret
spin:
  b spin
handler:
  sys 5
  li r1, 0xdead
  sys 4
  halt

.org 0x10000
table:
  .word 3, 1, 4, 1, 5, 0x80000000, 2, 6
out:
  .space 64
)";

using Configure = void (*)(CpuConfig&);
using Inject = void (*)(Cpu&, const AssembledProgram&);

struct FaultCase {
  const char* name;
  Configure configure;        // may be null
  std::uint64_t at_instret;   // the injection trigger
  Inject inject;              // may be null (configuration-only case)
  bool trap;                  // vector EDMs to `handler`
  const char* enabled;        // fingerprint with the default EDM set
  const char* disabled;       // fingerprint with every EDM disabled
};

void JumpTo(Cpu& cpu, std::uint32_t address) {
  // A control-flow fault: PC and the prefetched IR move together.
  std::uint32_t word = 0;
  (void)cpu.memory().PeekWord(address, &word);
  cpu.set_pc(address);
  cpu.set_ir(word);
}

void FlipCacheWord(Cache& cache, std::uint32_t address, std::uint32_t mask) {
  CacheLine& line = cache.line(cache.LineIndex(address));
  line.words[cache.WordIndex(address)] ^= mask;
}

void EnableOverflow(CpuConfig& config) {
  config.edm.SetEnabled(EdmType::kArithOverflow, true);
}

void ShortWatchdog(CpuConfig& config) { config.watchdog_period = 30; }

const FaultCase kFaultCases[] = {
    {"no_fault", nullptr, 12, nullptr, false,
     "stop=halted ran=119 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=199989 recov=0 "
     "regs=80000016,1001c,6,7,0,8,1003c,10000,8,8,80000016,10020,80000016,0,78"
     " mem=6d9f2ebc emit=1/b98e547f icache=122/9/0 dcache=6/2/0 edm=[]"
     " | trace=fc084943d379deb4/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/54/0",
     "stop=halted ran=119 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000016,1001c,6,7,0,8,1003c,10000,8,8,80000016,10020,80000016,0,78"
     " mem=6d9f2ebc emit=1/b98e547f icache=122/9/0 dcache=6/2/0 edm=[]"
     " | trace=fc084943d379deb4/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/54/0"},
    {"illegal_opcode", nullptr, 20,
     [](Cpu& cpu, const AssembledProgram&) { cpu.set_ir(0xFF000000u); },
     false,
     "stop=edm ran=1 instret=20 iter=0 halted=1 pc=0x00000050 "
     "ir=0xff000000 mar=0x00010040 mdr=0x00000003 wdt=199979 recov=0 "
     "regs=0,10000,3,7,0,3,10020,10000,0,8,3,10020,3,0,0 mem=2cc328f6 "
     "emit=0/00000000 icache=15/6/0 dcache=0/1/0 "
     "edm=[illegal_opcode@20,0x50,'illegal opcode 0xff in word "
     "0xff000000';] | trace=59209f37db6a769c/68 "
     "hook=20/ac81d2ff1bc50272 inj=21/2/29/0",
     "stop=halted ran=125 instret=145 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000019,1001c,6,7,0,8,1003c,10000,8,8,80000019,10020,80000019,0,78"
     " mem=6d9f2ebc emit=1/e1ed4429 icache=136/9/0 dcache=7/2/0 edm=[]"
     " | trace=8be98afa9dd79637/500 hook=145/d9cccdb8af4cba2d "
     "inj=145/19/55/0"},
    {"undefined_sys_code", nullptr, 20,
     [](Cpu& cpu, const AssembledProgram&) { cpu.set_ir(0x02000009u); },
     false,
     "stop=edm ran=1 instret=20 iter=0 halted=1 pc=0x00000050 "
     "ir=0x02000009 mar=0x00010040 mdr=0x00000003 wdt=199979 recov=0 "
     "regs=0,10000,3,7,0,3,10020,10000,0,8,3,10020,3,0,0 mem=2cc328f6 "
     "emit=0/00000000 icache=15/6/0 dcache=0/1/0 "
     "edm=[illegal_opcode@20,0x50,'undefined SYS code 9';] | "
     "trace=59209f37db6a769c/68 hook=20/ac81d2ff1bc50272 inj=21/2/29/0",
     "stop=halted ran=125 instret=145 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000019,1001c,6,7,0,8,1003c,10000,8,8,80000019,10020,80000019,0,78"
     " mem=6d9f2ebc emit=1/e1ed4429 icache=136/9/0 dcache=7/2/0 edm=[]"
     " | trace=3eecd7a2bc57f193/501 hook=145/d9cccdb8af4cba2d "
     "inj=145/19/55/0"},
    {"misaligned_fetch", nullptr, 20,
     [](Cpu& cpu, const AssembledProgram&) { cpu.set_pc(cpu.pc() + 2); },
     false,
     "stop=edm ran=1 instret=21 iter=0 halted=1 pc=0x00000056 "
     "ir=0x20990001 mar=0x00010040 mdr=0x00000003 wdt=199979 recov=0 "
     "regs=0,10000,3,7,0,3,10020,10000,1,8,3,10020,3,0,0 mem=2cc328f6 "
     "emit=0/00000000 icache=15/6/0 dcache=0/1/0 "
     "edm=[misaligned_access@21,0x56,'fetch from misaligned pc "
     "0x00000056';] | trace=715d70e7c01485cf/71 "
     "hook=20/ac81d2ff1bc50272 inj=21/2/29/0",
     "stop=halted ran=111 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000016,1001c,6,7,0,8,1003c,10000,8,8,80000016,10020,80000016,0,78"
     " mem=6d9f2ebc emit=1/b98e547f icache=122/9/0 dcache=6/2/0 edm=[]"
     " | trace=1c48c502cc27fc12/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/54/0"},
    {"pc_unmapped", nullptr, 20,
     [](Cpu& cpu, const AssembledProgram&) { cpu.set_pc(0x00F00000u); },
     false,
     "stop=edm ran=1 instret=21 iter=0 halted=1 pc=0x00f00004 "
     "ir=0x20990001 mar=0x00010040 mdr=0x00000003 wdt=199979 recov=0 "
     "regs=0,10000,3,7,0,3,10020,10000,1,8,3,10020,3,0,0 mem=2cc328f6 "
     "emit=0/00000000 icache=15/7/0 dcache=0/1/0 "
     "edm=[pc_out_of_range@21,0xf00004,'fetch outside program memory "
     "at 0x00f00004';] | trace=90920c2e1e23f3ed/71 "
     "hook=20/ac81d2ff1bc50272 inj=22/2/29/0",
     "stop=budget_exhausted ran=5000 instret=5020 iter=0 halted=0 "
     "pc=0x00f04e20 ir=0x00000000 mar=0x00010040 mdr=0x00000003 "
     "wdt=200000 recov=0 "
     "regs=0,10000,3,7,0,3,10020,10000,1,8,3,10020,3,0,0 mem=2cc328f6 "
     "emit=0/00000000 icache=15/5006/0 dcache=0/1/0 edm=[] | "
     "trace=f7e9b6241630a04c/5070 hook=5020/0c9687125b738dc6 "
     "inj=5021/2/29/0"},
    {"pc_in_data", nullptr, 20,
     [](Cpu& cpu, const AssembledProgram&) { JumpTo(cpu, 0x00010000u); },
     false,
     "stop=edm ran=1 instret=21 iter=0 halted=1 pc=0x00010004 "
     "ir=0x00000003 mar=0x00010040 mdr=0x00000003 wdt=199979 recov=0 "
     "regs=0,10000,3,7,0,3,10020,10000,0,8,3,10020,3,0,0 mem=2cc328f6 "
     "emit=0/00000000 icache=15/7/0 dcache=0/1/0 "
     "edm=[pc_out_of_range@21,0x10004,'fetch outside program memory at"
     " 0x00010004';] | trace=726dacac59306aa5/69 "
     "hook=20/ac81d2ff1bc50272 inj=22/2/29/0",
     "stop=budget_exhausted ran=5000 instret=5020 iter=0 halted=0 "
     "pc=0x00014e20 ir=0x00000000 mar=0x00010040 mdr=0x00000003 "
     "wdt=200000 recov=0 "
     "regs=0,10000,3,7,0,3,10020,10000,0,8,3,10020,3,0,0 mem=2cc328f6 "
     "emit=0/00000000 icache=15/5006/0 dcache=0/1/0 edm=[] | "
     "trace=59f15e7fafff40a5/5068 hook=5020/61deab856bf38dc6 "
     "inj=5021/2/29/0"},
    {"misaligned_load", nullptr, 12,
     [](Cpu& cpu, const AssembledProgram&) { cpu.set_reg(8, cpu.reg(8) ^ 1); },
     false,
     "stop=edm ran=14 instret=25 iter=0 halted=1 pc=0x0000002c "
     "ir=0x30320000 mar=0x00010005 mdr=0x00000003 wdt=199996 recov=0 "
     "regs=4,10005,3,7,0,3,10020,10001,1,8,3,10020,3,0,0 mem=2cc328f6 "
     "emit=0/00000000 icache=20/6/0 dcache=0/1/0 "
     "edm=[misaligned_access@25,0x2c,'misaligned load at 0x00010005';]"
     " | trace=825533a96bd64721/83 hook=25/09249768a98f3f09 "
     "inj=26/2/29/0",
     "stop=halted ran=119 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000016,1001d,6,7,0,8,1003c,10001,8,8,80000016,10020,80000016,0,78"
     " mem=6d9f2ebc emit=1/b98e547f icache=122/9/0 dcache=6/2/0 edm=[]"
     " | trace=6f3977c437486c64/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/54/0"},
    {"misaligned_store", nullptr, 12,
     [](Cpu& cpu, const AssembledProgram&) {
       cpu.set_reg(12, cpu.reg(12) ^ 2);
     },
     false,
     "stop=edm ran=6 instret=17 iter=0 halted=1 pc=0x00000044 "
     "ir=0x31570000 mar=0x00010022 mdr=0x00000000 wdt=199982 recov=0 "
     "regs=0,10000,3,7,0,3,10022,10000,0,8,3,10022,3,0,0 mem=33a4e301 "
     "emit=0/00000000 icache=13/5/0 dcache=0/1/0 "
     "edm=[misaligned_access@17,0x44,'misaligned store at "
     "0x00010022';] | trace=4cd885421d79a890/58 "
     "hook=17/12069635261ed02d inj=18/1/24/0",
     "stop=halted ran=119 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000016,1001c,6,7,0,8,1003e,10000,8,8,80000016,10022,80000016,0,78"
     " mem=34adec1c emit=1/b98e547f icache=122/9/0 dcache=6/2/0 edm=[]"
     " | trace=bc76bcc79950e14a/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/54/0"},
    {"load_unmapped", nullptr, 12,
     [](Cpu& cpu, const AssembledProgram&) { cpu.set_reg(8, 0x00500000u); },
     false,
     "stop=edm ran=14 instret=25 iter=0 halted=1 pc=0x0000002c "
     "ir=0x30320000 mar=0x00500004 mdr=0x00000003 wdt=199996 recov=0 "
     "regs=4,500004,3,7,0,3,10020,500000,1,8,3,10020,3,0,0 "
     "mem=2cc328f6 emit=0/00000000 icache=20/6/0 dcache=0/2/0 "
     "edm=[mem_protection@25,0x2c,'load fault at 0x00500004';] | "
     "trace=7c614eda05b76539/83 hook=25/09249768a98f3f09 inj=26/3/29/0",
     "stop=halted ran=119 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=3,50001c,0,7,0,8,1003c,500000,8,8,3,10020,3,0,78 "
     "mem=f30f8b9a emit=1/33f170f2 icache=122/9/0 dcache=0/8/0 edm=[] "
     "| trace=3c5848c5992948ab/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/50/0"},
    {"store_to_code", nullptr, 12,
     [](Cpu& cpu, const AssembledProgram&) { cpu.set_reg(12, 0x00000100u); },
     false,
     "stop=edm ran=6 instret=17 iter=0 halted=1 pc=0x00000044 "
     "ir=0x31570000 mar=0x00000100 mdr=0x00000000 wdt=199982 recov=0 "
     "regs=0,10000,3,7,0,3,100,10000,0,8,3,100,3,0,0 mem=33a4e301 "
     "emit=0/00000000 icache=13/5/0 dcache=0/1/0 "
     "edm=[mem_protection@17,0x44,'store fault at 0x00000100';] | "
     "trace=079229c3e021b150/58 hook=17/12069635261ed02d inj=18/1/24/0",
     "stop=halted ran=119 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000016,1001c,6,7,0,8,11c,10000,8,8,80000016,100,80000016,0,78"
     " mem=0f7203da emit=1/b98e547f icache=122/9/0 dcache=6/2/0 edm=[]"
     " | trace=3251890ed2fc53f6/453 hook=131/4cf4478d1e093342 "
     "inj=131/9/46/0"},
    {"divide_by_zero", nullptr, 12,
     [](Cpu& cpu, const AssembledProgram&) { cpu.set_reg(4, 0); }, false,
     "stop=edm ran=3 instret=14 iter=0 halted=1 pc=0x00000038 "
     "ir=0x13534000 mar=0x00010000 mdr=0x00000003 wdt=199985 recov=0 "
     "regs=0,10000,3,0,0,0,0,10000,0,8,3,10020,3,0,0 mem=33a4e301 "
     "emit=0/00000000 icache=11/4/0 dcache=0/1/0 "
     "edm=[div_by_zero@14,0x38,'divide by zero';] | "
     "trace=20d88c3610637ac1/46 hook=14/1124dfa6d251e083 inj=15/1/20/0",
     "stop=halted ran=119 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000016,1001c,6,0,0,8,1003c,10000,8,8,80000016,10020,80000016,0,78"
     " mem=292e2928 emit=1/b98e547f icache=122/9/0 dcache=6/2/0 edm=[]"
     " | trace=4512c3a80c095d2e/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/54/0"},
    {"add_overflow", EnableOverflow, 12,
     [](Cpu& cpu, const AssembledProgram&) { cpu.set_reg(11, 0x7ffffff0u); },
     false,
     "stop=edm ran=74 instret=85 iter=0 halted=1 pc=0x0000003c "
     "ir=0x11639000 mar=0x00010014 mdr=0x80000000 wdt=199992 recov=0 "
     "regs=14,10014,80000000,7,edb6db6e,1,10030,10000,5,8,fffffffe,10020,8000000e,0,0"
     " mem=3ecb9953 emit=0/00000000 icache=80/6/0 dcache=4/2/0 "
     "edm=[arith_overflow@85,0x3c,'sub overflow';] | "
     "trace=e483e725b1b82950/300 hook=85/7465a2fc3036bebf "
     "inj=86/11/37/0",
     "stop=halted ran=120 instret=132 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=6,1001c,6,7,0,8,1003c,10000,8,8,6,10020,80000016,0,78 "
     "mem=6d9f2ebc emit=1/042f80c0 icache=123/9/0 dcache=6/2/0 edm=[] "
     "| trace=1fd39009f0f76a31/454 hook=132/5194aa16a31b918a "
     "inj=132/17/54/0"},
    {"sub_overflow", EnableOverflow, 12, nullptr, false,
     "stop=edm ran=74 instret=85 iter=0 halted=1 pc=0x0000003c "
     "ir=0x11639000 mar=0x00010014 mdr=0x80000000 wdt=199992 recov=0 "
     "regs=14,10014,80000000,7,edb6db6e,1,10030,10000,5,8,8000000e,10020,8000000e,0,0"
     " mem=3ecb9953 emit=0/00000000 icache=80/6/0 dcache=4/2/0 "
     "edm=[arith_overflow@85,0x3c,'sub overflow';] | "
     "trace=2decee5909299598/300 hook=85/7465a2fc3036bebf "
     "inj=86/11/37/0",
     "stop=halted ran=119 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000016,1001c,6,7,0,8,1003c,10000,8,8,80000016,10020,80000016,0,78"
     " mem=6d9f2ebc emit=1/b98e547f icache=122/9/0 dcache=6/2/0 edm=[]"
     " | trace=fc084943d379deb4/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/54/0"},
    {"div_overflow", EnableOverflow, 12,
     [](Cpu& cpu, const AssembledProgram&) { cpu.set_reg(4, 0xffffffffu); },
     false,
     "stop=edm ran=73 instret=84 iter=0 halted=1 pc=0x00000038 "
     "ir=0x13534000 mar=0x00010014 mdr=0x80000000 wdt=199993 recov=0 "
     "regs=14,10014,80000000,ffffffff,fffffffb,1,10030,10000,5,8,8000000e,10020,8000000e,0,0"
     " mem=08a19b1d emit=0/00000000 icache=79/6/0 dcache=4/2/0 "
     "edm=[arith_overflow@84,0x38,'div overflow';] | "
     "trace=479ba85766774548/296 hook=84/e2b8f4bdd001c412 "
     "inj=85/11/37/0",
     "stop=halted ran=119 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000016,1001c,6,ffffffff,fffffffa,8,1003c,10000,8,8,80000016,10020,80000016,0,78"
     " mem=a14ceb50 emit=1/b98e547f icache=122/9/0 dcache=6/2/0 edm=[]"
     " | trace=4f06f714f3567d36/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/54/0"},
    {"icache_parity", nullptr, 15,
     [](Cpu& cpu, const AssembledProgram& program) {
       FlipCacheWord(cpu.icache(), program.symbols.at("loop") + 4, 1u << 9);
     },
     false,
     "stop=edm ran=9 instret=24 iter=0 halted=1 pc=0x00000028 "
     "ir=0x24190002 mar=0x00010040 mdr=0x00000003 wdt=199998 recov=0 "
     "regs=4,10000,3,7,0,3,10020,10000,1,8,3,10020,3,0,0 mem=2cc328f6 "
     "emit=0/00000000 icache=19/6/1 dcache=0/1/0 "
     "edm=[icache_parity@24,0x28,'instruction cache parity at "
     "0x00000028';] | trace=70f746d26c77f9f6/78 "
     "hook=23/d7c8e54093392804 inj=25/2/29/0",
     "stop=halted ran=116 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000016,1001c,6,7,0,8,1003c,10000,8,8,80000016,10020,80000016,0,78"
     " mem=6d9f2ebc emit=1/b98e547f icache=122/9/7 dcache=6/2/0 edm=[]"
     " | trace=d6291130865f25c0/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/54/0"},
    {"dcache_parity", nullptr, 15,
     [](Cpu& cpu, const AssembledProgram& program) {
       FlipCacheWord(cpu.dcache(), program.symbols.at("table") + 4, 1u << 3);
     },
     false,
     "stop=edm ran=11 instret=25 iter=0 halted=1 pc=0x0000002c "
     "ir=0x30320000 mar=0x00010004 mdr=0x00000003 wdt=199996 recov=0 "
     "regs=4,10004,3,7,0,3,10020,10000,1,8,3,10020,3,0,0 mem=2cc328f6 "
     "emit=0/00000000 icache=20/6/0 dcache=1/1/1 "
     "edm=[dcache_parity@25,0x2c,'data cache parity at 0x00010004';] |"
     " trace=35566205fc829500/83 hook=25/09249768a98f3f09 "
     "inj=26/3/29/0",
     "stop=halted ran=116 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=8000001e,1001c,6,7,0,8,1003c,10000,8,8,8000001e,10020,8000001e,0,78"
     " mem=5633d975 emit=1/7c3a7c90 icache=122/9/0 dcache=6/2/1 edm=[]"
     " | trace=db8e4b7216f29841/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/54/0"},
    {"watchdog", ShortWatchdog, 12,
     [](Cpu& cpu, const AssembledProgram& program) {
       JumpTo(cpu, program.symbols.at("spin"));
     },
     false,
     "stop=edm ran=19 instret=30 iter=0 halted=1 pc=0x00000088 "
     "ir=0x4000ffff mar=0x00010000 mdr=0x00000003 wdt=0 recov=0 "
     "regs=0,10000,3,7,0,0,0,10000,0,8,0,10020,0,0,0 mem=33a4e301 "
     "emit=0/00000000 icache=26/5/0 dcache=0/1/0 "
     "edm=[watchdog@30,0x88,'watchdog expired';] | "
     "trace=640617747ffbb625/90 hook=30/40ad9627f608f407 inj=31/1/24/0",
     "stop=budget_exhausted ran=5000 instret=5012 iter=0 halted=0 "
     "pc=0x00000088 ir=0x4000ffff mar=0x00010000 mdr=0x00000003 wdt=30"
     " recov=0 regs=0,10000,3,7,0,0,0,10000,0,8,0,10020,0,0,0 "
     "mem=33a4e301 emit=0/00000000 icache=5008/5/0 dcache=0/1/0 edm=[]"
     " | trace=57b4e66d4158a0aa/15036 hook=5012/e5298728decb0e22 "
     "inj=5013/1/24/0"},
    {"assertion", nullptr, 12,
     [](Cpu& cpu, const AssembledProgram&) {
       cpu.set_reg(13, cpu.reg(13) ^ 1);
     },
     false,
     "stop=edm ran=118 instret=129 iter=0 halted=1 pc=0x00000080 "
     "ir=0x02000002 mar=0xffff0020 mdr=0x00000008 wdt=199990 recov=0 "
     "regs=80000016,1001c,6,7,0,8,1003c,10000,8,8,80000016,10020,80000017,0,78"
     " mem=6d9f2ebc emit=1/b98e547f icache=121/9/0 dcache=6/2/0 "
     "edm=[assertion@129,0x80,'executable assertion failed "
     "(r1=0x80000016)';] | trace=4227261dc2f366b0/449 "
     "hook=129/edb300574190203d inj=130/17/54/0",
     "stop=halted ran=120 instret=132 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000016,1001c,6,7,0,8,1003c,10000,8,8,80000016,10020,80000017,0,78"
     " mem=6d9f2ebc emit=1/b98e547f icache=123/9/0 dcache=6/2/0 edm=[]"
     " | trace=47601d624ab0c78a/454 hook=132/5194aa16a31b918a "
     "inj=132/17/54/0"},
    {"trap_divide_by_zero", nullptr, 12,
     [](Cpu& cpu, const AssembledProgram&) { cpu.set_reg(4, 0); }, true,
     "stop=halted ran=8 instret=19 iter=0 halted=1 pc=0x0000009c "
     "ir=0x01000000 mar=0x00010000 mdr=0x00000003 wdt=199995 recov=1 "
     "regs=dead,10000,3,0,0,0,0,10000,0,8,3,10020,3,0,0 mem=33a4e301 "
     "emit=1/195206fe icache=14/6/0 dcache=0/1/0 "
     "edm=[div_by_zero@14,0x38,'divide by zero';] | "
     "trace=7c4c5dcaf0bedf2f/55 hook=19/aab9dd841e72af82 inj=20/1/28/0",
     "stop=halted ran=119 instret=131 iter=0 halted=1 pc=0x00000078 "
     "ir=0x01000000 mar=0xffff0020 mdr=0x00000008 wdt=200000 recov=0 "
     "regs=80000016,1001c,6,0,0,8,1003c,10000,8,8,80000016,10020,80000016,0,78"
     " mem=292e2928 emit=1/b98e547f icache=122/9/0 dcache=6/2/0 edm=[]"
     " | trace=4512c3a80c095d2e/453 hook=131/4cf4478d1e093342 "
     "inj=131/17/54/0"},
    {"trap_watchdog", ShortWatchdog, 12,
     [](Cpu& cpu, const AssembledProgram& program) {
       JumpTo(cpu, program.symbols.at("spin"));
     },
     true,
     "stop=halted ran=24 instret=35 iter=0 halted=1 pc=0x0000009c "
     "ir=0x01000000 mar=0x00010000 mdr=0x00000003 wdt=25 recov=1 "
     "regs=dead,10000,3,7,0,0,0,10000,0,8,0,10020,0,0,0 mem=33a4e301 "
     "emit=1/195206fe icache=30/6/0 dcache=0/1/0 "
     "edm=[watchdog@30,0x88,'watchdog expired';] | "
     "trace=0d2dd245245e9db3/99 hook=35/5e9101a903582a8e inj=36/1/28/0",
     "stop=budget_exhausted ran=5000 instret=5012 iter=0 halted=0 "
     "pc=0x00000088 ir=0x4000ffff mar=0x00010000 mdr=0x00000003 wdt=30"
     " recov=0 regs=0,10000,3,7,0,0,0,10000,0,8,0,10020,0,0,0 "
     "mem=33a4e301 emit=0/00000000 icache=5008/5/0 dcache=0/1/0 edm=[]"
     " | trace=57b4e66d4158a0aa/15036 hook=5012/e5298728decb0e22 "
     "inj=5013/1/24/0"},
};

void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }

// Runs `c` to the trigger, injects, runs to termination and returns the
// architectural fingerprint; with `instruments`, the tracer, hook and
// injector are attached from reset on.
std::string RunFaultCase(const FaultCase& c, bool all_edms_disabled,
                         Instruments* instruments) {
  target::TestCardOptions options;
  if (c.configure != nullptr) c.configure(options.cpu_config);
  if (all_edms_disabled) {
    for (int type = 0; type < kEdmTypeCount; ++type) {
      options.cpu_config.edm.SetEnabled(static_cast<EdmType>(type), false);
    }
  }
  const auto program = Assemble(kFaultProgram);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return "";
  target::TestCard card(options);
  EXPECT_TRUE(card.Initialize().ok());
  EXPECT_TRUE(card.LoadProgram(*program).ok());
  card.ResetTarget(program->entry);
  Cpu& cpu = card.cpu();
  if (c.trap) cpu.set_trap_handler(true, program->symbols.at("handler"));
  if (instruments != nullptr) instruments->Install(cpu);

  constexpr std::uint64_t kBudget = 5000;
  Breakpoint trigger;
  trigger.kind = Breakpoint::Kind::kInstretReached;
  trigger.count = c.at_instret;
  card.SetBreakpoint(trigger);
  const RunResult to_trigger = card.Run(kBudget);
  EXPECT_EQ(to_trigger.reason, StopReason::kBreakpoint);
  if (c.inject != nullptr) c.inject(cpu, *program);
  const RunResult result = card.Run(kBudget);
  return ArchFingerprint(cpu, result);
}

class FaultFingerprint : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultFingerprint, OutcomeIsPinned) {
  const FaultCase& c = GetParam();
  for (const bool disabled : {false, true}) {
    SCOPED_TRACE(disabled ? "every EDM disabled" : "default EDMs");
    const std::string bare = RunFaultCase(c, disabled, nullptr);
    Instruments instruments;
    const std::string instrumented = RunFaultCase(c, disabled, &instruments);
    // Instruments observe; they never change the outcome.
    EXPECT_EQ(instrumented, bare);
    EXPECT_EQ(bare + " | " + instruments.Text(),
              disabled ? c.disabled : c.enabled);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table, FaultFingerprint, ::testing::ValuesIn(kFaultCases),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace goofi::sim
