// GOOFI-32: the instruction set of the simulated Thor-RD-like target CPU.
//
// The paper's target is the Thor RD, a rad-hard processor for space
// applications with parity-protected caches and IEEE 1149.1 scan logic.
// The tool never depends on Thor's ISA — only on its state elements and
// error-detection mechanisms — so we define a compact 32-bit RISC ISA
// that is easy to assemble workloads for (DESIGN.md, substitutions).
//
// Encoding (32 bits):
//   [31:24] opcode   [23:20] ra   [19:16] rb   [15:12] rc   [15:0] imm16
// R-type uses ra,rb,rc ([11:0] zero); I-type uses ra,rb,imm16.
//
// Registers: r0 reads as zero (writes ignored), r1..r13 general,
// r14 = sp (stack pointer), r15 = lr (link register) by convention.
//
// Immediates: arithmetic immediates (ADDI, SLTI, loads/stores, branches,
// JAL) are sign-extended; logical immediates (ANDI, ORI, XORI) are
// zero-extended. Branch/JAL offsets count words relative to pc+4.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "util/status.h"

namespace goofi::sim {

enum class Opcode : std::uint8_t {
  kNop  = 0x00,
  kHalt = 0x01,
  // SYS imm16 — software signal to the harness; see SysCode.
  kSys  = 0x02,
  // ra = imm16 << 16
  kLui  = 0x08,

  // R-type: ra = rb OP rc
  kAdd  = 0x10,
  kSub  = 0x11,
  kMul  = 0x12,
  kDiv  = 0x13,  // signed; divide-by-zero raises an EDM event
  kAnd  = 0x14,
  kOr   = 0x15,
  kXor  = 0x16,
  kSll  = 0x17,  // shift amount = rc & 31
  kSrl  = 0x18,
  kSra  = 0x19,
  kSlt  = 0x1a,  // ra = (signed) rb < rc
  kSltu = 0x1b,

  // I-type: ra = rb OP imm
  kAddi = 0x20,
  kAndi = 0x21,
  kOri  = 0x22,
  kXori = 0x23,
  kSlli = 0x24,
  kSrli = 0x25,
  kSrai = 0x26,
  kSlti = 0x27,

  // Memory: address = rb + imm (sign-extended)
  kLd   = 0x30,  // ra = mem32[rb+imm]
  kSt   = 0x31,  // mem32[rb+imm] = ra
  kLdb  = 0x32,  // ra = zero-extended mem8[rb+imm]
  kStb  = 0x33,  // mem8[rb+imm] = ra & 0xff

  // Branches: compare ra, rb; target = pc + 4 + imm*4
  kBeq  = 0x40,
  kBne  = 0x41,
  kBlt  = 0x42,  // signed
  kBge  = 0x43,  // signed
  kBltu = 0x44,
  kBgeu = 0x45,

  // Jumps
  kJal  = 0x46,  // ra = pc + 4; pc = pc + 4 + imm*4
  kJalr = 0x47,  // ra = pc + 4; pc = (rb + imm) & ~3
};

// SYS immediate codes understood by the simulator/harness.
enum class SysCode : std::uint16_t {
  kIterEnd = 1,     // end of a control-loop iteration (environment exchange)
  kAssertFail = 2,  // executable assertion fired (application-level EDM)
  kWdtKick = 3,     // reset the watchdog timer
  kEmit = 4,        // append r1 to the workload output stream
  kRecovery = 5,    // best-effort recovery marker (companion paper [12])
};

struct Instruction {
  Opcode opcode = Opcode::kNop;
  std::uint8_t ra = 0;
  std::uint8_t rb = 0;
  std::uint8_t rc = 0;
  std::int32_t imm = 0;       // sign- or zero-extended per the opcode
  std::uint32_t raw = 0;      // original encoding
};

// Per-opcode decode properties, indexed by the opcode byte. Undefined
// opcodes have every property false.
struct OpcodeProperties {
  bool valid = false;
  bool signed_immediate = false;  // ADDI/SLTI/mem/branch/JAL/JALR
  bool r_type = false;            // ra = rb OP rc
};

inline constexpr std::array<OpcodeProperties, 256> kOpcodeProperties = [] {
  std::array<OpcodeProperties, 256> table{};
  const auto define = [&table](Opcode opcode, bool signed_immediate,
                               bool r_type) {
    table[static_cast<std::uint8_t>(opcode)] = {true, signed_immediate,
                                                r_type};
  };
  for (Opcode op : {Opcode::kNop, Opcode::kHalt, Opcode::kSys, Opcode::kLui,
                    Opcode::kAndi, Opcode::kOri, Opcode::kXori, Opcode::kSlli,
                    Opcode::kSrli, Opcode::kSrai}) {
    define(op, false, false);
  }
  for (Opcode op : {Opcode::kAdd, Opcode::kSub, Opcode::kMul, Opcode::kDiv,
                    Opcode::kAnd, Opcode::kOr, Opcode::kXor, Opcode::kSll,
                    Opcode::kSrl, Opcode::kSra, Opcode::kSlt,
                    Opcode::kSltu}) {
    define(op, false, true);
  }
  for (Opcode op : {Opcode::kAddi, Opcode::kSlti, Opcode::kLd, Opcode::kSt,
                    Opcode::kLdb, Opcode::kStb, Opcode::kBeq, Opcode::kBne,
                    Opcode::kBlt, Opcode::kBge, Opcode::kBltu, Opcode::kBgeu,
                    Opcode::kJal, Opcode::kJalr}) {
    define(op, true, false);
  }
  return table;
}();

// Is `opcode` a defined GOOFI-32 opcode?
inline bool IsValidOpcode(std::uint8_t opcode) {
  return kOpcodeProperties[opcode].valid;
}

// Immediate handling class of an opcode.
inline bool UsesSignedImmediate(Opcode opcode) {
  return kOpcodeProperties[static_cast<std::uint8_t>(opcode)]
      .signed_immediate;
}
bool UsesLogicalImmediate(Opcode opcode); // ANDI/ORI/XORI (zero-extended)
inline bool IsRType(Opcode opcode) {
  return kOpcodeProperties[static_cast<std::uint8_t>(opcode)].r_type;
}
bool IsBranch(Opcode opcode);
bool IsCall(Opcode opcode);  // JAL/JALR (trigger class "subprogram call")

// Syntactic register def/use sets of one decoded instruction — the
// single source of truth shared by the CPU's trace hooks (asserted in
// debug builds), the access recorder's event streams and the static
// analyzer (src/analysis). Masks are bit-per-register (bit N = rN) and
// include r0; consumers that reason about liveness mask r0 out
// themselves (it reads as zero and ignores writes).
struct RegDefUse {
  std::uint16_t uses = 0;
  std::uint16_t defs = 0;
  bool reads_memory = false;   // LD/LDB, plus STB (partial-word write
                               // leaves the rest of the word live)
  bool writes_memory = false;  // ST/STB
};
RegDefUse InstructionDefUse(const Instruction& instruction);

std::uint32_t Encode(const Instruction& instruction);

// Field extraction of a word whose opcode IsValidOpcode accepts; Decode
// is the checked entry point.
inline Instruction DecodeFields(std::uint32_t word) {
  Instruction instruction;
  instruction.opcode = static_cast<Opcode>(word >> 24);
  instruction.ra = static_cast<std::uint8_t>((word >> 20) & 0xf);
  instruction.rb = static_cast<std::uint8_t>((word >> 16) & 0xf);
  instruction.rc = static_cast<std::uint8_t>((word >> 12) & 0xf);
  instruction.raw = word;
  const std::uint16_t imm16 = static_cast<std::uint16_t>(word & 0xffff);
  if (UsesSignedImmediate(instruction.opcode)) {
    instruction.imm = static_cast<std::int16_t>(imm16);
  } else {
    instruction.imm = imm16;  // zero-extended (logical / LUI / SYS)
  }
  return instruction;
}

// Decode; an undefined opcode yields an error (the CPU raises the
// illegal-opcode EDM from it).
Result<Instruction> Decode(std::uint32_t word);

const char* OpcodeMnemonic(Opcode opcode);
std::string Disassemble(const Instruction& instruction);

}  // namespace goofi::sim
