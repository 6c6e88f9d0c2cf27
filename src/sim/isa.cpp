#include "sim/isa.h"

#include "util/strings.h"

namespace goofi::sim {

bool UsesLogicalImmediate(Opcode opcode) {
  switch (opcode) {
    case Opcode::kAndi: case Opcode::kOri: case Opcode::kXori:
    case Opcode::kSlli: case Opcode::kSrli: case Opcode::kSrai:
    case Opcode::kLui: case Opcode::kSys:
      return true;
    default:
      return false;
  }
}

bool IsBranch(Opcode opcode) {
  switch (opcode) {
    case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
    case Opcode::kBge: case Opcode::kBltu: case Opcode::kBgeu:
      return true;
    default:
      return false;
  }
}

bool IsCall(Opcode opcode) {
  return opcode == Opcode::kJal || opcode == Opcode::kJalr;
}

RegDefUse InstructionDefUse(const Instruction& instruction) {
  const auto bit = [](unsigned reg) {
    return static_cast<std::uint16_t>(1u << (reg & 0xf));
  };
  RegDefUse du;
  switch (instruction.opcode) {
    case Opcode::kNop:
    case Opcode::kHalt:
      break;
    case Opcode::kSys:
      // kEmit copies r1 into the output stream; the other codes touch no
      // architectural register (kAssertFail only formats r1 into its
      // diagnostic, which is not a dataflow use).
      if (static_cast<SysCode>(static_cast<std::uint16_t>(instruction.imm)) ==
          SysCode::kEmit) {
        du.uses = bit(1);
      }
      break;
    case Opcode::kLui:
      du.defs = bit(instruction.ra);
      break;
    case Opcode::kLd:
    case Opcode::kLdb:
      du.uses = bit(instruction.rb);
      du.defs = bit(instruction.ra);
      du.reads_memory = true;
      break;
    case Opcode::kSt:
      du.uses = bit(instruction.ra) | bit(instruction.rb);
      du.writes_memory = true;
      break;
    case Opcode::kStb:
      du.uses = bit(instruction.ra) | bit(instruction.rb);
      du.reads_memory = true;  // read-modify-write of the containing word
      du.writes_memory = true;
      break;
    case Opcode::kJal:
      du.defs = bit(instruction.ra);
      break;
    case Opcode::kJalr:
      du.uses = bit(instruction.rb);
      du.defs = bit(instruction.ra);
      break;
    default:
      if (IsRType(instruction.opcode)) {
        du.uses = bit(instruction.rb) | bit(instruction.rc);
        du.defs = bit(instruction.ra);
      } else if (IsBranch(instruction.opcode)) {
        du.uses = bit(instruction.ra) | bit(instruction.rb);
      } else {
        // I-type ALU (ADDI..SLTI): ra = rb OP imm.
        du.uses = bit(instruction.rb);
        du.defs = bit(instruction.ra);
      }
      break;
  }
  return du;
}

std::uint32_t Encode(const Instruction& instruction) {
  std::uint32_t word =
      static_cast<std::uint32_t>(instruction.opcode) << 24 |
      (static_cast<std::uint32_t>(instruction.ra) & 0xf) << 20 |
      (static_cast<std::uint32_t>(instruction.rb) & 0xf) << 16;
  if (IsRType(instruction.opcode)) {
    word |= (static_cast<std::uint32_t>(instruction.rc) & 0xf) << 12;
  } else {
    word |= static_cast<std::uint32_t>(instruction.imm) & 0xffff;
  }
  return word;
}

Result<Instruction> Decode(std::uint32_t word) {
  const std::uint8_t opcode_bits = static_cast<std::uint8_t>(word >> 24);
  if (!IsValidOpcode(opcode_bits)) {
    return InvalidArgumentError(
        StrFormat("illegal opcode 0x%02x in word 0x%08x", opcode_bits, word));
  }
  return DecodeFields(word);
}

const char* OpcodeMnemonic(Opcode opcode) {
  switch (opcode) {
    case Opcode::kNop: return "nop";
    case Opcode::kHalt: return "halt";
    case Opcode::kSys: return "sys";
    case Opcode::kLui: return "lui";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kMul: return "mul";
    case Opcode::kDiv: return "div";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kSll: return "sll";
    case Opcode::kSrl: return "srl";
    case Opcode::kSra: return "sra";
    case Opcode::kSlt: return "slt";
    case Opcode::kSltu: return "sltu";
    case Opcode::kAddi: return "addi";
    case Opcode::kAndi: return "andi";
    case Opcode::kOri: return "ori";
    case Opcode::kXori: return "xori";
    case Opcode::kSlli: return "slli";
    case Opcode::kSrli: return "srli";
    case Opcode::kSrai: return "srai";
    case Opcode::kSlti: return "slti";
    case Opcode::kLd: return "ld";
    case Opcode::kSt: return "st";
    case Opcode::kLdb: return "ldb";
    case Opcode::kStb: return "stb";
    case Opcode::kBeq: return "beq";
    case Opcode::kBne: return "bne";
    case Opcode::kBlt: return "blt";
    case Opcode::kBge: return "bge";
    case Opcode::kBltu: return "bltu";
    case Opcode::kBgeu: return "bgeu";
    case Opcode::kJal: return "jal";
    case Opcode::kJalr: return "jalr";
  }
  return "?";
}

std::string Disassemble(const Instruction& i) {
  const char* m = OpcodeMnemonic(i.opcode);
  switch (i.opcode) {
    case Opcode::kNop:
    case Opcode::kHalt:
      return m;
    case Opcode::kSys:
      return StrFormat("%s %d", m, i.imm);
    case Opcode::kLui:
      return StrFormat("%s r%u, 0x%x", m, i.ra, i.imm);
    case Opcode::kLd:
    case Opcode::kLdb:
      return StrFormat("%s r%u, [r%u%+d]", m, i.ra, i.rb, i.imm);
    case Opcode::kSt:
    case Opcode::kStb:
      return StrFormat("%s r%u, [r%u%+d]", m, i.ra, i.rb, i.imm);
    case Opcode::kJal:
      return StrFormat("%s r%u, %+d", m, i.ra, i.imm);
    case Opcode::kJalr:
      return StrFormat("%s r%u, r%u%+d", m, i.ra, i.rb, i.imm);
    default:
      if (IsRType(i.opcode)) {
        return StrFormat("%s r%u, r%u, r%u", m, i.ra, i.rb, i.rc);
      }
      if (IsBranch(i.opcode)) {
        return StrFormat("%s r%u, r%u, %+d", m, i.ra, i.rb, i.imm);
      }
      return StrFormat("%s r%u, r%u, %d", m, i.ra, i.rb, i.imm);
  }
}

}  // namespace goofi::sim
