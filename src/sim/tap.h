// IEEE 1149.1 (JTAG) TAP controller for the simulated Thor RD.
//
// The paper's SCIFI technique "injects faults via the built-in
// test-logic, i.e. boundary scan-chains and internal scan-chains ...
// conforming to the IEEE standard for boundary scan". We model the
// full 16-state TAP FSM: the test card reaches the chains only by
// clocking TMS/TDI sequences through this controller, so scan access
// costs shift-cycles (TCK) proportional to chain length — the quantity
// bench_scan_chain reports as tck_per_read. Host time is not: a Shift-DR
// pass (ShiftDr) moves all its bits with word operations, so a read of
// the 5,642-bit internal chain still counts 11,292 TCK but costs about
// as much host time as capturing the chain once.
//
// Supported TAP instructions (4-bit IR):
//   IDCODE        0x1  -> 32-bit device identification register
//   SCAN_INTERNAL 0x2  -> the internal chain of BuildThorRdScanChains
//   SCAN_BOUNDARY 0x3  -> the boundary chain
//   BYPASS        0xF  -> 1-bit bypass register (also the reset value,
//                         and what every unassigned opcode selects)
#pragma once

#include <cstdint>
#include <string>

#include "sim/scan_chain.h"
#include "util/bitvector.h"

namespace goofi::sim {

enum class TapState : std::uint8_t {
  kTestLogicReset, kRunTestIdle,
  kSelectDrScan, kCaptureDr, kShiftDr, kExit1Dr, kPauseDr, kExit2Dr,
  kUpdateDr,
  kSelectIrScan, kCaptureIr, kShiftIr, kExit1Ir, kPauseIr, kExit2Ir,
  kUpdateIr,
};

const char* TapStateName(TapState state);

enum class TapInstruction : std::uint8_t {
  kIdcode = 0x1,
  kScanInternal = 0x2,
  kScanBoundary = 0x3,
  kBypass = 0xf,
};

// The TAP controller's FSM position, shift registers and cycle counter
// — a checkpoint taken between scan operations restores mid-campaign
// TAP state exactly. The controller runs on this struct, so a snapshot
// is a copy of it.
struct TapControllerState {
  TapState state = TapState::kTestLogicReset;
  TapInstruction instruction = TapInstruction::kBypass;
  std::uint8_t ir_shift = 0;
  BitVector dr_shift;
  std::size_t dr_length = 1;
  std::uint64_t tck_cycles = 0;

  friend bool operator==(const TapControllerState&,
                         const TapControllerState&) = default;
};

class TapController {
 public:
  // `chains` and `cpu` must outlive the controller.
  TapController(const ScanChainSet* chains, Cpu* cpu);

  TapState state() const { return state_.state; }
  TapInstruction instruction() const { return state_.instruction; }
  std::uint64_t tck_cycles() const { return state_.tck_cycles; }

  // Clock one TCK edge with the given TMS/TDI levels; returns TDO.
  bool Clock(bool tms, bool tdi);

  // One Shift-DR pass of `count` TCK, exactly as `count` Clock() calls:
  // TDI bit i (of `*tdi`, or 0 when `tdi` is null) on clock i, TMS 0 on
  // every clock but the last, so the controller ends in Exit1-DR. The TDO
  // bits go to `*tdo` (bit 0 first) unless it is null. `tdi` holds
  // `count` bits and is not `tdo`. Must be called in Shift-DR, count >= 1.
  void ShiftDr(std::size_t count, const BitVector* tdi, BitVector* tdo);

  // Synchronous reset (5 TMS=1 clocks reach Test-Logic-Reset from any
  // state; this helper just does it).
  void Reset();

  // Checkpoint support (sim/snapshot.h): FSM position, shift registers
  // and the cycle counter. The chain/CPU wiring is identity, not state.
  TapControllerState CaptureState() const { return state_; }
  void RestoreState(const TapControllerState& state) { state_ = state; }

  // --- test-card conveniences built on Clock() and ShiftDr() -----------
  // Load a TAP instruction through Shift-IR.
  void LoadInstruction(TapInstruction instruction);
  // Capture + shift out the selected data register. The returned image
  // has bit 0 = first bit shifted out. Shifting in `write_back` (or the
  // captured bits when nullptr) and passing Update-DR applies the image.
  BitVector ReadDataRegister();
  // Full SCIFI access: capture, shift out/in, update. Returns what was
  // shifted out; `image` is what gets written (must match the register
  // length).
  BitVector ExchangeDataRegister(const BitVector& image);

 private:
  TapState NextState(bool tms) const;
  std::size_t SelectedRegisterLength() const;
  void CaptureSelected();
  void UpdateSelected();

  const ScanChainSet* chains_;
  Cpu* cpu_;
  TapControllerState state_;
};

}  // namespace goofi::sim
