#include "sim/tap.h"

#include <cassert>

namespace goofi::sim {

const char* TapStateName(TapState state) {
  switch (state) {
    case TapState::kTestLogicReset: return "Test-Logic-Reset";
    case TapState::kRunTestIdle: return "Run-Test/Idle";
    case TapState::kSelectDrScan: return "Select-DR-Scan";
    case TapState::kCaptureDr: return "Capture-DR";
    case TapState::kShiftDr: return "Shift-DR";
    case TapState::kExit1Dr: return "Exit1-DR";
    case TapState::kPauseDr: return "Pause-DR";
    case TapState::kExit2Dr: return "Exit2-DR";
    case TapState::kUpdateDr: return "Update-DR";
    case TapState::kSelectIrScan: return "Select-IR-Scan";
    case TapState::kCaptureIr: return "Capture-IR";
    case TapState::kShiftIr: return "Shift-IR";
    case TapState::kExit1Ir: return "Exit1-IR";
    case TapState::kPauseIr: return "Pause-IR";
    case TapState::kExit2Ir: return "Exit2-IR";
    case TapState::kUpdateIr: return "Update-IR";
  }
  return "?";
}

namespace {

// IEEE 1149.1: an opcode the device does not assign selects BYPASS.
TapInstruction DecodeInstruction(unsigned code) {
  switch (code) {
    case 0x1: return TapInstruction::kIdcode;
    case 0x2: return TapInstruction::kScanInternal;
    case 0x3: return TapInstruction::kScanBoundary;
    default: return TapInstruction::kBypass;
  }
}

}  // namespace

TapController::TapController(const ScanChainSet* chains, Cpu* cpu)
    : chains_(chains), cpu_(cpu) {
  state_.dr_shift.Resize(1);
}

TapState TapController::NextState(bool tms) const {
  // The IEEE 1149.1 state graph: {TMS = 0, TMS = 1} successors, in
  // TapState order.
  using S = TapState;
  static_assert(static_cast<int>(S::kUpdateIr) == 15, "one row per state");
  static constexpr TapState kNext[16][2] = {
      {S::kRunTestIdle, S::kTestLogicReset},  // Test-Logic-Reset
      {S::kRunTestIdle, S::kSelectDrScan},    // Run-Test/Idle
      {S::kCaptureDr, S::kSelectIrScan},      // Select-DR-Scan
      {S::kShiftDr, S::kExit1Dr},             // Capture-DR
      {S::kShiftDr, S::kExit1Dr},             // Shift-DR
      {S::kPauseDr, S::kUpdateDr},            // Exit1-DR
      {S::kPauseDr, S::kExit2Dr},             // Pause-DR
      {S::kShiftDr, S::kUpdateDr},            // Exit2-DR
      {S::kRunTestIdle, S::kSelectDrScan},    // Update-DR
      {S::kCaptureIr, S::kTestLogicReset},    // Select-IR-Scan
      {S::kShiftIr, S::kExit1Ir},             // Capture-IR
      {S::kShiftIr, S::kExit1Ir},             // Shift-IR
      {S::kPauseIr, S::kUpdateIr},            // Exit1-IR
      {S::kPauseIr, S::kExit2Ir},             // Pause-IR
      {S::kShiftIr, S::kUpdateIr},            // Exit2-IR
      {S::kRunTestIdle, S::kSelectDrScan},    // Update-IR
  };
  return kNext[static_cast<int>(state_.state)][tms ? 1 : 0];
}

std::size_t TapController::SelectedRegisterLength() const {
  switch (state_.instruction) {
    case TapInstruction::kIdcode: return 32;
    case TapInstruction::kBypass: return 1;
    case TapInstruction::kScanInternal: {
      const ScanChain* chain = chains_->FindChain("internal");
      return chain != nullptr ? chain->bit_length() : 1;
    }
    case TapInstruction::kScanBoundary: {
      const ScanChain* chain = chains_->FindChain("boundary");
      return chain != nullptr ? chain->bit_length() : 1;
    }
  }
  return 1;
}

void TapController::CaptureSelected() {
  state_.dr_length = SelectedRegisterLength();
  switch (state_.instruction) {
    case TapInstruction::kIdcode:
      state_.dr_shift.Resize(32);
      state_.dr_shift.SetField(0, 32, 0x7408D001u);
      break;
    case TapInstruction::kBypass:
      state_.dr_shift.Resize(1);
      state_.dr_shift.Set(0, false);
      break;
    case TapInstruction::kScanInternal:
      state_.dr_shift = chains_->FindChain("internal")->Capture(*cpu_);
      break;
    case TapInstruction::kScanBoundary:
      state_.dr_shift = chains_->FindChain("boundary")->Capture(*cpu_);
      break;
  }
}

void TapController::UpdateSelected() {
  switch (state_.instruction) {
    case TapInstruction::kIdcode:
    case TapInstruction::kBypass:
      break;  // no update side effect
    case TapInstruction::kScanInternal:
      chains_->FindChain("internal")->Apply(*cpu_, state_.dr_shift);
      break;
    case TapInstruction::kScanBoundary:
      chains_->FindChain("boundary")->Apply(*cpu_, state_.dr_shift);
      break;
  }
}

bool TapController::Clock(bool tms, bool tdi) {
  ++state_.tck_cycles;
  bool tdo = false;
  // Actions of the *current* state on this clock.
  switch (state_.state) {
    case TapState::kCaptureDr:
      CaptureSelected();
      break;
    case TapState::kShiftDr:
      // Bit 0 exits on TDO; TDI enters at the top.
      tdo = state_.dr_shift.ShiftRightInsertTop(tdi);
      break;
    case TapState::kCaptureIr:
      state_.ir_shift = 0x1;  // IEEE: capture 0b...01
      break;
    case TapState::kShiftIr:
      tdo = (state_.ir_shift & 1) != 0;
      state_.ir_shift = static_cast<std::uint8_t>(
          (state_.ir_shift >> 1) | (tdi ? 0x8 : 0x0));
      break;
    default:
      break;
  }
  const TapState next = NextState(tms);
  // Update actions fire on entering the update states.
  if (next == TapState::kUpdateDr && state_.state != TapState::kUpdateDr) {
    // state_.dr_shift now holds the image shifted in through TDI.
    UpdateSelected();
  }
  if (next == TapState::kUpdateIr && state_.state != TapState::kUpdateIr) {
    state_.instruction = DecodeInstruction(state_.ir_shift & 0xf);
  }
  if (next == TapState::kTestLogicReset) {
    state_.instruction = TapInstruction::kBypass;
  }
  state_.state = next;
  return tdo;
}

void TapController::ShiftDr(std::size_t count, const BitVector* tdi,
                            BitVector* tdo) {
  assert(state_.state == TapState::kShiftDr && count >= 1);
  // Clock() in Shift-DR shifts one bit per TCK; TMS 0 keeps the state,
  // and the final TMS 1 enters Exit1-DR, which has no update action.
  state_.tck_cycles += count;
  state_.dr_shift.ShiftThrough(count, tdi, tdo);
  state_.state = TapState::kExit1Dr;
}

void TapController::Reset() {
  for (int i = 0; i < 5; ++i) Clock(/*tms=*/true, /*tdi=*/false);
  Clock(/*tms=*/false, /*tdi=*/false);  // settle in Run-Test/Idle
}

void TapController::LoadInstruction(TapInstruction instruction) {
  // From Run-Test/Idle: 1,1 -> Select-IR; 0 -> Capture-IR; 0 -> Shift-IR.
  if (state_.state == TapState::kTestLogicReset) Clock(false, false);
  assert(state_.state == TapState::kRunTestIdle);
  Clock(true, false);   // Select-DR-Scan
  Clock(true, false);   // Select-IR-Scan
  Clock(false, false);  // Capture-IR
  Clock(false, false);  // -> Shift-IR (capture happened on that clock)
  const std::uint8_t bits = static_cast<std::uint8_t>(instruction);
  // Shift 4 bits, LSB first; the last shift exits to Exit1-IR.
  for (int i = 0; i < 4; ++i) {
    const bool tdi = ((bits >> i) & 1) != 0;
    Clock(/*tms=*/i == 3, tdi);
  }
  Clock(true, false);   // Update-IR (instruction latched here)
  Clock(false, false);  // Run-Test/Idle
}

BitVector TapController::ReadDataRegister() {
  // Read without modifying: shift the captured image out, feeding zeros,
  // then shift the same bits right back in before Update-DR.
  assert(state_.state == TapState::kRunTestIdle);
  Clock(true, false);   // Select-DR-Scan
  Clock(false, false);  // Capture-DR
  Clock(false, false);  // -> Shift-DR (capture happened on that clock)
  const std::size_t n = SelectedRegisterLength();
  BitVector out;
  ShiftDr(n, /*tdi=*/nullptr, &out);  // -> Exit1-DR
  // Update-DR now would apply the zeros we shifted in, so re-enter
  // Shift-DR through Pause-DR and shift the saved image back in first.
  Clock(false, false);  // Pause-DR
  Clock(true, false);   // Exit2-DR
  Clock(false, false);  // Shift-DR
  ShiftDr(n, &out, /*tdo=*/nullptr);  // -> Exit1-DR
  Clock(true, false);   // Update-DR (writes back what we read: no-op image)
  Clock(false, false);  // Run-Test/Idle
  return out;
}

BitVector TapController::ExchangeDataRegister(const BitVector& image) {
  assert(state_.state == TapState::kRunTestIdle);
  assert(image.size() == SelectedRegisterLength());
  Clock(true, false);   // Select-DR-Scan
  Clock(false, false);  // Capture-DR
  Clock(false, false);  // -> Shift-DR
  BitVector out;
  ShiftDr(image.size(), &image, &out);  // -> Exit1-DR
  Clock(true, false);   // Update-DR: the shifted-in image is applied
  Clock(false, false);  // Run-Test/Idle
  return out;
}

}  // namespace goofi::sim
