#include "sim/tap.h"

#include <gtest/gtest.h>

#include <deque>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "sim/snapshot.h"
#include "util/rng.h"

namespace goofi::sim {
namespace {

class TapTest : public ::testing::Test {
 protected:
  TapTest() {
    EXPECT_TRUE(cpu_.memory().AddSegment({"code", 0, 0x1000, true, false,
                                          true, false}).ok());
    chains_ = BuildThorRdScanChains(cpu_);
    tap_ = std::make_unique<TapController>(&chains_, &cpu_);
  }

  Cpu cpu_;
  ScanChainSet chains_;
  std::unique_ptr<TapController> tap_;
};

TEST_F(TapTest, ResetLandsInRunTestIdle) {
  tap_->Reset();
  EXPECT_EQ(tap_->state(), TapState::kRunTestIdle);
  EXPECT_EQ(tap_->instruction(), TapInstruction::kBypass);
}

TEST_F(TapTest, FiveTmsOnesFromAnywhereResets) {
  tap_->Reset();
  // Wander into Shift-DR.
  tap_->Clock(true, false);   // Select-DR
  tap_->Clock(false, false);  // Capture-DR
  tap_->Clock(false, false);  // Shift-DR
  EXPECT_EQ(tap_->state(), TapState::kShiftDr);
  for (int i = 0; i < 5; ++i) tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kTestLogicReset);
}

TEST_F(TapTest, StateWalkMatchesIeee1149) {
  tap_->Reset();
  EXPECT_EQ(tap_->state(), TapState::kRunTestIdle);
  tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kSelectDrScan);
  tap_->Clock(false, false);
  EXPECT_EQ(tap_->state(), TapState::kCaptureDr);
  tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kExit1Dr);
  tap_->Clock(false, false);
  EXPECT_EQ(tap_->state(), TapState::kPauseDr);
  tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kExit2Dr);
  tap_->Clock(false, false);
  EXPECT_EQ(tap_->state(), TapState::kShiftDr);
  tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kExit1Dr);
  tap_->Clock(true, false);
  EXPECT_EQ(tap_->state(), TapState::kUpdateDr);
  tap_->Clock(false, false);
  EXPECT_EQ(tap_->state(), TapState::kRunTestIdle);

  // The rest of the 32 edges, the IR side included: each {TMS, state
  // reached} continues the walk from Run-Test/Idle.
  using S = TapState;
  const std::pair<bool, TapState> walk[] = {
      {false, S::kRunTestIdle},   {true, S::kSelectDrScan},
      {true, S::kSelectIrScan},   {false, S::kCaptureIr},
      {false, S::kShiftIr},       {false, S::kShiftIr},
      {true, S::kExit1Ir},        {false, S::kPauseIr},
      {false, S::kPauseIr},       {true, S::kExit2Ir},
      {false, S::kShiftIr},       {true, S::kExit1Ir},
      {true, S::kUpdateIr},       {true, S::kSelectDrScan},
      {true, S::kSelectIrScan},   {false, S::kCaptureIr},
      {true, S::kExit1Ir},        {false, S::kPauseIr},
      {true, S::kExit2Ir},        {true, S::kUpdateIr},
      {false, S::kRunTestIdle},   {true, S::kSelectDrScan},
      {false, S::kCaptureDr},     {false, S::kShiftDr},
      {false, S::kShiftDr},       {true, S::kExit1Dr},
      {false, S::kPauseDr},       {false, S::kPauseDr},
      {true, S::kExit2Dr},        {true, S::kUpdateDr},
      {true, S::kSelectDrScan},   {true, S::kSelectIrScan},
      {true, S::kTestLogicReset}, {true, S::kTestLogicReset},
      {false, S::kRunTestIdle},
  };
  for (std::size_t step = 0; step < std::size(walk); ++step) {
    const TapState from = tap_->state();
    tap_->Clock(walk[step].first, false);
    EXPECT_EQ(tap_->state(), walk[step].second)
        << "step " << step << ": " << TapStateName(from) << " with TMS "
        << walk[step].first;
  }
}

TEST_F(TapTest, IdcodeReadsDeviceId) {
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kIdcode);
  EXPECT_EQ(tap_->instruction(), TapInstruction::kIdcode);
  const BitVector idcode = tap_->ReadDataRegister();
  ASSERT_EQ(idcode.size(), 32u);
  EXPECT_EQ(idcode.GetField(0, 32), 0x7408D001u);
}

TEST_F(TapTest, BypassIsOneBit) {
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kBypass);
  const BitVector bypass = tap_->ReadDataRegister();
  EXPECT_EQ(bypass.size(), 1u);
}

TEST_F(TapTest, InternalChainReadMatchesDirectCapture) {
  cpu_.set_reg(5, 0x13572468);
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanInternal);
  const BitVector via_tap = tap_->ReadDataRegister();
  const BitVector direct = chains_.FindChain("internal")->Capture(cpu_);
  EXPECT_TRUE(via_tap == direct);
}

TEST_F(TapTest, ReadDataRegisterDoesNotDisturbState) {
  cpu_.set_reg(5, 0xABCD0123);
  cpu_.set_pc(0x40);
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanInternal);
  tap_->ReadDataRegister();
  EXPECT_EQ(cpu_.reg(5), 0xABCD0123u);
  EXPECT_EQ(cpu_.pc(), 0x40u);
}

TEST_F(TapTest, ExchangeAppliesShiftedInImage) {
  // The SCIFI injection path: read, flip one bit, write back.
  cpu_.set_reg(9, 0);
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanInternal);
  BitVector image = tap_->ReadDataRegister();
  const ScanChain* internal = chains_.FindChain("internal");
  const ScanElement* r9 = internal->FindElement("cpu.regs.r9");
  image.Flip(r9->position + 7);
  const BitVector old = tap_->ExchangeDataRegister(image);
  EXPECT_EQ(cpu_.reg(9), 0x80u);
  // The exchange shifted out the pre-injection state.
  EXPECT_EQ(old.GetField(r9->position, 32), 0u);
}

TEST_F(TapTest, BoundaryChainSelectable) {
  cpu_.set_mar(0xFEEDF00D);
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanBoundary);
  const BitVector image = tap_->ReadDataRegister();
  ASSERT_EQ(image.size(), chains_.FindChain("boundary")->bit_length());
  EXPECT_EQ(image.GetField(0, 32), 0xFEEDF00Du);  // addr_bus is first
}

TEST_F(TapTest, TckCyclesScaleWithChainLength) {
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kIdcode);
  const std::uint64_t before_short = tap_->tck_cycles();
  tap_->ReadDataRegister();
  const std::uint64_t short_cost = tap_->tck_cycles() - before_short;

  tap_->LoadInstruction(TapInstruction::kScanInternal);
  const std::uint64_t before_long = tap_->tck_cycles();
  tap_->ReadDataRegister();
  const std::uint64_t long_cost = tap_->tck_cycles() - before_long;
  // The internal chain is thousands of bits; IDCODE is 32.
  EXPECT_GT(long_cost, 50 * short_cost);
}

TEST_F(TapTest, TestLogicResetRevertsToBypass) {
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanInternal);
  for (int i = 0; i < 5; ++i) tap_->Clock(true, false);
  EXPECT_EQ(tap_->instruction(), TapInstruction::kBypass);
}


// ---- differential test against a bit-serial reference ---------------
//
// ReferenceTap is a second, deliberately naive IEEE 1149.1 TAP: one TCK
// per call, the data register a FIFO of bits (front = bit 0, the next
// TDO). Random sequences drive it and TapController side by side, each
// on its own copy of the CPU; every step must give the same TDO bits,
// FSM state, instruction, TCK count, DR contents and CPU chain contents.

constexpr std::uint32_t kIdcodeValue = 0x7408D001u;

class ReferenceTap {
 public:
  ReferenceTap(const ScanChainSet* chains, Cpu* cpu)
      : chains_(chains), cpu_(cpu) {}

  TapState state() const { return state_; }
  TapInstruction instruction() const { return instruction_; }
  std::uint64_t tck_cycles() const { return tck_; }
  const std::deque<bool>& dr() const { return dr_; }

  bool Clock(bool tms, bool tdi) {
    ++tck_;
    bool tdo = false;
    switch (state_) {
      case TapState::kCaptureDr:
        Capture();
        break;
      case TapState::kShiftDr:
        tdo = dr_.front();
        dr_.pop_front();
        dr_.push_back(tdi);
        break;
      case TapState::kCaptureIr:
        ir_ = {true, false, false, false};
        break;
      case TapState::kShiftIr:
        tdo = ir_.front();
        ir_.pop_front();
        ir_.push_back(tdi);
        break;
      default:
        break;
    }
    const TapState next = Next(state_, tms);
    if (next == TapState::kUpdateDr) Update();
    if (next == TapState::kUpdateIr) {
      unsigned code = 0;
      for (int i = 0; i < 4; ++i) code |= (ir_[i] ? 1u : 0u) << i;
      // IEEE 1149.1: an unassigned opcode selects BYPASS.
      instruction_ = (code == 0x1 || code == 0x2 || code == 0x3)
                         ? static_cast<TapInstruction>(code)
                         : TapInstruction::kBypass;
    }
    if (next == TapState::kTestLogicReset) {
      instruction_ = TapInstruction::kBypass;
    }
    state_ = next;
    return tdo;
  }

 private:
  // IEEE 1149.1 Figure 6-1, one state at a time (deliberately not the
  // production controller's table form).
  static TapState Next(TapState s, bool tms) {
    using S = TapState;
    switch (s) {
      case S::kTestLogicReset:
        return tms ? S::kTestLogicReset : S::kRunTestIdle;
      case S::kRunTestIdle:
      case S::kUpdateDr:
      case S::kUpdateIr:
        return tms ? S::kSelectDrScan : S::kRunTestIdle;
      case S::kSelectDrScan:
        return tms ? S::kSelectIrScan : S::kCaptureDr;
      case S::kSelectIrScan:
        return tms ? S::kTestLogicReset : S::kCaptureIr;
      case S::kCaptureDr:
      case S::kShiftDr:
        return tms ? S::kExit1Dr : S::kShiftDr;
      case S::kCaptureIr:
      case S::kShiftIr:
        return tms ? S::kExit1Ir : S::kShiftIr;
      case S::kExit1Dr:
        return tms ? S::kUpdateDr : S::kPauseDr;
      case S::kExit1Ir:
        return tms ? S::kUpdateIr : S::kPauseIr;
      case S::kPauseDr:
        return tms ? S::kExit2Dr : S::kPauseDr;
      case S::kPauseIr:
        return tms ? S::kExit2Ir : S::kPauseIr;
      case S::kExit2Dr:
        return tms ? S::kUpdateDr : S::kShiftDr;
      case S::kExit2Ir:
        return tms ? S::kUpdateIr : S::kShiftIr;
    }
    return S::kTestLogicReset;
  }

  const ScanChain* SelectedChain() const {
    if (instruction_ == TapInstruction::kScanInternal) {
      return chains_->FindChain("internal");
    }
    if (instruction_ == TapInstruction::kScanBoundary) {
      return chains_->FindChain("boundary");
    }
    return nullptr;
  }

  void Capture() {
    dr_.clear();
    if (const ScanChain* chain = SelectedChain()) {
      const BitVector image = chain->Capture(*cpu_);
      for (std::size_t i = 0; i < image.size(); ++i) dr_.push_back(image.Get(i));
    } else if (instruction_ == TapInstruction::kIdcode) {
      for (int i = 0; i < 32; ++i) dr_.push_back(((kIdcodeValue >> i) & 1) != 0);
    } else {
      dr_.push_back(false);  // BYPASS
    }
  }

  void Update() {
    const ScanChain* chain = SelectedChain();
    if (chain == nullptr) return;
    BitVector image(dr_.size());
    for (std::size_t i = 0; i < dr_.size(); ++i) image.Set(i, dr_[i]);
    chain->Apply(*cpu_, image);
  }

  const ScanChainSet* chains_;
  Cpu* cpu_;
  TapState state_ = TapState::kTestLogicReset;
  TapInstruction instruction_ = TapInstruction::kBypass;
  std::deque<bool> ir_ = {false, false, false, false};
  std::deque<bool> dr_ = {false};  // TapController powers up with 1 bit
  std::uint64_t tck_ = 0;
};

// One step of a random sequence. kShift is a Shift-DR pass of `count`
// bits (TDI `bits`, or zeros when absent), kClocks a run of raw TCKs
// (TMS/TDI pairs), kLoad/kRead/kExchange the test-card conveniences.
struct TapOp {
  enum class Kind { kClocks, kShift, kLoad, kRead, kExchange } kind;
  std::vector<std::pair<bool, bool>> clocks;  // (tms, tdi)
  std::size_t count = 0;
  std::optional<BitVector> bits;  // kShift TDI, kExchange image
  TapInstruction instruction = TapInstruction::kBypass;
};

std::vector<bool> ToBools(const BitVector& v) {
  std::vector<bool> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v.Get(i);
  return out;
}

// Applies `op` to the controller under test; returns its TDO bits.
std::vector<bool> ApplyToController(TapController& tap, const TapOp& op) {
  std::vector<bool> tdo;
  switch (op.kind) {
    case TapOp::Kind::kClocks:
      for (const auto& [tms, tdi] : op.clocks) tdo.push_back(tap.Clock(tms, tdi));
      break;
    case TapOp::Kind::kShift: {
      BitVector out;
      tap.ShiftDr(op.count, op.bits ? &*op.bits : nullptr, &out);
      tdo = ToBools(out);
      break;
    }
    case TapOp::Kind::kLoad:
      tap.LoadInstruction(op.instruction);
      break;
    case TapOp::Kind::kRead:
      tdo = ToBools(tap.ReadDataRegister());
      break;
    case TapOp::Kind::kExchange:
      tdo = ToBools(tap.ExchangeDataRegister(*op.bits));
      break;
  }
  return tdo;
}

// The same op on the reference, spelled out as the TCK sequence the
// controller documents for it.
std::vector<bool> ApplyToReference(ReferenceTap& ref, const TapOp& op) {
  std::vector<bool> tdo;
  const auto shift = [&](std::size_t count, const BitVector* tdi,
                         bool keep) {
    for (std::size_t i = 0; i < count; ++i) {
      const bool bit = ref.Clock(/*tms=*/i + 1 == count,
                                 tdi != nullptr && tdi->Get(i));
      if (keep) tdo.push_back(bit);
    }
  };
  switch (op.kind) {
    case TapOp::Kind::kClocks:
      for (const auto& [tms, tdi] : op.clocks) tdo.push_back(ref.Clock(tms, tdi));
      break;
    case TapOp::Kind::kShift:
      shift(op.count, op.bits ? &*op.bits : nullptr, true);
      break;
    case TapOp::Kind::kLoad: {
      for (bool tms : {true, true, false, false}) ref.Clock(tms, false);
      const auto code = static_cast<unsigned>(op.instruction);
      for (int i = 0; i < 4; ++i) ref.Clock(i == 3, ((code >> i) & 1) != 0);
      ref.Clock(true, false);
      ref.Clock(false, false);
      break;
    }
    case TapOp::Kind::kRead: {
      for (bool tms : {true, false, false}) ref.Clock(tms, false);
      const std::size_t n = ref.dr().size();  // captured on the last clock
      shift(n, nullptr, true);
      BitVector image(n);
      for (std::size_t i = 0; i < n; ++i) image.Set(i, tdo[i]);
      for (bool tms : {false, true, false}) ref.Clock(tms, false);
      shift(n, &image, false);
      ref.Clock(true, false);
      ref.Clock(false, false);
      break;
    }
    case TapOp::Kind::kExchange:
      for (bool tms : {true, false, false}) ref.Clock(tms, false);
      shift(op.count, &*op.bits, true);
      ref.Clock(true, false);
      ref.Clock(false, false);
      break;
  }
  return tdo;
}

BitVector RandomBits(Rng& rng, std::size_t n) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; i += 64) {
    const std::size_t width = std::min<std::size_t>(64, n - i);
    v.SetField(i, width, rng.NextU64());
  }
  return v;
}

// Picks the next op for a controller in `state` whose selected data
// register is `dr_length` bits. Weighted toward the DR path: shifts of
// every length class, Pause-DR/Exit2-DR re-entry, IR loads (valid and
// unassigned codes), reads, exchanges and Test-Logic-Reset.
TapOp NextOp(Rng& rng, TapState state, std::size_t dr_length) {
  TapOp op{TapOp::Kind::kClocks, {}, 0, std::nullopt, TapInstruction::kBypass};
  const auto clocks = [&](std::initializer_list<bool> tms) {
    for (bool t : tms) op.clocks.emplace_back(t, rng.NextBool());
  };
  const std::uint64_t roll = rng.NextBelow(100);
  if (roll < 4) {
    clocks({true, true, true, true, true});  // Test-Logic-Reset
    return op;
  }
  if (roll < 12) {
    op.clocks.emplace_back(rng.NextBool(), rng.NextBool());  // random walk
    return op;
  }
  switch (state) {
    case TapState::kShiftDr: {
      op.kind = TapOp::Kind::kShift;
      switch (rng.NextBelow(5)) {
        case 0: op.count = 1; break;
        case 1: op.count = dr_length; break;
        case 2: op.count = dr_length + 1 + rng.NextBelow(130); break;
        default: op.count = 1 + rng.NextBelow(dr_length); break;
      }
      if (rng.NextBool(0.75)) op.bits = RandomBits(rng, op.count);
      return op;
    }
    case TapState::kExit1Dr:
      if (rng.NextBool()) {
        clocks({false, true, false});  // Pause-DR, Exit2-DR, Shift-DR
      } else {
        clocks({true, false});  // Update-DR, Run-Test/Idle
      }
      return op;
    case TapState::kRunTestIdle: {
      static constexpr TapInstruction kValid[] = {
          TapInstruction::kIdcode, TapInstruction::kScanInternal,
          TapInstruction::kScanBoundary, TapInstruction::kBypass};
      switch (rng.NextBelow(6)) {
        case 0:
        case 1:
          op.kind = TapOp::Kind::kLoad;
          op.instruction = kValid[rng.NextBelow(4)];
          return op;
        case 2:  // an IR load by hand, any 4-bit code
          clocks({true, true, false, false, false, false, false, true, true,
                  false});
          return op;
        case 3:
          op.kind = TapOp::Kind::kRead;
          return op;
        case 4:
          clocks({true, false, false});  // Capture-DR, into Shift-DR
          return op;
        default:
          // Exchange needs the selected register's length, which only a
          // capture reveals; the caller fills it in.
          op.kind = TapOp::Kind::kExchange;
          return op;
      }
    }
    default:
      // Elsewhere (IR column, Pause-DR, Exit2-DR, Update-*): one clock
      // with a random TMS, which wanders everywhere and back.
      op.clocks.emplace_back(rng.NextBool(), rng.NextBool());
      return op;
  }
}

std::size_t SelectedLength(const ScanChainSet& chains, TapInstruction ins) {
  switch (ins) {
    case TapInstruction::kIdcode: return 32;
    case TapInstruction::kScanInternal:
      return chains.FindChain("internal")->bit_length();
    case TapInstruction::kScanBoundary:
      return chains.FindChain("boundary")->bit_length();
    case TapInstruction::kBypass: return 1;
  }
  return 1;
}

// Everything the two controllers and their CPUs must agree on.
void ExpectSameTap(const TapController& tap, const ScanChainSet& tap_chains,
                   const Cpu& tap_cpu, const ReferenceTap& ref,
                   const ScanChainSet& ref_chains, const Cpu& ref_cpu) {
  EXPECT_EQ(tap.state(), ref.state());
  EXPECT_EQ(tap.instruction(), ref.instruction());
  EXPECT_EQ(tap.tck_cycles(), ref.tck_cycles());
  const BitVector dr = tap.CaptureState().dr_shift;
  EXPECT_EQ(ToBools(dr), std::vector<bool>(ref.dr().begin(), ref.dr().end()));
  for (const char* name : {"internal", "boundary"}) {
    EXPECT_TRUE(tap_chains.FindChain(name)->Capture(tap_cpu) ==
                ref_chains.FindChain(name)->Capture(ref_cpu))
        << name << " chain contents differ";
  }
}

struct TapWorld {
  explicit TapWorld(const Cpu& initial)
      : cpu(initial), chains(BuildThorRdScanChains(cpu)), tap(&chains, &cpu) {}
  Cpu cpu;
  ScanChainSet chains;
  TapController tap;
};

class TapDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TapDifferentialTest, MatchesBitSerialReference) {
  Rng rng(GetParam());
  Cpu initial;
  ASSERT_TRUE(initial.memory().AddSegment({"code", 0, 0x1000, true, false,
                                           true, false}).ok());
  {
    // Random chain images: both worlds start from the same random state.
    const ScanChainSet chains = BuildThorRdScanChains(initial);
    for (const char* name : {"internal", "boundary"}) {
      const ScanChain* chain = chains.FindChain(name);
      chain->Apply(initial, RandomBits(rng, chain->bit_length()));
    }
  }
  TapWorld dut(initial);
  Cpu ref_cpu = initial;
  const ScanChainSet ref_chains = BuildThorRdScanChains(ref_cpu);
  ReferenceTap ref(&ref_chains, &ref_cpu);

  constexpr int kSteps = 400;
  const int checkpoint_at = static_cast<int>(rng.NextBelow(kSteps));
  std::optional<TapControllerState> saved;
  std::optional<Cpu> saved_cpu;
  std::vector<TapOp> after_checkpoint;
  std::vector<std::vector<bool>> tdo_after_checkpoint;
  std::size_t shifts = 0, reads = 0, exchanges = 0;

  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << GetParam() << " step "
                                      << step << " in "
                                      << TapStateName(dut.tap.state()));
    if (step == checkpoint_at) {
      saved = dut.tap.CaptureState();
      saved_cpu = dut.cpu;
    }
    TapOp op = NextOp(rng, dut.tap.state(), dut.tap.CaptureState().dr_shift.size());
    if (op.kind == TapOp::Kind::kExchange) {
      op.count = SelectedLength(dut.chains, dut.tap.instruction());
      op.bits = RandomBits(rng, op.count);
    }
    shifts += op.kind == TapOp::Kind::kShift;
    reads += op.kind == TapOp::Kind::kRead;
    exchanges += op.kind == TapOp::Kind::kExchange;
    const std::vector<bool> tdo = ApplyToController(dut.tap, op);
    EXPECT_EQ(tdo, ApplyToReference(ref, op));
    ExpectSameTap(dut.tap, dut.chains, dut.cpu, ref, ref_chains, ref_cpu);
    if (::testing::Test::HasFailure()) return;
    if (saved) {
      after_checkpoint.push_back(op);
      tdo_after_checkpoint.push_back(tdo);
    }
  }
  // The sequences must actually reach the paths under test.
  EXPECT_GT(shifts, 20u);
  EXPECT_GT(reads + exchanges, 10u);

  // A state captured mid-sequence restores into a fresh controller (on
  // the CPU as it was then) and replays the rest identically.
  ASSERT_TRUE(saved.has_value());
  TapWorld replay(*saved_cpu);
  replay.tap.RestoreState(*saved);
  for (std::size_t i = 0; i < after_checkpoint.size(); ++i) {
    EXPECT_EQ(ApplyToController(replay.tap, after_checkpoint[i]),
              tdo_after_checkpoint[i])
        << "replayed op " << i;
  }
  EXPECT_EQ(replay.tap.state(), dut.tap.state());
  EXPECT_EQ(replay.tap.tck_cycles(), dut.tap.tck_cycles());
  EXPECT_TRUE(replay.tap.CaptureState().dr_shift ==
              dut.tap.CaptureState().dr_shift);
  EXPECT_TRUE(replay.chains.FindChain("internal")->Capture(replay.cpu) ==
              dut.chains.FindChain("internal")->Capture(dut.cpu));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TapDifferentialTest,
                         ::testing::Values(1u, 7u, 42u, 2003u));

TEST_F(TapTest, ShiftDrMatchesPerBitClocks) {
  // The word-level pass against Clock() itself on the same controller
  // state: partial, exact and longer-than-register passes.
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanInternal);
  const std::size_t n = chains_.FindChain("internal")->bit_length();
  Rng rng(11);
  for (std::size_t count : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                            std::size_t{65}, n - 1, n, n + 1, n + 200}) {
    tap_->Clock(true, false);   // Select-DR-Scan
    tap_->Clock(false, false);  // Capture-DR
    tap_->Clock(false, false);  // Shift-DR
    const TapControllerState before = tap_->CaptureState();
    const BitVector tdi = RandomBits(rng, count);
    BitVector word_tdo;
    tap_->ShiftDr(count, &tdi, &word_tdo);
    const TapControllerState after_word = tap_->CaptureState();

    tap_->RestoreState(before);
    BitVector clock_tdo(count);
    for (std::size_t i = 0; i < count; ++i) {
      clock_tdo.Set(i, tap_->Clock(/*tms=*/i + 1 == count, tdi.Get(i)));
    }
    const TapControllerState after_clock = tap_->CaptureState();
    EXPECT_TRUE(word_tdo == clock_tdo) << count;
    EXPECT_EQ(after_word.state, TapState::kExit1Dr) << count;
    EXPECT_EQ(after_clock.state, TapState::kExit1Dr) << count;
    EXPECT_EQ(after_word.tck_cycles, after_clock.tck_cycles) << count;
    EXPECT_EQ(after_word.tck_cycles, before.tck_cycles + count) << count;
    EXPECT_TRUE(after_word.dr_shift == after_clock.dr_shift) << count;
    tap_->Clock(true, false);   // Update-DR
    tap_->Clock(false, false);  // Run-Test/Idle
  }
}

TEST_F(TapTest, UnassignedInstructionSelectsBypass) {
  tap_->Reset();
  // Load 0x5 by hand: Select-DR, Select-IR, Capture-IR, Shift-IR.
  for (bool tms : {true, true, false, false}) tap_->Clock(tms, false);
  for (int i = 0; i < 4; ++i) tap_->Clock(i == 3, ((0x5 >> i) & 1) != 0);
  tap_->Clock(true, false);   // Update-IR
  tap_->Clock(false, false);  // Run-Test/Idle
  EXPECT_EQ(tap_->instruction(), TapInstruction::kBypass);
  EXPECT_EQ(tap_->ReadDataRegister().size(), 1u);
}

TEST_F(TapTest, InternalChainReadCostsTwoShiftsPlusProtocol) {
  tap_->Reset();
  tap_->LoadInstruction(TapInstruction::kScanInternal);
  const std::size_t n = chains_.FindChain("internal")->bit_length();
  const std::uint64_t before = tap_->tck_cycles();
  tap_->ReadDataRegister();
  EXPECT_EQ(tap_->tck_cycles() - before, 2 * n + 8);
}

}  // namespace
}  // namespace goofi::sim
