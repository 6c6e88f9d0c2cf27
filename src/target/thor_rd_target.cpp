#include "target/thor_rd_target.h"

#include <algorithm>

#include "target/io_map.h"
#include "util/strings.h"

namespace goofi::target {
namespace {

bool IsMemoryLocation(const std::string& location) {
  return StartsWith(location, "mem@");
}

Result<std::uint32_t> ParseMemoryLocation(const std::string& location) {
  const auto address = ParseUint64(location.substr(4));
  if (!address || *address > 0xffffffffull) {
    return InvalidArgumentError("bad memory location '" + location + "'");
  }
  return static_cast<std::uint32_t>(*address);
}

const char* SegmentCategory(bool executable, std::uint32_t base) {
  if (executable) return "memory_code";
  return base >= kStackBase && base < kStackBase + kStackSize
             ? "memory_stack"
             : "memory_data";
}

}  // namespace

ThorRdTarget::ThorRdTarget(TestCardOptions options, std::string name)
    : name_(std::move(name)), card_(options) {}

// ---------------------------------------------------------------------
// Location inventory.
// ---------------------------------------------------------------------

std::vector<TargetSystemInterface::LocationInfo>
ThorRdTarget::ListLocations() const {
  std::vector<LocationInfo> locations;
  for (const sim::ScanChain& chain : card_.chains().chains) {
    for (const sim::ScanElement& element : chain.elements()) {
      LocationInfo info;
      info.kind = LocationInfo::Kind::kScanElement;
      info.name = element.name;
      info.chain = chain.name();
      info.width_bits = static_cast<std::uint32_t>(element.width);
      info.writable = element.access == sim::ScanAccess::kReadWrite;
      info.category = element.category;
      locations.push_back(std::move(info));
    }
  }
  auto add_range = [&locations](std::string name, std::uint32_t base,
                                std::uint32_t size, const char* category) {
    LocationInfo info;
    info.kind = LocationInfo::Kind::kMemoryRange;
    info.name = std::move(name);
    info.writable = true;
    info.category = category;
    info.base = base;
    info.size = size;
    locations.push_back(std::move(info));
  };
  if (assembled_.has_value()) {
    // With a workload installed, SWIFI's fault space is the downloaded
    // image (the paper injects into "the memory image of the workload").
    for (const auto& [base, bytes] : assembled_->chunks) {
      const bool in_code = base < kCodeBase + kCodeSize;
      const std::uint32_t size =
          static_cast<std::uint32_t>((bytes.size() + 3) & ~std::size_t{3});
      add_range(StrFormat("mem.%s@0x%08x",
                          in_code ? "code" : "data", base),
                base, size, SegmentCategory(in_code, base));
    }
  } else {
    // No workload yet: advertise the board's full memory map.
    add_range("mem.code", kCodeBase, kCodeSize, "memory_code");
    add_range("mem.data", kDataBase, kDataSize, "memory_data");
    add_range("mem.stack", kStackBase, kStackSize, "memory_stack");
  }
  return locations;
}

Status ThorRdTarget::SetWorkload(WorkloadSpec workload) {
  ASSIGN_OR_RETURN(sim::AssembledProgram program,
                   sim::Assemble(workload.assembly));
  if (!workload.environment.empty()) {
    ASSIGN_OR_RETURN(environment_, MakeEnvironment(workload.environment));
  } else {
    environment_.reset();
  }
  assembled_ = std::move(program);
  workload_ = std::move(workload);
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Run-phase plumbing.
// ---------------------------------------------------------------------

ThorRdTarget::EffectiveTermination ThorRdTarget::ResolveTermination()
    const {
  EffectiveTermination term;
  term.max_instructions =
      EffectiveInstructionBudget(spec_.termination, workload_.termination);
  term.max_iterations = spec_.termination.max_iterations != 0
                            ? spec_.termination.max_iterations
                            : workload_.termination.max_iterations;
  return term;
}

std::uint64_t ThorRdTarget::RemainingBudget(
    const EffectiveTermination& term) const {
  const std::uint64_t executed = card_.cpu().instret();
  return executed >= term.max_instructions
             ? 0
             : term.max_instructions - executed;
}

std::function<bool(sim::Cpu&)> ThorRdTarget::IterationCallback() {
  if (environment_ == nullptr) return nullptr;
  Environment* environment = environment_.get();
  return [environment](sim::Cpu& cpu) {
    return environment->OnIterationEnd(cpu.memory());
  };
}

void ThorRdTarget::FinishRun(const sim::RunResult& result) {
  observation_.stop_reason = result.reason;
  observation_.instructions = card_.cpu().instret();
  observation_.iterations = card_.cpu().iteration_count();
  observation_.recovery_count = card_.cpu().recovery_count();
  if (result.reason == sim::StopReason::kEdm && result.edm.has_value()) {
    observation_.edm = result.edm;
  }
  if (environment_ != nullptr) {
    observation_.env_outputs = environment_->outputs();
  }
  run_finished_ = true;
}

// ---------------------------------------------------------------------
// Checkpoint-fork support.
// ---------------------------------------------------------------------

bool ThorRdTarget::SupportsCheckpointFork() const {
  return card_.options().link_fault_probability == 0.0;
}

Result<sim::Snapshot> ThorRdTarget::CaptureSnapshot() {
  if (!card_.initialized()) {
    return FailedPreconditionError("test card not initialized");
  }
  sim::Snapshot snapshot;
  snapshot.instret = card_.cpu().instret();
  snapshot.cpu = card_.cpu().CaptureState();
  snapshot.tap = card_.tap().CaptureState();
  if (environment_ != nullptr) {
    snapshot.extras["environment"] = environment_->CaptureState();
  }
  return snapshot;
}

Status ThorRdTarget::RestoreSnapshot(const sim::Snapshot& snapshot) {
  if (!card_.initialized()) {
    return FailedPreconditionError("test card not initialized");
  }
  if (!snapshot.cpu.has_value() || !snapshot.tap.has_value()) {
    return InvalidArgumentError(
        "snapshot is missing CPU or TAP state for target '" + name_ + "'");
  }
  RETURN_IF_ERROR(card_.cpu().RestoreState(*snapshot.cpu));
  card_.tap().RestoreState(*snapshot.tap);
  if (environment_ != nullptr) {
    static const std::any kNoState;
    const auto found = snapshot.extras.find("environment");
    RETURN_IF_ERROR(environment_->RestoreState(
        found != snapshot.extras.end() ? found->second : kNoState));
  }
  return Status::Ok();
}

Result<bool> ThorRdTarget::RunInStrides(
    std::uint64_t stride, std::uint64_t points,
    const std::function<Result<bool>()>& at_point) {
  const EffectiveTermination term = ResolveTermination();
  const std::uint64_t spacing = (stride + points - 1) / points;
  for (;;) {
    const std::uint64_t remaining = RemainingBudget(term);
    if (remaining == 0) {
      // The budget expired exactly on a stride boundary; report what a
      // single un-chunked run would have reported.
      sim::RunResult result;
      result.reason = sim::StopReason::kBudgetExhausted;
      result.instructions_executed = 0;
      FinishRun(result);
      return false;
    }
    const std::uint64_t offset = card_.cpu().instret() % stride;
    const std::uint64_t to_point =
        std::min(stride, (offset / spacing + 1) * spacing) - offset;
    const sim::RunResult result =
        card_.Run(std::min(remaining, to_point), term.max_iterations,
                  IterationCallback());
    if (result.reason != sim::StopReason::kBudgetExhausted ||
        RemainingBudget(term) == 0) {
      FinishRun(result);
      return false;
    }
    ASSIGN_OR_RETURN(const bool stop, at_point());
    if (stop) return true;
  }
}

Status ThorRdTarget::RunToTerminationRecordingCheckpoints() {
  // The recorder is attached before the first capture, so every capture
  // shares the pages the run did not store into since the one before.
  sim::Memory& memory = card_.cpu().memory();
  sim::ReadAheadRecorder reads(memory);
  memory.set_read_ahead_recorder(&reads);
  const std::uint64_t stride = checkpoint_sink_->stride;
  std::vector<std::size_t> stride_boundaries;
  auto record = [&]() -> Result<bool> {
    ASSIGN_OR_RETURN(sim::Snapshot snapshot, CaptureSnapshot());
    if (snapshot.instret % stride == 0) {
      stride_boundaries.push_back(checkpoint_sink_->boundaries.size());
      reads.MarkBoundary();
    }
    checkpoint_sink_->boundaries.push_back(
        {std::make_shared<const sim::Snapshot>(std::move(snapshot)), {}});
    return false;
  };
  Result<bool> ran = record();
  if (ran.ok()) ran = RunInStrides(stride, kForkPointsPerStride, record);
  memory.set_read_ahead_recorder(nullptr);
  RETURN_IF_ERROR(ran.status());
  std::vector<sim::MemoryWordSet> sets = reads.Finish();
  for (std::size_t i = 0; i < sets.size(); ++i) {
    checkpoint_sink_->boundaries[stride_boundaries[i]].reads_ahead =
        std::move(sets[i]);
  }
  return Status::Ok();
}

bool ThorRdTarget::MayConverge() const {
  return golden_run_ != nullptr && start_snapshot_ != nullptr &&
         golden_run_->stride != 0 &&
         spec_.model.kind == FaultModel::Kind::kTransientBitFlip &&
         logging_mode_ == LoggingMode::kNormal &&
         external_tracer_ == nullptr && !card_.cpu().has_post_step_hooks();
}

bool ThorRdTarget::MatchesGoldenAt(const GoldenRun::Boundary& boundary) const {
  const sim::Snapshot& golden = *boundary.snapshot;
  const sim::Cpu& cpu = card_.cpu();
  if (!golden.cpu.has_value() || boundary.reads_ahead.backings.empty() ||
      !cpu.MatchesExceptMemory(*golden.cpu, fork_emitted_)) {
    return false;
  }
  if (environment_ != nullptr) {
    const auto found = golden.extras.find("environment");
    if (found == golden.extras.end() ||
        !environment_->MatchesState(found->second, fork_env_outputs_)) {
      return false;
    }
  }
  if (!ExtraStateMatches(golden)) return false;
  // A word may still differ when no observation reads it — outside the
  // output region the final dump reads and the IO page the environment
  // reads — and the golden run does not read it from memory before it
  // next stores to it.
  const std::vector<sim::Segment>& segments = cpu.memory().segments();
  const std::uint64_t output_lo = workload_.output_base;
  const std::uint64_t output_hi = output_lo + workload_.output_length;
  return cpu.memory().DiffersOnlyWhere(
      golden.cpu->memory, [&](std::size_t backing, std::size_t word) {
        const std::uint64_t address =
            segments[backing].base + std::uint64_t{4} * word;
        const bool observed =
            (address < output_hi && address + 4 > output_lo) ||
            (address >= kIoBase && address < std::uint64_t{kIoBase} + kIoSize);
        return !observed && !boundary.reads_ahead.Contains(backing, word);
      });
}

// ---------------------------------------------------------------------
// Abstract operations (paper Fig. 3).
// ---------------------------------------------------------------------

Status ThorRdTarget::initTestCard() {
  RETURN_IF_ERROR(card_.Initialize());
  card_.cpu().ClearPostStepHooks();
  scan_images_.clear();
  breakpoint_hit_ = false;
  run_finished_ = false;
  convergence_ = Convergence{};
  fork_emitted_ = 0;
  fork_env_outputs_ = 0;
  link_retry_baseline_ = card_.link_stats().words_retried;
  return Status::Ok();
}

Status ThorRdTarget::loadWorkload() {
  if (!assembled_.has_value()) {
    return FailedPreconditionError("no workload installed; call "
                                   "SetWorkload first");
  }
  return Status::Ok();
}

Status ThorRdTarget::writeMemory() {
  if (start_snapshot_ != nullptr) {
    // Forked run: the snapshot carries the full memory image, so the
    // download would only be overwritten when runWorkload restores it.
    return Status::Ok();
  }
  // A fresh download: clear residue from the previous experiment first
  // (the workloads sort and scribble in place).
  card_.cpu().memory().ClearContents();
  return card_.LoadProgram(*assembled_);
}

Status ThorRdTarget::runWorkload() {
  if (start_snapshot_ != nullptr) {
    // Fork from the installed golden checkpoint instead of reset. The
    // debug unit and post-step hooks were already cleared by
    // initTestCard, matching a replay's state at the same instruction.
    RETURN_IF_ERROR(RestoreSnapshot(*start_snapshot_));
    fork_emitted_ = card_.cpu().emitted().size();
    if (environment_ != nullptr) {
      fork_env_outputs_ = environment_->outputs().size();
    }
  } else {
    card_.ResetTarget(assembled_->entry);
    if (environment_ != nullptr) {
      environment_->Reset(card_.cpu().memory());
    }
  }
  // Workloads that define a trap_handler symbol run with EDM
  // trap-to-handler (best-effort recovery) instead of fail-stop.
  const auto handler = assembled_->symbols.find("trap_handler");
  card_.cpu().set_trap_handler(handler != assembled_->symbols.end(),
                               handler != assembled_->symbols.end()
                                   ? handler->second
                                   : 0);
  const bool want_trace = external_tracer_ != nullptr ||
                          logging_mode_ == LoggingMode::kDetail;
  card_.cpu().set_tracer(want_trace ? &trace_mux_ : nullptr);
  return Status::Ok();
}

Status ThorRdTarget::waitForBreakpoint() {
  const EffectiveTermination term = ResolveTermination();
  card_.SetBreakpoint(spec_.trigger);
  const sim::RunResult result = card_.Run(
      RemainingBudget(term), term.max_iterations, IterationCallback());
  if (result.reason == sim::StopReason::kBreakpoint) {
    breakpoint_hit_ = true;
  } else {
    // The workload ended before the trigger: record the outcome now;
    // the injection phases become no-ops and the experiment is
    // classified as "fault not injected".
    FinishRun(result);
  }
  return Status::Ok();
}

Status ThorRdTarget::readScanChain() {
  // A converged run already holds the golden run's final chain images.
  if (convergence_.converged) return Status::Ok();
  for (const sim::ScanChain& chain : card_.chains().chains) {
    ASSIGN_OR_RETURN(BitVector image, card_.ReadChain(chain.name()));
    scan_images_[chain.name()] = image;
    observation_.chain_images[chain.name()] = std::move(image);
  }
  return Status::Ok();
}

Status ThorRdTarget::injectFault() {
  const bool needs_trigger = spec_.technique != Technique::kSwifiPreRuntime;
  if (needs_trigger && !breakpoint_hit_) return Status::Ok();
  for (const FaultTarget& fault : spec_.targets) {
    RETURN_IF_ERROR(InjectFaultTarget(fault));
  }
  observation_.fault_was_injected = !spec_.targets.empty();
  return Status::Ok();
}

Status ThorRdTarget::InjectFaultTarget(const FaultTarget& fault) {
  switch (spec_.technique) {
    case Technique::kScifi:
      if (IsMemoryLocation(fault.location)) {
        return InvalidArgumentError(
            "SCIFI reaches scan elements, not memory: " + fault.location);
      }
      return InjectIntoImage(fault);
    case Technique::kSwifiPreRuntime:
      if (!IsMemoryLocation(fault.location)) {
        return InvalidArgumentError(
            "pre-runtime SWIFI reaches the memory image only: " +
            fault.location);
      }
      return InjectIntoMemory(fault);
    case Technique::kSwifiRuntime:
      return IsMemoryLocation(fault.location) ? InjectIntoMemory(fault)
                                              : InjectIntoCpu(fault);
  }
  return InternalError("unknown technique");
}

Status ThorRdTarget::writeScanChain() {
  if (!breakpoint_hit_) return Status::Ok();
  for (const auto& [chain_name, image] : scan_images_) {
    ASSIGN_OR_RETURN(const BitVector shifted_out,
                     card_.ExchangeChain(chain_name, image));
    (void)shifted_out;
  }
  return Status::Ok();
}

Status ThorRdTarget::waitForTermination() {
  if (run_finished_) return Status::Ok();
  // A recording reference run runs in stride-sized chunks. They only
  // add debug-port run commands, which no observation field sees, so
  // its golden observation is bit-identical to an un-chunked run's.
  if (checkpoint_sink_ != nullptr) {
    return RunToTerminationRecordingCheckpoints();
  }
  if (!MayConverge()) {
    const EffectiveTermination term = ResolveTermination();
    const sim::RunResult result = card_.Run(
        RemainingBudget(term), term.max_iterations, IterationCallback());
    FinishRun(result);
    return Status::Ok();
  }
  // Run boundary to boundary; where the live state matches the golden
  // snapshot, the rest of the run is the golden run's.
  ASSIGN_OR_RETURN(
      const bool converged,
      RunInStrides(golden_run_->stride, 1, [this]() -> Result<bool> {
        const std::uint64_t instret = card_.cpu().instret();
        const GoldenRun::Boundary* boundary = golden_run_->AtOrBelow(instret);
        return boundary != nullptr && boundary->snapshot->instret == instret &&
               MatchesGoldenAt(*boundary);
      }));
  if (!converged) return Status::Ok();
  const bool injected = observation_.fault_was_injected;
  observation_ = golden_run_->final_observation;
  observation_.fault_was_injected = injected;
  convergence_.converged = true;
  convergence_.instructions_skipped =
      observation_.instructions - card_.cpu().instret();
  run_finished_ = true;
  return Status::Ok();
}

Status ThorRdTarget::readMemory() {
  // A converged run already holds the golden run's output region and
  // emitted words.
  if (!convergence_.converged) {
    if (workload_.output_length != 0) {
      ASSIGN_OR_RETURN(
          observation_.output_region,
          card_.DumpMemory(workload_.output_base, workload_.output_length));
    }
    observation_.emitted = card_.cpu().emitted();
  }
  observation_.link_words_retried =
      card_.link_stats().words_retried - link_retry_baseline_;
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Fault application.
// ---------------------------------------------------------------------

Status ThorRdTarget::InjectIntoImage(const FaultTarget& fault) {
  const auto found = card_.chains().FindElement(fault.location);
  if (!found.has_value()) {
    return NotFoundError("no scan element named '" + fault.location + "'");
  }
  const auto [chain, element] = *found;
  if (element->access == sim::ScanAccess::kReadOnly) {
    return TargetFaultError("scan element '" + fault.location +
                            "' is observe-only; the chain write-back "
                            "would be ignored");
  }
  if (fault.bit >= element->width) {
    return OutOfRangeError(StrFormat("bit %u of %zu-bit element %s",
                                     fault.bit, element->width,
                                     fault.location.c_str()));
  }
  auto image = scan_images_.find(chain->name());
  if (image == scan_images_.end()) {
    return FailedPreconditionError("injectFault before readScanChain");
  }
  const std::size_t position = element->position + fault.bit;
  switch (spec_.model.kind) {
    case FaultModel::Kind::kTransientBitFlip:
      image->second.Flip(position);
      break;
    case FaultModel::Kind::kPermanentStuckAt:
      image->second.Set(position, spec_.model.stuck_to_one);
      InstallModelHook(element, fault.bit);
      break;
    case FaultModel::Kind::kIntermittentBitFlip:
      image->second.Flip(position);
      InstallModelHook(element, fault.bit);
      break;
  }
  return Status::Ok();
}

Status ThorRdTarget::InjectIntoCpu(const FaultTarget& fault) {
  const auto found = card_.chains().FindElement(fault.location);
  if (!found.has_value()) {
    return NotFoundError("no scan element named '" + fault.location + "'");
  }
  const sim::ScanElement* element = found->second;
  if (element->access == sim::ScanAccess::kReadOnly) {
    return TargetFaultError("scan element '" + fault.location +
                            "' is observe-only");
  }
  if (fault.bit >= element->width) {
    return OutOfRangeError(StrFormat("bit %u of %zu-bit element %s",
                                     fault.bit, element->width,
                                     fault.location.c_str()));
  }
  sim::Cpu& cpu = card_.cpu();
  std::uint64_t value = element->get(cpu);
  switch (spec_.model.kind) {
    case FaultModel::Kind::kTransientBitFlip:
      value ^= std::uint64_t{1} << fault.bit;
      break;
    case FaultModel::Kind::kPermanentStuckAt:
      if (spec_.model.stuck_to_one) {
        value |= std::uint64_t{1} << fault.bit;
      } else {
        value &= ~(std::uint64_t{1} << fault.bit);
      }
      InstallModelHook(element, fault.bit);
      break;
    case FaultModel::Kind::kIntermittentBitFlip:
      value ^= std::uint64_t{1} << fault.bit;
      InstallModelHook(element, fault.bit);
      break;
  }
  element->set(cpu, value);
  return Status::Ok();
}

Status ThorRdTarget::InjectIntoMemory(const FaultTarget& fault) {
  ASSIGN_OR_RETURN(const std::uint32_t address,
                   ParseMemoryLocation(fault.location));
  if (fault.bit > 7) {
    return OutOfRangeError(
        StrFormat("bit %u of byte at 0x%08x", fault.bit, address));
  }
  sim::Memory& memory = card_.cpu().memory();
  switch (spec_.model.kind) {
    case FaultModel::Kind::kTransientBitFlip:
      return card_.FlipMemoryBit(address, fault.bit);
    case FaultModel::Kind::kPermanentStuckAt: {
      std::uint8_t byte = 0;
      if (!memory.Peek(address, &byte)) {
        return NotFoundError(
            StrFormat("no memory mapped at 0x%08x", address));
      }
      const std::uint8_t mask =
          static_cast<std::uint8_t>(1u << fault.bit);
      byte = spec_.model.stuck_to_one
                 ? static_cast<std::uint8_t>(byte | mask)
                 : static_cast<std::uint8_t>(byte & ~mask);
      (void)memory.Poke(address, byte);
      InstallMemoryModelHook(address, fault.bit);
      return Status::Ok();
    }
    case FaultModel::Kind::kIntermittentBitFlip:
      RETURN_IF_ERROR(card_.FlipMemoryBit(address, fault.bit));
      InstallMemoryModelHook(address, fault.bit);
      return Status::Ok();
  }
  return InvalidArgumentError("unknown fault model");
}

void ThorRdTarget::InstallModelHook(const sim::ScanElement* element,
                                    std::uint32_t bit) {
  const FaultModel model = spec_.model;
  if (model.kind == FaultModel::Kind::kPermanentStuckAt) {
    card_.cpu().AddPostStepHook([element, bit, model](sim::Cpu& cpu) {
      std::uint64_t value = element->get(cpu);
      if (model.stuck_to_one) {
        value |= std::uint64_t{1} << bit;
      } else {
        value &= ~(std::uint64_t{1} << bit);
      }
      element->set(cpu, value);
    });
    return;
  }
  // Intermittent: re-flip every `period` instructions, `occurrences`
  // times in total (the initial flip counts as the first occurrence).
  const std::uint64_t period = model.period != 0 ? model.period : 1;
  std::uint32_t remaining =
      model.occurrences > 1 ? model.occurrences - 1 : 0;
  std::uint64_t next = card_.cpu().instret() + period;
  card_.cpu().AddPostStepHook(
      [element, bit, remaining, next, period](sim::Cpu& cpu) mutable {
        if (remaining == 0 || cpu.instret() < next) return;
        element->set(cpu, element->get(cpu) ^ (std::uint64_t{1} << bit));
        next += period;
        --remaining;
      });
}

void ThorRdTarget::InstallMemoryModelHook(std::uint32_t address,
                                          std::uint32_t bit) {
  const FaultModel model = spec_.model;
  if (model.kind == FaultModel::Kind::kPermanentStuckAt) {
    card_.cpu().AddPostStepHook([address, bit, model](sim::Cpu& cpu) {
      std::uint8_t byte = 0;
      if (!cpu.memory().Peek(address, &byte)) return;
      const std::uint8_t mask = static_cast<std::uint8_t>(1u << bit);
      byte = model.stuck_to_one ? static_cast<std::uint8_t>(byte | mask)
                                : static_cast<std::uint8_t>(byte & ~mask);
      (void)cpu.memory().Poke(address, byte);
    });
    return;
  }
  const std::uint64_t period = model.period != 0 ? model.period : 1;
  std::uint32_t remaining =
      model.occurrences > 1 ? model.occurrences - 1 : 0;
  std::uint64_t next = card_.cpu().instret() + period;
  const std::uint64_t step = period;
  card_.cpu().AddPostStepHook(
      [address, bit, remaining, next, step](sim::Cpu& cpu) mutable {
        if (remaining == 0 || cpu.instret() < next) return;
        (void)cpu.memory().FlipBit(address, static_cast<unsigned>(bit));
        next += step;
        --remaining;
      });
}

// ---------------------------------------------------------------------
// Trace fan-out.
// ---------------------------------------------------------------------

void ThorRdTarget::TraceMux::OnInstructionRetired(
    const sim::Cpu& cpu, const sim::Instruction& instruction,
    std::uint64_t time, std::uint32_t pc) {
  if (target_->external_tracer_ != nullptr) {
    target_->external_tracer_->OnInstructionRetired(cpu, instruction, time,
                                                    pc);
  }
  if (target_->logging_mode_ == LoggingMode::kDetail) {
    const sim::ScanChain* internal =
        target_->card_.chains().FindChain("internal");
    target_->observation_.detail_trace.emplace_back(
        time, internal->Capture(cpu));
  }
}

void ThorRdTarget::TraceMux::OnRegisterRead(unsigned reg,
                                            std::uint64_t time) {
  if (target_->external_tracer_ != nullptr) {
    target_->external_tracer_->OnRegisterRead(reg, time);
  }
}

void ThorRdTarget::TraceMux::OnRegisterWrite(unsigned reg,
                                             std::uint32_t old_value,
                                             std::uint32_t new_value,
                                             std::uint64_t time) {
  if (target_->external_tracer_ != nullptr) {
    target_->external_tracer_->OnRegisterWrite(reg, old_value, new_value,
                                               time);
  }
}

void ThorRdTarget::TraceMux::OnMemoryRead(std::uint32_t address,
                                          unsigned bytes,
                                          std::uint64_t time) {
  if (target_->external_tracer_ != nullptr) {
    target_->external_tracer_->OnMemoryRead(address, bytes, time);
  }
}

void ThorRdTarget::TraceMux::OnMemoryWrite(std::uint32_t address,
                                           unsigned bytes,
                                           std::uint32_t value,
                                           std::uint64_t time) {
  if (target_->external_tracer_ != nullptr) {
    target_->external_tracer_->OnMemoryWrite(address, bytes, value, time);
  }
}

std::unique_ptr<ThorRdTarget> MakeThorTarget() {
  TestCardOptions options;
  options.cpu_config.edm.SetEnabled(sim::EdmType::kIcacheParity, false);
  options.cpu_config.edm.SetEnabled(sim::EdmType::kDcacheParity, false);
  return std::make_unique<ThorRdTarget>(options, "thor");
}

}  // namespace goofi::target
