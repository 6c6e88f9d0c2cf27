// Value types shared between the fault-injection algorithms, the
// campaign machinery and the concrete targets (DESIGN.md §2,
// src/target).
//
// The vocabulary is the paper's: a *technique* selects one of the three
// fault-injection algorithms of Fig. 2 (SCIFI via the scan chains,
// pre-runtime SWIFI into the downloaded memory image, runtime SWIFI
// through the debug port), an *experiment* names the fault (where, when,
// what model), and an *observation* is the logged system state the
// analysis stage classifies.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/debug_unit.h"
#include "sim/edm.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace goofi::target {

// ---------------------------------------------------------------------
// Techniques (paper §2.1: "GOOFI currently supports pre-runtime SWIFI
// and Scan-Chain Implemented Fault Injection").
// ---------------------------------------------------------------------
enum class Technique {
  kScifi,
  kSwifiPreRuntime,
  kSwifiRuntime,
};
// Names by enumerator, as campaign inis and CampaignData spell them.
inline constexpr const char* kTechniqueNames[] = {"scifi", "swifi_pre_runtime",
                                                  "swifi_runtime"};

const char* TechniqueName(Technique technique);
std::optional<Technique> TechniqueFromName(const std::string& name);

// ---------------------------------------------------------------------
// Fault models (paper §2.1: "transient, permanent and intermittent
// faults").
// ---------------------------------------------------------------------
struct FaultModel {
  enum class Kind {
    kTransientBitFlip,    // single bit flip at injection time
    kIntermittentBitFlip, // re-flips every `period` instructions
    kPermanentStuckAt,    // held at `stuck_to_one` for the rest of the run
  };

  Kind kind = Kind::kTransientBitFlip;
  std::uint64_t period = 0;       // intermittent: instructions between flips
  std::uint32_t occurrences = 0;  // intermittent: number of re-flips (0 = 1)
  bool stuck_to_one = true;       // permanent: stuck-at-1 vs stuck-at-0

  bool operator==(const FaultModel&) const = default;
};

inline constexpr const char* kFaultModelKindNames[] = {
    "transient", "intermittent", "permanent"};

const char* FaultModelKindName(FaultModel::Kind kind);
std::optional<FaultModel::Kind> FaultModelKindFromName(
    const std::string& name);

// One fault location: a named state element (scan-chain element,
// register, or "mem@0xADDRESS" for a memory byte) and a bit within it.
struct FaultTarget {
  std::string location;
  std::uint32_t bit = 0;
};

// When to stop an experiment regardless of the workload's own behaviour
// (the paper's tool-level timeout). Zero means "use the workload's
// default" (and ultimately a global budget).
struct TerminationSpec {
  std::uint64_t max_instructions = 0;
  std::uint64_t max_iterations = 0;

  bool operator==(const TerminationSpec&) const = default;
};

// The tool-level instruction budget a run executes under: the
// experiment's (campaign's) bound beats the workload's default, which
// beats a global 2,000,000 — well past any built-in workload, but
// bounded so a corrupted target with every EDM disabled still
// terminates. Targets stop runs at it; supervision deadlines and
// checkpoint strides derive from it.
std::uint64_t EffectiveInstructionBudget(const TerminationSpec& experiment,
                                         const TerminationSpec& workload);

// Paper §3.3: normal logging records the final system state only;
// detail mode additionally captures the internal scan chain after every
// instruction ("the state ... is logged after each instruction").
enum class LoggingMode {
  kNormal,
  kDetail,
};
inline constexpr const char* kLoggingModeNames[] = {"normal", "detail"};

// ---------------------------------------------------------------------
// One fault-injection experiment (a row-to-be in LoggedSystemState).
// ---------------------------------------------------------------------
struct ExperimentSpec {
  std::string name;
  Technique technique = Technique::kScifi;
  // The injection trigger: the experiment runs until this breakpoint
  // fires, then the fault is injected. Defaults to "instret >= 0",
  // i.e. inject before the first instruction.
  sim::Breakpoint trigger;
  std::vector<FaultTarget> targets;  // >1 entries = multiple-bit fault
  FaultModel model;
  TerminationSpec termination{0, 0};
};

// ---------------------------------------------------------------------
// The logged system state of one run (reference or experiment).
// ---------------------------------------------------------------------
struct Observation {
  sim::StopReason stop_reason = sim::StopReason::kHalted;
  std::uint64_t instructions = 0;
  std::uint64_t iterations = 0;
  std::uint64_t recovery_count = 0;
  bool fault_was_injected = false;
  // Words the test card's exchange chain had to retry on the host link
  // during this run (TestCard link-level fault recovery). 0 on a clean
  // link; serialized only when nonzero so fault-free observations keep
  // their historical text form.
  std::uint64_t link_words_retried = 0;
  // First error-detection event, when the run stopped on one.
  std::optional<sim::EdmEvent> edm;
  // Final image of each scan chain, keyed by chain name.
  std::map<std::string, BitVector> chain_images;
  // Raw bytes of the workload's declared output region.
  std::vector<std::uint8_t> output_region;
  // Values the workload emitted with SYS 4.
  std::vector<std::uint32_t> emitted;
  // Actuator values the environment model observed, one per iteration.
  std::vector<std::uint32_t> env_outputs;
  // Detail mode only: (time, internal-chain image) per retired
  // instruction.
  std::vector<std::pair<std::uint64_t, BitVector>> detail_trace;

  // Round-trippable text form, stored in LoggedSystemState.stateVector.
  std::string Serialize() const;
  static Result<Observation> Deserialize(const std::string& text);
};

}  // namespace goofi::target
