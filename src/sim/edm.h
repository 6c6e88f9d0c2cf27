// Error-detection mechanisms (EDMs) of the simulated target.
//
// The paper's analysis phase classifies "Detected errors: errors that are
// detected by the error detection mechanisms of the target system. These
// errors can be further classified into errors detected by each of the
// various mechanisms." This header is the catalogue of those mechanisms.
//
// Machine-level EDMs follow the Thor processor family: illegal opcode,
// memory protection, misaligned access, control flow leaving program
// memory, divide-by-zero, optional arithmetic overflow, I/D-cache parity
// and a watchdog timer. SYS 2 adds application-level executable
// assertions (the companion study [12] uses these on the control app).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace goofi::sim {

enum class EdmType : std::uint8_t {
  kIllegalOpcode = 0,
  kMemProtection,
  kMisalignedAccess,
  kPcOutOfRange,
  kDivByZero,
  kArithOverflow,   // disabled by default (would trip on pointer arith)
  kIcacheParity,
  kDcacheParity,
  kWatchdog,
  kAssertion,       // application-level (SYS kAssertFail)
};
inline constexpr int kEdmTypeCount = 10;

const char* EdmTypeName(EdmType type);
std::optional<EdmType> EdmTypeFromName(const std::string& name);

struct EdmEvent {
  EdmType type = EdmType::kIllegalOpcode;
  std::uint64_t time = 0;  // executed-instruction count when raised
  std::uint32_t pc = 0;
  std::string detail;

  friend bool operator==(const EdmEvent&, const EdmEvent&) = default;
};

// Which mechanisms are armed. A disabled mechanism means the condition
// passes silently (the fault stays latent or escapes) — comparing
// detection coverage with mechanisms on/off is a classic GOOFI campaign.
struct EdmConfig {
  bool enabled[kEdmTypeCount] = {
      true,   // kIllegalOpcode
      true,   // kMemProtection
      true,   // kMisalignedAccess
      true,   // kPcOutOfRange
      true,   // kDivByZero
      false,  // kArithOverflow
      true,   // kIcacheParity
      true,   // kDcacheParity
      true,   // kWatchdog
      true,   // kAssertion
  };

  bool IsEnabled(EdmType type) const {
    return enabled[static_cast<int>(type)];
  }
  void SetEnabled(EdmType type, bool value) {
    enabled[static_cast<int>(type)] = value;
  }
};

}  // namespace goofi::sim
