// Target memory: named segments with R/W/X protection.
//
// Protection violations feed the machine-level error-detection mechanisms
// (EDMs) of the simulated Thor-RD-like CPU: a corrupted pointer that
// strays outside its segment, or a corrupted PC that leaves the code
// segment, is *detected* rather than silent — exactly the detected/escaped
// distinction the paper's analysis phase classifies.
//
// Live memory is one flat byte array per segment. A captured image
// (MemoryState) holds each segment as fixed-size pages behind shared
// pointers, so the golden run's many checkpoints (target/golden_run.h)
// share every page the run did not store into between them: while a
// ReadAheadRecorder is attached, a capture reuses the previous
// capture's page wherever the recorder saw no store (sim/read_ahead.h).
// Restore copies the pages back into the flat arrays.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace goofi::sim {

class FaultInjector;       // sim/fault_injector.h
class ReadAheadRecorder;   // sim/read_ahead.h

enum class MemFault {
  kNone = 0,
  kUnmapped,     // no segment covers the address
  kProtection,   // segment exists but forbids this access kind
  kMisaligned,   // word access not 4-byte aligned
};

enum class AccessKind { kRead, kWrite, kExecute };

struct Segment {
  std::string name;
  std::uint32_t base = 0;
  std::uint32_t size = 0;  // bytes
  bool readable = true;
  bool writable = true;
  bool executable = false;
  // Device/I-O segments bypass the data cache (the environment simulator
  // writes them from outside the chip, so cached copies would go stale).
  bool uncacheable = false;
};

// Bytes per page of a captured memory image. A segment's last page
// holds what is left of it.
inline constexpr std::size_t kMemoryPageBytes = 1024;

// Segment contents by backing index; the segment map itself is part of
// the board's identity (test_card Initialize) and must already match.
// Pages are immutable once captured, so any number of captures (and
// threads) may share one.
struct MemoryState {
  struct Backing {
    std::size_t size = 0;  // bytes
    // Page p holds bytes [p * kMemoryPageBytes, min(size, (p + 1) *
    // kMemoryPageBytes)).
    std::vector<std::shared_ptr<const std::uint8_t[]>> pages;

    std::size_t PageSize(std::size_t page) const {
      return std::min(kMemoryPageBytes, size - page * kMemoryPageBytes);
    }
    // Equal bytes, whether or not the pages are shared.
    friend bool operator==(const Backing& a, const Backing& b);
  };
  std::vector<Backing> backings;
};

class Memory {
 public:
  // Adds a segment (zero-initialized). Segments must not overlap.
  Status AddSegment(Segment segment);

  const std::vector<Segment>& segments() const { return segments_; }
  const Segment* FindSegment(std::uint32_t address) const {
    const Backing* backing = FindBacking(address);
    return backing == nullptr ? nullptr : &backing->segment;
  }
  const Segment* FindSegmentByName(const std::string& name) const;

  // Protection-checked accesses used by the CPU. Word accesses must be
  // 4-byte aligned. Little-endian.
  MemFault ReadWord(std::uint32_t address, std::uint32_t* value,
                    AccessKind kind = AccessKind::kRead) const;
  MemFault WriteWord(std::uint32_t address, std::uint32_t value);
  MemFault ReadByte(std::uint32_t address, std::uint8_t* value) const;
  MemFault WriteByte(std::uint32_t address, std::uint8_t value);

  // Unchecked accesses for the loader, the test card, the environment
  // model and fault injection (pre-runtime SWIFI flips bits in the image
  // before execution). They fail only when the address is unmapped.
  bool Peek(std::uint32_t address, std::uint8_t* value) const;
  bool Poke(std::uint32_t address, std::uint8_t value);
  bool PeekWord(std::uint32_t address, std::uint32_t* value) const;
  bool PokeWord(std::uint32_t address, std::uint32_t value);
  bool FlipBit(std::uint32_t address, unsigned bit);  // bit 0..7 of the byte

  // Bulk helpers for images and state-vector logging.
  Status LoadImage(std::uint32_t address, const std::vector<std::uint8_t>& bytes);
  Result<std::vector<std::uint8_t>> DumpRange(std::uint32_t address,
                                              std::uint32_t length) const;

  // Zero every segment's contents (segments stay mapped).
  void ClearContents();

  // Access-path fault injection (sim/fault_injector.h): ReadWord calls
  // PreRead (unit kMainMemory) and XORs its in-flight mask into the
  // loaded word; WriteWord calls PostWrite after the store. Peek/Poke
  // and the bulk helpers stay hook-free — they model the loader and the
  // test card's backdoor, not the access path.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  // Main-memory access observer, attached only while the golden run
  // records checkpoints (sim/read_ahead.h): ReadWord and ReadByte report
  // the word they read, WriteWord the word it stored, and every other
  // path that changes a byte (WriteByte, the Poke/PokeWord/FlipBit
  // backdoor and the bulk helpers built on it, ClearContents,
  // RestoreState) the bytes it changed. CaptureState shares the pages
  // the recorder saw no store into. nullptr detaches.
  void set_read_ahead_recorder(ReadAheadRecorder* recorder) {
    read_ahead_ = recorder;
  }

  // Checkpoint fork's convergence test: true when every 4-byte word in
  // which this memory differs from `state` passes `may_differ(backing,
  // word)` (backing index in mapping order, word index within it).
  // Compares in place; the segment layout must match the captured one.
  bool DiffersOnlyWhere(
      const MemoryState& state,
      const std::function<bool(std::size_t, std::size_t)>& may_differ) const;

  // Checkpoint support (sim/snapshot.h): capture/reinstate all segment
  // contents. A capture copies only the pages that an attached recorder
  // does not hand back unchanged.
  // RestoreState fails unless the segment layout (count and sizes, in
  // mapping order) matches the captured one.
  MemoryState CaptureState() const;
  Status RestoreState(const MemoryState& state);

 private:
  struct Backing {
    Segment segment;
    std::vector<std::uint8_t> bytes;
  };
  // Inline: every cache hit checks the segment of its address.
  const Backing* FindBacking(std::uint32_t address) const {
    for (const Backing& backing : backings_) {
      if (address >= backing.segment.base &&
          address - backing.segment.base < backing.segment.size) {
        return &backing;
      }
    }
    return nullptr;
  }
  Backing* FindBacking(std::uint32_t address) {
    return const_cast<Backing*>(
        static_cast<const Memory*>(this)->FindBacking(address));
  }

  std::vector<Segment> segments_;
  std::size_t IndexOf(const Backing* backing) const {
    return static_cast<std::size_t>(backing - backings_.data());
  }
  // Tells an attached recorder that `length` bytes at `offset` of
  // `backing` changed.
  void NoteStore(const Backing* backing, std::size_t offset,
                 std::size_t length) const;

  std::vector<Backing> backings_;
  FaultInjector* injector_ = nullptr;
  ReadAheadRecorder* read_ahead_ = nullptr;
};

}  // namespace goofi::sim
