// Direct-mapped, write-through caches with per-word parity bits.
//
// The Thor RD "features parity protected instruction and data caches";
// that parity logic is the hardware EDM that catches most faults injected
// into cache arrays via the scan chains. The model keeps every array bit
// (valid, tag, data words, parity bits) as addressable state so the scan
// chain can expose them as fault-injection locations:
//
//  - flipping a DATA bit leaves the stored parity stale -> the next read
//    hit raises a parity error (detected),
//  - flipping the PARITY bit itself also raises one (false alarm,
//    faithful to real parity checkers),
//  - flipping a TAG bit usually turns the next access into a miss and the
//    fault is refetched over (overwritten / non-effective),
//  - flipping VALID 1->0 silently invalidates the line (overwritten).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/memory.h"

namespace goofi::sim {

struct CacheGeometry {
  std::uint32_t lines = 16;           // power of two
  std::uint32_t words_per_line = 4;   // power of two
  std::uint32_t tag_bits = 24;
};

struct CacheLine {
  bool valid = false;
  std::uint32_t tag = 0;
  std::vector<std::uint32_t> words;
  std::vector<bool> parity;  // stored parity bit per word

  friend bool operator==(const CacheLine&, const CacheLine&) = default;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t parity_errors = 0;

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

// Every array bit of one cache: valid/tag/data words and the stored
// parity bits (the scan-reachable fault locations), plus the running
// statistics so a restored run's counters match replay-from-reset. The
// cache runs on this struct, so a snapshot is a copy of it.
struct CacheState {
  std::vector<CacheLine> lines;
  CacheStats stats;

  friend bool operator==(const CacheState&, const CacheState&) = default;
};

class Cache {
 public:
  explicit Cache(CacheGeometry geometry = {});

  const CacheGeometry& geometry() const { return geometry_; }
  const CacheStats& stats() const { return state_.stats; }

  // Read through the cache. On a hit the stored parity is checked;
  // *parity_error reports a mismatch (the CPU raises the corresponding
  // EDM). On a miss the line is filled from memory. Returns the memory
  // fault (if any) of the fill/access path.
  MemFault ReadWord(Memory& memory, std::uint32_t address,
                    std::uint32_t* value, AccessKind kind,
                    bool* parity_error) {
    *parity_error = false;
    if (address % 4 != 0) return MemFault::kMisaligned;
    std::uint32_t inflight_mask = 0;
    if (injector_ != nullptr) {
      inflight_mask = injector_->PreRead(injector_unit_, this, address, kind);
    }
    CacheLine& line = state_.lines[LineIndex(address)];
    if (!line.valid || line.tag != Tag(address)) {
      return ReadMiss(memory, address, value, kind, inflight_mask);
    }
    // Hit: the protection check still consults memory's segment map so a
    // cached-but-now-forbidden access kind cannot slip through.
    const Segment* segment = memory.FindSegment(address);
    if (segment == nullptr) return MemFault::kUnmapped;
    if ((kind == AccessKind::kExecute && !segment->executable) ||
        (kind == AccessKind::kRead && !segment->readable)) {
      return MemFault::kProtection;
    }
    ++state_.stats.hits;
    const std::uint32_t word = WordIndex(address);
    if (ComputeParity(line.words[word]) != line.parity[word]) {
      ++state_.stats.parity_errors;
      *parity_error = true;
    }
    *value = line.words[word] ^ inflight_mask;
    return MemFault::kNone;
  }

  // Write-through with write-update (no allocate on miss): memory is
  // written, and if the line is resident the cached word + parity are
  // refreshed.
  MemFault WriteWord(Memory& memory, std::uint32_t address,
                     std::uint32_t value);

  void Invalidate();

  // Raw array access for the scan chain.
  std::size_t line_count() const { return state_.lines.size(); }
  CacheLine& line(std::size_t index) { return state_.lines[index]; }
  const CacheLine& line(std::size_t index) const {
    return state_.lines[index];
  }

  // Address decomposition (public for tests and the scan-chain map).
  std::uint32_t LineIndex(std::uint32_t address) const {
    return (address >> line_shift_) & line_mask_;
  }
  std::uint32_t WordIndex(std::uint32_t address) const {
    return (address >> 2) & word_mask_;
  }
  std::uint32_t Tag(std::uint32_t address) const {
    return (address >> tag_shift_) & tag_mask_;
  }

  // Even parity over 32 bits.
  static bool ComputeParity(std::uint32_t word) {
    return (std::popcount(word) & 1) != 0;
  }

  // Access-path fault injection (sim/fault_injector.h). When installed,
  // ReadWord calls PreRead after the alignment check and before hit
  // determination (tag flips can turn the access into a miss, data flips
  // are seen by that read's own parity check) and XORs the returned
  // in-flight mask into the loaded word *after* the parity check;
  // WriteWord calls PostWrite after the write-through and resident-line
  // update. `unit` tells the injector which cache this is.
  void set_fault_injector(FaultInjector* injector, MemUnit unit) {
    injector_ = injector;
    injector_unit_ = unit;
  }
  FaultInjector* fault_injector() const { return injector_; }

  // Checkpoint support (sim/snapshot.h): every array bit — valid, tag,
  // data words and the stored parity bits — plus the statistics.
  // RestoreState fails when the line shape does not match the geometry.
  CacheState CaptureState() const { return state_; }
  Status RestoreState(const CacheState& state);
  // Every array bit equals `state`'s; the statistics are not compared.
  bool ArraysMatch(const CacheState& state) const {
    return state_.lines == state.lines;
  }

 private:
  // Fills the line holding `address` from memory and returns the word.
  MemFault ReadMiss(Memory& memory, std::uint32_t address,
                    std::uint32_t* value, AccessKind kind,
                    std::uint32_t inflight_mask);

  CacheGeometry geometry_;
  // Address decomposition, fixed by the geometry.
  unsigned line_shift_ = 0;
  unsigned tag_shift_ = 0;
  std::uint32_t word_mask_ = 0;
  std::uint32_t line_mask_ = 0;
  std::uint32_t tag_mask_ = 0;
  CacheState state_;
  // A line's worth of words read by a fill; the line itself is only
  // updated once the whole fill succeeded.
  std::vector<std::uint32_t> fill_;
  FaultInjector* injector_ = nullptr;
  MemUnit injector_unit_ = MemUnit::kMainMemory;
};

}  // namespace goofi::sim
