// The golden recording run's main-memory observer. It answers two
// questions about the run, each seen from a series of points.
//
// Which words does the run read from memory before it next stores to
// them, seen from each boundary? Checkpoint fork's convergence test
// (target/golden_run.h) asks, at a golden checkpoint boundary, whether
// a faulty run whose CPU, caches and logs are back on the golden path
// but whose memory still differs in a few words can take the golden
// run's outcome. It can when the golden run never reads any of those
// words from main memory before it overwrites them: a word that differs
// only in memory reaches compared state through such a read alone. A
// cache fill, an uncached load and a byte load read memory; a word
// store kills the word; a byte store does not (the other bytes still
// differ), and neither does a backdoor write. A load that hits the
// D-cache never reads memory, which is why the instruction-level
// AccessRecorder cannot answer this question. The recorder builds one
// MemoryWordSet per boundary in a single pass: every word remembers the
// first boundary it has not been accessed since, and its first read or
// word store settles all boundaries from there on at once.
//
// Which pages has the run stored into since the previous capture?
// Every path that changes a byte reports it, so Memory::CaptureState
// can share each other page with the previous capture (sim/memory.h):
// the golden run's dense fork grid costs the pages the run wrote, not
// a full image per point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace goofi::sim {

class Memory;
struct MemoryState;

// One bit per 4-byte word of each memory segment, by backing index (the
// segment mapping order).
struct MemoryWordSet {
  std::vector<std::vector<std::uint64_t>> backings;

  bool Contains(std::size_t backing, std::size_t word) const {
    return (backings[backing][word / 64] >> (word % 64) & 1) != 0;
  }
};

class ReadAheadRecorder {
 public:
  // Sized for `memory`'s segments; attach it with
  // Memory::set_read_ahead_recorder.
  explicit ReadAheadRecorder(const Memory& memory);

  // Open a new boundary at the current point of the run.
  void MarkBoundary();

  // Memory's access observer: a read from memory, a word store, and any
  // other store (`length` bytes at byte `offset`), which settles no
  // read-ahead verdict.
  void OnRead(std::size_t backing, std::size_t word);
  void OnWordStore(std::size_t backing, std::size_t word) {
    first_open_[backing][word] = static_cast<std::uint32_t>(sets_.size());
    OnStore(backing, word * 4, 4);
  }
  void OnStore(std::size_t backing, std::size_t offset, std::size_t length);

  // Page sharing for Memory::CaptureState: the previous capture's page
  // `page` of `backing` when no store has touched it since, else null.
  const std::shared_ptr<const std::uint8_t[]>& UnchangedPage(
      std::size_t backing, std::size_t page) const {
    return pages_[backing][page];
  }
  // `state` is the newest capture.
  void OnCapture(const MemoryState& state);

  // One set per MarkBoundary call, in order: the words the run read from
  // memory after that boundary before its next word store to them.
  std::vector<MemoryWordSet> Finish() { return std::move(sets_); }

 private:
  // Per word: the first boundary whose verdict for it is still open.
  std::vector<std::vector<std::uint32_t>> first_open_;
  std::vector<MemoryWordSet> sets_;
  MemoryWordSet empty_;
  // Per page: the previous capture's page, reset by a store into it.
  std::vector<std::vector<std::shared_ptr<const std::uint8_t[]>>> pages_;
};

}  // namespace goofi::sim
