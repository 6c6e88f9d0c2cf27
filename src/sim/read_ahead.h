// Which main-memory words a run reads from memory before it next stores
// to them, seen from each of a series of boundaries.
//
// Checkpoint fork's convergence test (target/golden_run.h) asks, at a
// golden checkpoint boundary, whether a faulty run whose CPU, caches
// and logs are back on the golden path but whose memory still differs
// in a few words can take the golden run's outcome. It can when the
// golden run never reads any of those words from main memory before it
// overwrites them: a word that differs only in memory reaches compared
// state through such a read alone. A cache fill, an uncached load and
// a byte load read memory; a word store kills the word; a byte store
// does not (the other bytes still differ). A load that hits the D-cache
// never reads memory, which is why the instruction-level AccessRecorder
// cannot answer this question.
//
// The recorder watches the golden recording run through Memory's access
// observer and builds one MemoryWordSet per boundary in a single pass:
// every word remembers the first boundary it has not been accessed
// since, and its first read or word store settles all boundaries from
// there on at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace goofi::sim {

class Memory;

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

  // Memory's access observer.
  void OnRead(std::size_t backing, std::size_t word);
  void OnWordStore(std::size_t backing, std::size_t word) {
    first_open_[backing][word] = static_cast<std::uint32_t>(sets_.size());
  }

  // One set per MarkBoundary call, in order: the words the run read from
  // memory after that boundary before its next word store to them.
  std::vector<MemoryWordSet> Finish() { return std::move(sets_); }

 private:
  // Per word: the first boundary whose verdict for it is still open.
  std::vector<std::vector<std::uint32_t>> first_open_;
  std::vector<MemoryWordSet> sets_;
  MemoryWordSet empty_;
};

}  // namespace goofi::sim
