#include "sim/read_ahead.h"

#include "sim/memory.h"

namespace goofi::sim {

ReadAheadRecorder::ReadAheadRecorder(const Memory& memory) {
  for (const Segment& segment : memory.segments()) {
    const std::size_t words = (segment.size + 3) / 4;
    first_open_.emplace_back(words, 0);
    empty_.backings.emplace_back((words + 63) / 64, 0);
  }
}

void ReadAheadRecorder::MarkBoundary() { sets_.push_back(empty_); }

void ReadAheadRecorder::OnRead(std::size_t backing, std::size_t word) {
  const std::uint32_t boundaries = static_cast<std::uint32_t>(sets_.size());
  std::uint32_t& first_open = first_open_[backing][word];
  for (std::uint32_t b = first_open; b < boundaries; ++b) {
    sets_[b].backings[backing][word / 64] |= std::uint64_t{1} << (word % 64);
  }
  first_open = boundaries;
}

}  // namespace goofi::sim
