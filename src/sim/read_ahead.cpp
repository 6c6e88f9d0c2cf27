#include "sim/read_ahead.h"

#include "sim/memory.h"

namespace goofi::sim {

ReadAheadRecorder::ReadAheadRecorder(const Memory& memory) {
  for (const Segment& segment : memory.segments()) {
    const std::size_t words = (segment.size + 3) / 4;
    first_open_.emplace_back(words, 0);
    empty_.backings.emplace_back((words + 63) / 64, 0);
    pages_.emplace_back((segment.size + kMemoryPageBytes - 1) /
                        kMemoryPageBytes);
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

void ReadAheadRecorder::OnStore(std::size_t backing, std::size_t offset,
                                std::size_t length) {
  if (length == 0) return;
  std::vector<std::shared_ptr<const std::uint8_t[]>>& pages = pages_[backing];
  const std::size_t last = (offset + length - 1) / kMemoryPageBytes;
  for (std::size_t page = offset / kMemoryPageBytes; page <= last; ++page) {
    pages[page].reset();
  }
}

void ReadAheadRecorder::OnCapture(const MemoryState& state) {
  for (std::size_t b = 0; b < pages_.size(); ++b) {
    for (std::size_t page = 0; page < pages_[b].size(); ++page) {
      if (pages_[b][page] == nullptr) {
        pages_[b][page] = state.backings[b].pages[page];
      }
    }
  }
}

}  // namespace goofi::sim
