#include "sim/cache.h"

#include <bit>
#include <cassert>

namespace goofi::sim {

Cache::Cache(CacheGeometry geometry) : geometry_(geometry) {
  assert(std::has_single_bit(geometry_.lines));
  assert(std::has_single_bit(geometry_.words_per_line));
  line_shift_ =
      2 + static_cast<unsigned>(std::countr_zero(geometry_.words_per_line));
  tag_shift_ =
      line_shift_ + static_cast<unsigned>(std::countr_zero(geometry_.lines));
  word_mask_ = geometry_.words_per_line - 1;
  line_mask_ = geometry_.lines - 1;
  tag_mask_ =
      geometry_.tag_bits >= 32 ? ~0u : ((1u << geometry_.tag_bits) - 1);
  lines_.resize(geometry_.lines);
  for (CacheLine& line : lines_) {
    line.words.assign(geometry_.words_per_line, 0);
    line.parity.assign(geometry_.words_per_line, false);
  }
  fill_.assign(geometry_.words_per_line, 0);
}

MemFault Cache::ReadMiss(Memory& memory, std::uint32_t address,
                         std::uint32_t* value, AccessKind kind,
                         std::uint32_t inflight_mask) {
  ++stats_.misses;
  const std::uint32_t line_base =
      address & ~(geometry_.words_per_line * 4 - 1);
  for (std::uint32_t w = 0; w < geometry_.words_per_line; ++w) {
    const MemFault fault = memory.ReadWord(line_base + w * 4, &fill_[w], kind);
    if (fault != MemFault::kNone) return fault;
  }
  CacheLine& line = lines_[LineIndex(address)];
  line.valid = true;
  line.tag = Tag(address);
  for (std::uint32_t w = 0; w < geometry_.words_per_line; ++w) {
    line.words[w] = fill_[w];
    line.parity[w] = ComputeParity(fill_[w]);
  }
  *value = line.words[WordIndex(address)] ^ inflight_mask;
  return MemFault::kNone;
}

MemFault Cache::WriteWord(Memory& memory, std::uint32_t address,
                          std::uint32_t value) {
  const MemFault fault = memory.WriteWord(address, value);
  if (fault != MemFault::kNone) return fault;
  CacheLine& line = lines_[LineIndex(address)];
  if (line.valid && line.tag == Tag(address)) {
    const std::uint32_t word = WordIndex(address);
    line.words[word] = value;
    line.parity[word] = ComputeParity(value);
  }
  if (injector_ != nullptr) {
    injector_->PostWrite(injector_unit_, this, address, value);
  }
  return MemFault::kNone;
}

void Cache::Invalidate() {
  for (CacheLine& line : lines_) {
    line.valid = false;
    line.tag = 0;
    std::fill(line.words.begin(), line.words.end(), 0);
    std::fill(line.parity.begin(), line.parity.end(), false);
  }
}

}  // namespace goofi::sim
