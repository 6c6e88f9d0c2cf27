#include "sim/cache.h"

#include <bit>
#include <cassert>

#include "util/strings.h"

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
  state_.lines.resize(geometry_.lines);
  for (CacheLine& line : state_.lines) {
    line.words.assign(geometry_.words_per_line, 0);
    line.parity.assign(geometry_.words_per_line, false);
  }
  fill_.assign(geometry_.words_per_line, 0);
}

MemFault Cache::ReadMiss(Memory& memory, std::uint32_t address,
                         std::uint32_t* value, AccessKind kind,
                         std::uint32_t inflight_mask) {
  ++state_.stats.misses;
  const std::uint32_t line_base =
      address & ~(geometry_.words_per_line * 4 - 1);
  for (std::uint32_t w = 0; w < geometry_.words_per_line; ++w) {
    const MemFault fault = memory.ReadWord(line_base + w * 4, &fill_[w], kind);
    if (fault != MemFault::kNone) return fault;
  }
  CacheLine& line = state_.lines[LineIndex(address)];
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
  CacheLine& line = state_.lines[LineIndex(address)];
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
  for (CacheLine& line : state_.lines) {
    line.valid = false;
    line.tag = 0;
    std::fill(line.words.begin(), line.words.end(), 0);
    std::fill(line.parity.begin(), line.parity.end(), false);
  }
}

Status Cache::RestoreState(const CacheState& state) {
  if (state.lines.size() != state_.lines.size()) {
    return InvalidArgumentError(
        StrFormat("cache snapshot has %zu lines, cache has %zu",
                  state.lines.size(), state_.lines.size()));
  }
  for (const CacheLine& line : state.lines) {
    if (line.words.size() != geometry_.words_per_line ||
        line.parity.size() != geometry_.words_per_line) {
      return InvalidArgumentError(
          "cache snapshot line shape does not match geometry");
    }
  }
  state_ = state;
  return Status::Ok();
}

}  // namespace goofi::sim
