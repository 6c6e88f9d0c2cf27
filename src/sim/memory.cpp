#include "sim/memory.h"

#include <cstring>

#include "sim/fault_injector.h"

namespace goofi::sim {

Status Memory::AddSegment(Segment segment) {
  if (segment.size == 0) {
    return InvalidArgumentError("segment '" + segment.name +
                                "' has zero size");
  }
  if (segment.base + segment.size < segment.base) {
    return InvalidArgumentError("segment '" + segment.name +
                                "' wraps the address space");
  }
  for (const Segment& existing : segments_) {
    const bool disjoint = segment.base + segment.size <= existing.base ||
                          existing.base + existing.size <= segment.base;
    if (!disjoint) {
      return InvalidArgumentError("segment '" + segment.name +
                                  "' overlaps '" + existing.name + "'");
    }
  }
  Backing backing;
  backing.segment = segment;
  backing.bytes.assign(segment.size, 0);
  segments_.push_back(segment);
  backings_.push_back(std::move(backing));
  return Status::Ok();
}

const Segment* Memory::FindSegmentByName(const std::string& name) const {
  for (const Segment& segment : segments_) {
    if (segment.name == name) return &segment;
  }
  return nullptr;
}

namespace {
bool Allowed(const Segment& segment, AccessKind kind) {
  switch (kind) {
    case AccessKind::kRead: return segment.readable;
    case AccessKind::kWrite: return segment.writable;
    case AccessKind::kExecute: return segment.executable;
  }
  return false;
}
}  // namespace

MemFault Memory::ReadWord(std::uint32_t address, std::uint32_t* value,
                          AccessKind kind) const {
  if (address % 4 != 0) return MemFault::kMisaligned;
  const Backing* backing = FindBacking(address);
  if (backing == nullptr) return MemFault::kUnmapped;
  if (!Allowed(backing->segment, kind)) return MemFault::kProtection;
  const std::size_t offset = address - backing->segment.base;
  if (offset + 4 > backing->bytes.size()) return MemFault::kUnmapped;
  std::uint32_t out = 0;
  std::memcpy(&out, backing->bytes.data() + offset, 4);
  if (injector_ != nullptr) {
    out ^= injector_->PreRead(MemUnit::kMainMemory, nullptr, address, kind);
  }
  *value = out;
  return MemFault::kNone;
}

MemFault Memory::WriteWord(std::uint32_t address, std::uint32_t value) {
  if (address % 4 != 0) return MemFault::kMisaligned;
  Backing* backing = FindBacking(address);
  if (backing == nullptr) return MemFault::kUnmapped;
  if (!backing->segment.writable) return MemFault::kProtection;
  const std::size_t offset = address - backing->segment.base;
  if (offset + 4 > backing->bytes.size()) return MemFault::kUnmapped;
  std::memcpy(backing->bytes.data() + offset, &value, 4);
  if (injector_ != nullptr) {
    injector_->PostWrite(MemUnit::kMainMemory, nullptr, address, value);
  }
  return MemFault::kNone;
}

MemFault Memory::ReadByte(std::uint32_t address, std::uint8_t* value) const {
  const Backing* backing = FindBacking(address);
  if (backing == nullptr) return MemFault::kUnmapped;
  if (!backing->segment.readable) return MemFault::kProtection;
  *value = backing->bytes[address - backing->segment.base];
  return MemFault::kNone;
}

MemFault Memory::WriteByte(std::uint32_t address, std::uint8_t value) {
  Backing* backing = FindBacking(address);
  if (backing == nullptr) return MemFault::kUnmapped;
  if (!backing->segment.writable) return MemFault::kProtection;
  backing->bytes[address - backing->segment.base] = value;
  return MemFault::kNone;
}

bool Memory::Peek(std::uint32_t address, std::uint8_t* value) const {
  const Backing* backing = FindBacking(address);
  if (backing == nullptr) return false;
  *value = backing->bytes[address - backing->segment.base];
  return true;
}

bool Memory::Poke(std::uint32_t address, std::uint8_t value) {
  Backing* backing = FindBacking(address);
  if (backing == nullptr) return false;
  backing->bytes[address - backing->segment.base] = value;
  return true;
}

bool Memory::PeekWord(std::uint32_t address, std::uint32_t* value) const {
  const Backing* backing = FindBacking(address);
  if (backing == nullptr) return false;
  const std::size_t offset = address - backing->segment.base;
  if (offset + 4 > backing->bytes.size()) return false;
  std::memcpy(value, backing->bytes.data() + offset, 4);
  return true;
}

bool Memory::PokeWord(std::uint32_t address, std::uint32_t value) {
  Backing* backing = FindBacking(address);
  if (backing == nullptr) return false;
  const std::size_t offset = address - backing->segment.base;
  if (offset + 4 > backing->bytes.size()) return false;
  std::memcpy(backing->bytes.data() + offset, &value, 4);
  return true;
}

bool Memory::FlipBit(std::uint32_t address, unsigned bit) {
  Backing* backing = FindBacking(address);
  if (backing == nullptr || bit > 7) return false;
  backing->bytes[address - backing->segment.base] ^=
      static_cast<std::uint8_t>(1u << bit);
  return true;
}

Status Memory::LoadImage(std::uint32_t address,
                         const std::vector<std::uint8_t>& bytes) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (!Poke(address + static_cast<std::uint32_t>(i), bytes[i])) {
      return OutOfRangeError("image does not fit at address");
    }
  }
  return Status::Ok();
}

Result<std::vector<std::uint8_t>> Memory::DumpRange(
    std::uint32_t address, std::uint32_t length) const {
  std::vector<std::uint8_t> out(length);
  for (std::uint32_t i = 0; i < length; ++i) {
    if (!Peek(address + i, &out[i])) {
      return OutOfRangeError("dump range not fully mapped");
    }
  }
  return out;
}

void Memory::ClearContents() {
  for (Backing& backing : backings_) {
    std::fill(backing.bytes.begin(), backing.bytes.end(), 0);
  }
}

}  // namespace goofi::sim
