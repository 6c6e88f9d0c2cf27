#include "sim/memory.h"

#include <algorithm>
#include <cstring>

#include "sim/fault_injector.h"
#include "sim/read_ahead.h"
#include "util/strings.h"

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
  if (read_ahead_ != nullptr) read_ahead_->OnRead(IndexOf(backing), offset / 4);
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
  if (read_ahead_ != nullptr) {
    read_ahead_->OnWordStore(IndexOf(backing), offset / 4);
  }
  if (injector_ != nullptr) {
    injector_->PostWrite(MemUnit::kMainMemory, nullptr, address, value);
  }
  return MemFault::kNone;
}

MemFault Memory::ReadByte(std::uint32_t address, std::uint8_t* value) const {
  const Backing* backing = FindBacking(address);
  if (backing == nullptr) return MemFault::kUnmapped;
  if (!backing->segment.readable) return MemFault::kProtection;
  const std::size_t offset = address - backing->segment.base;
  if (read_ahead_ != nullptr) read_ahead_->OnRead(IndexOf(backing), offset / 4);
  *value = backing->bytes[offset];
  return MemFault::kNone;
}

MemFault Memory::WriteByte(std::uint32_t address, std::uint8_t value) {
  Backing* backing = FindBacking(address);
  if (backing == nullptr) return MemFault::kUnmapped;
  if (!backing->segment.writable) return MemFault::kProtection;
  const std::size_t offset = address - backing->segment.base;
  backing->bytes[offset] = value;
  NoteStore(backing, offset, 1);
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
  const std::size_t offset = address - backing->segment.base;
  backing->bytes[offset] = value;
  NoteStore(backing, offset, 1);
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
  NoteStore(backing, offset, 4);
  return true;
}

bool Memory::FlipBit(std::uint32_t address, unsigned bit) {
  Backing* backing = FindBacking(address);
  if (backing == nullptr || bit > 7) return false;
  const std::size_t offset = address - backing->segment.base;
  backing->bytes[offset] ^= static_cast<std::uint8_t>(1u << bit);
  NoteStore(backing, offset, 1);
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

void Memory::NoteStore(const Backing* backing, std::size_t offset,
                       std::size_t length) const {
  if (read_ahead_ != nullptr) {
    read_ahead_->OnStore(IndexOf(backing), offset, length);
  }
}

void Memory::ClearContents() {
  for (Backing& backing : backings_) {
    std::fill(backing.bytes.begin(), backing.bytes.end(), 0);
    NoteStore(&backing, 0, backing.bytes.size());
  }
}

bool operator==(const MemoryState::Backing& a, const MemoryState::Backing& b) {
  if (a.size != b.size || a.pages.size() != b.pages.size()) return false;
  for (std::size_t page = 0; page < a.pages.size(); ++page) {
    if (a.pages[page] != b.pages[page] &&
        std::memcmp(a.pages[page].get(), b.pages[page].get(),
                    a.PageSize(page)) != 0) {
      return false;
    }
  }
  return true;
}

MemoryState Memory::CaptureState() const {
  MemoryState state;
  state.backings.resize(backings_.size());
  for (std::size_t b = 0; b < backings_.size(); ++b) {
    MemoryState::Backing& out = state.backings[b];
    out.size = backings_[b].bytes.size();
    out.pages.resize((out.size + kMemoryPageBytes - 1) / kMemoryPageBytes);
    for (std::size_t page = 0; page < out.pages.size(); ++page) {
      if (read_ahead_ != nullptr) {
        out.pages[page] = read_ahead_->UnchangedPage(b, page);
        if (out.pages[page] != nullptr) continue;
      }
      const std::size_t length = out.PageSize(page);
      std::shared_ptr<std::uint8_t[]> copy =
          std::make_shared_for_overwrite<std::uint8_t[]>(length);
      std::memcpy(copy.get(),
                  backings_[b].bytes.data() + page * kMemoryPageBytes, length);
      out.pages[page] = std::move(copy);
    }
  }
  if (read_ahead_ != nullptr) read_ahead_->OnCapture(state);
  return state;
}

Status Memory::RestoreState(const MemoryState& state) {
  if (state.backings.size() != backings_.size()) {
    return InvalidArgumentError(
        StrFormat("memory snapshot has %zu segments, memory has %zu",
                  state.backings.size(), backings_.size()));
  }
  for (std::size_t i = 0; i < backings_.size(); ++i) {
    const MemoryState::Backing& saved = state.backings[i];
    if (saved.size != backings_[i].bytes.size() ||
        saved.pages.size() !=
            (saved.size + kMemoryPageBytes - 1) / kMemoryPageBytes) {
      return InvalidArgumentError(StrFormat(
          "memory snapshot segment %zu is %zu bytes, segment '%s' is %zu",
          i, saved.size, backings_[i].segment.name.c_str(),
          backings_[i].bytes.size()));
    }
  }
  for (std::size_t i = 0; i < backings_.size(); ++i) {
    const MemoryState::Backing& saved = state.backings[i];
    for (std::size_t page = 0; page < saved.pages.size(); ++page) {
      std::memcpy(backings_[i].bytes.data() + page * kMemoryPageBytes,
                  saved.pages[page].get(), saved.PageSize(page));
    }
    NoteStore(&backings_[i], 0, saved.size);
  }
  return Status::Ok();
}

bool Memory::DiffersOnlyWhere(
    const MemoryState& state,
    const std::function<bool(std::size_t, std::size_t)>& may_differ) const {
  // Equal pages are skipped with one memcmp each; only a differing page
  // is walked word by word.
  for (std::size_t b = 0; b < backings_.size(); ++b) {
    const std::vector<std::uint8_t>& live = backings_[b].bytes;
    const MemoryState::Backing& golden = state.backings[b];
    for (std::size_t page = 0; page < golden.pages.size(); ++page) {
      const std::uint8_t* live_page = live.data() + page * kMemoryPageBytes;
      const std::uint8_t* golden_page = golden.pages[page].get();
      const std::size_t length = golden.PageSize(page);
      if (std::memcmp(live_page, golden_page, length) == 0) continue;
      for (std::size_t at = 0; at < length; at += 4) {
        const std::size_t word_length = std::min<std::size_t>(4, length - at);
        if (std::memcmp(live_page + at, golden_page + at, word_length) != 0 &&
            !may_differ(b, (page * kMemoryPageBytes + at) / 4)) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace goofi::sim
