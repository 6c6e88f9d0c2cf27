#include "sim/fault_injector.h"

#include <algorithm>

#include "sim/cache.h"

namespace goofi::sim {

void AccessPathInjector::Arm(ArmedCacheFault fault) {
  if (fault.remaining == 0) fault.remaining = 1;
  if (fault.kind == ArmedFaultKind::kIntermittent && fault.period == 0) {
    fault.period = 1;
  }
  // Applies from the next access to its unit onward.
  fault.next_access =
      state_.unit_accesses[static_cast<std::size_t>(fault.unit)] + 1;
  state_.armed.push_back(fault);
}

namespace {

// Flips (transient/intermittent) or pins (permanent) one bit of a cache
// array. Out-of-range coordinates are ignored: the injector is fed from
// snapshots as well as the target's own enumeration, and a stale armed
// fault must never index outside the attached cache's geometry.
void MutateArray(const ArmedCacheFault& fault, Cache* cache) {
  if (cache == nullptr) return;
  if (fault.set >= cache->line_count()) return;
  CacheLine& line = cache->line(fault.set);
  const bool pin = fault.kind == ArmedFaultKind::kPermanentStuckAt;
  switch (fault.array) {
    case CacheArray::kData: {
      if (fault.word >= line.words.size() || fault.bit >= 32) return;
      const std::uint32_t mask = 1u << fault.bit;
      if (pin) {
        if (fault.stuck_to_one) {
          line.words[fault.word] |= mask;
        } else {
          line.words[fault.word] &= ~mask;
        }
      } else {
        line.words[fault.word] ^= mask;
      }
      break;
    }
    case CacheArray::kTag: {
      if (fault.bit >= 32) return;
      const std::uint32_t mask = 1u << fault.bit;
      if (pin) {
        if (fault.stuck_to_one) {
          line.tag |= mask;
        } else {
          line.tag &= ~mask;
        }
      } else {
        line.tag ^= mask;
      }
      break;
    }
    case CacheArray::kParity: {
      if (fault.word >= line.parity.size()) return;
      if (pin) {
        line.parity[fault.word] = fault.stuck_to_one;
      } else {
        line.parity[fault.word] = !line.parity[fault.word];
      }
      break;
    }
    case CacheArray::kInflight:
      break;  // handled by the caller as an XOR mask, not array state
  }
}

// An in-flight fault corrupts the value on the wires of one specific
// (set, word) coordinate — for main memory, one word address. It only
// fires when the access actually touches that coordinate.
bool InflightMatches(const ArmedCacheFault& fault, Cache* cache,
                     std::uint32_t address) {
  if (fault.unit == MemUnit::kMainMemory || cache == nullptr) {
    return address == fault.set;
  }
  return cache->LineIndex(address) == fault.set &&
         cache->WordIndex(address) == fault.word;
}

}  // namespace

std::uint32_t AccessPathInjector::Apply(const ArmedCacheFault& fault,
                                        MemUnit unit, Cache* cache,
                                        std::uint32_t address, bool is_read) {
  if (fault.array == CacheArray::kInflight) {
    if (!is_read || !InflightMatches(fault, cache, address)) return 0;
    if (fault.bit >= 32) return 0;
    ++state_.inflight_flips;
    ++state_.applied;
    return 1u << fault.bit;
  }
  (void)unit;
  MutateArray(fault, cache);
  ++state_.applied;
  return 0;
}

std::uint32_t AccessPathInjector::OnAccess(MemUnit unit, Cache* cache,
                                           std::uint32_t address,
                                           bool is_read) {
  const std::size_t u = static_cast<std::size_t>(unit);
  const std::uint64_t n = ++state_.unit_accesses[u];
  std::uint32_t mask = 0;
  std::vector<ArmedCacheFault>& armed = state_.armed;
  for (ArmedCacheFault& fault : armed) {
    if (fault.unit != unit) continue;
    switch (fault.kind) {
      case ArmedFaultKind::kPermanentStuckAt:
        mask ^= Apply(fault, unit, cache, address, is_read);
        break;
      case ArmedFaultKind::kTransient:
      case ArmedFaultKind::kIntermittent: {
        if (n < fault.next_access || fault.remaining == 0) break;
        // In-flight faults wait (without consuming a use) until an
        // access actually touches their coordinate.
        if (fault.array == CacheArray::kInflight &&
            (!is_read || !InflightMatches(fault, cache, address))) {
          break;
        }
        mask ^= Apply(fault, unit, cache, address, is_read);
        --fault.remaining;
        fault.next_access = n + std::max<std::uint64_t>(fault.period, 1);
        break;
      }
    }
  }
  armed.erase(std::remove_if(armed.begin(), armed.end(),
                             [](const ArmedCacheFault& fault) {
                               return fault.kind !=
                                          ArmedFaultKind::kPermanentStuckAt &&
                                      fault.remaining == 0;
                             }),
              armed.end());
  return mask;
}

std::uint32_t AccessPathInjector::PreRead(MemUnit unit, Cache* cache,
                                          std::uint32_t address,
                                          AccessKind kind) {
  (void)kind;
  return OnAccess(unit, cache, address, /*is_read=*/true);
}

void AccessPathInjector::PostWrite(MemUnit unit, Cache* cache,
                                   std::uint32_t address,
                                   std::uint32_t value) {
  (void)value;
  OnAccess(unit, cache, address, /*is_read=*/false);
}

}  // namespace goofi::sim
