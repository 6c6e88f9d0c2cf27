#include "target/cache_target.h"

#include <cstddef>

#include "util/strings.h"

namespace goofi::target {
namespace {

using sim::ArmedCacheFault;
using sim::CacheArray;
using sim::MemUnit;

const char* UnitPrefix(MemUnit unit) {
  return unit == MemUnit::kIcache ? "icache" : "dcache";
}

// Consumes a decimal number at the front of `text`; advances `*pos`.
std::optional<std::uint32_t> EatNumber(const std::string& text,
                                       std::size_t* pos) {
  std::size_t digits = 0;
  std::uint64_t value = 0;
  while (*pos + digits < text.size() &&
         text[*pos + digits] >= '0' && text[*pos + digits] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(
                             text[*pos + digits] - '0');
    if (value > 0xffffffffull) return std::nullopt;
    ++digits;
  }
  if (digits == 0) return std::nullopt;
  *pos += digits;
  return static_cast<std::uint32_t>(value);
}

}  // namespace

const char* CacheFaultModelName(CacheFaultModel model) {
  switch (model) {
    case CacheFaultModel::kDataBit: return "cache_data_bit";
    case CacheFaultModel::kTagBit: return "cache_tag_bit";
    case CacheFaultModel::kParityBit: return "cache_parity_bit";
    case CacheFaultModel::kInflightLoadBit: return "inflight_load_bit";
  }
  return "?";
}

std::optional<CacheFaultModel> CacheFaultModelFromName(
    const std::string& name) {
  if (name == "cache_data_bit") return CacheFaultModel::kDataBit;
  if (name == "cache_tag_bit") return CacheFaultModel::kTagBit;
  if (name == "cache_parity_bit") return CacheFaultModel::kParityBit;
  if (name == "inflight_load_bit") return CacheFaultModel::kInflightLoadBit;
  return std::nullopt;
}

const char* CacheFaultModelLocationGlob(CacheFaultModel model) {
  switch (model) {
    case CacheFaultModel::kDataBit: return "*cache.set*.data";
    case CacheFaultModel::kTagBit: return "*cache.set*.tag";
    case CacheFaultModel::kParityBit: return "*cache.set*.parity";
    case CacheFaultModel::kInflightLoadBit: return "*cache.set*.inflight";
  }
  return "*cache.set*";
}

std::optional<ArmedCacheFault> ParseCacheCoordinate(
    const std::string& name) {
  ArmedCacheFault fault;
  std::size_t pos = 0;
  if (StartsWith(name, "icache.set")) {
    fault.unit = MemUnit::kIcache;
    pos = 10;
  } else if (StartsWith(name, "dcache.set")) {
    fault.unit = MemUnit::kDcache;
    pos = 10;
  } else {
    return std::nullopt;
  }
  const auto set = EatNumber(name, &pos);
  if (!set.has_value()) return std::nullopt;
  fault.set = *set;
  if (name.compare(pos, std::string::npos, ".tag") == 0) {
    fault.array = CacheArray::kTag;
    return fault;
  }
  if (name.compare(pos, 5, ".word") != 0) return std::nullopt;
  pos += 5;
  const auto word = EatNumber(name, &pos);
  if (!word.has_value()) return std::nullopt;
  fault.word = *word;
  if (name.compare(pos, std::string::npos, ".data") == 0) {
    fault.array = CacheArray::kData;
  } else if (name.compare(pos, std::string::npos, ".parity") == 0) {
    fault.array = CacheArray::kParity;
  } else if (name.compare(pos, std::string::npos, ".inflight") == 0) {
    fault.array = CacheArray::kInflight;
  } else {
    return std::nullopt;
  }
  return fault;
}

CacheHierarchyTarget::CacheHierarchyTarget(TestCardOptions options)
    : ThorRdTarget(options, "cache_hierarchy") {
  sim::Cpu& cpu = test_card().cpu();
  cpu.icache().set_fault_injector(&injector_, MemUnit::kIcache);
  cpu.dcache().set_fault_injector(&injector_, MemUnit::kDcache);
  cpu.memory().set_fault_injector(&injector_);
}

std::vector<TargetSystemInterface::LocationInfo>
CacheHierarchyTarget::ListLocations() const {
  std::vector<LocationInfo> locations = ThorRdTarget::ListLocations();
  const sim::Cpu& cpu = test_card().cpu();
  for (const MemUnit unit : {MemUnit::kIcache, MemUnit::kDcache}) {
    const sim::Cache& cache =
        unit == MemUnit::kIcache ? cpu.icache() : cpu.dcache();
    const sim::CacheGeometry& geometry = cache.geometry();
    const char* prefix = UnitPrefix(unit);
    auto add = [&locations](std::string name, std::uint32_t width) {
      LocationInfo info;
      info.kind = LocationInfo::Kind::kScanElement;
      info.name = std::move(name);
      info.chain = "access_path";
      info.width_bits = width;
      info.writable = true;
      info.category = "cache_access_path";
      locations.push_back(std::move(info));
    };
    for (std::uint32_t set = 0; set < geometry.lines; ++set) {
      add(StrFormat("%s.set%u.tag", prefix, set),
          geometry.tag_bits > 32 ? 32 : geometry.tag_bits);
      for (std::uint32_t word = 0; word < geometry.words_per_line; ++word) {
        add(StrFormat("%s.set%u.word%u.data", prefix, set, word), 32);
        add(StrFormat("%s.set%u.word%u.parity", prefix, set, word), 1);
        add(StrFormat("%s.set%u.word%u.inflight", prefix, set, word), 32);
      }
    }
  }
  return locations;
}

Status CacheHierarchyTarget::initTestCard() {
  RETURN_IF_ERROR(ThorRdTarget::initTestCard());
  injector_.Reset();
  return Status::Ok();
}

Result<sim::Snapshot> CacheHierarchyTarget::CaptureSnapshot() {
  ASSIGN_OR_RETURN(sim::Snapshot snapshot,
                   ThorRdTarget::CaptureSnapshot());
  snapshot.injector = injector_.CaptureState();
  return snapshot;
}

Status CacheHierarchyTarget::RestoreSnapshot(
    const sim::Snapshot& snapshot) {
  RETURN_IF_ERROR(ThorRdTarget::RestoreSnapshot(snapshot));
  if (snapshot.injector.has_value()) {
    injector_.RestoreState(*snapshot.injector);
  } else {
    injector_.Reset();
  }
  return Status::Ok();
}

bool CacheHierarchyTarget::ExtraStateMatches(
    const sim::Snapshot& golden) const {
  return golden.injector.has_value() && injector_.MatchesState(*golden.injector);
}

Status CacheHierarchyTarget::ArmCacheFault(ArmedCacheFault coordinate,
                                           const FaultTarget& fault) {
  const sim::Cache& cache = coordinate.unit == MemUnit::kIcache
                                ? test_card().cpu().icache()
                                : test_card().cpu().dcache();
  const sim::CacheGeometry& geometry = cache.geometry();
  if (coordinate.set >= geometry.lines ||
      (coordinate.array != CacheArray::kTag &&
       coordinate.word >= geometry.words_per_line)) {
    return OutOfRangeError(StrFormat(
        "cache coordinate %s is outside the %ux%u geometry",
        fault.location.c_str(), geometry.lines, geometry.words_per_line));
  }
  std::uint32_t width = 32;
  if (coordinate.array == CacheArray::kTag) {
    width = geometry.tag_bits > 32 ? 32 : geometry.tag_bits;
  } else if (coordinate.array == CacheArray::kParity) {
    width = 1;
  }
  if (fault.bit >= width) {
    return OutOfRangeError(StrFormat("bit %u of %u-bit coordinate %s",
                                     fault.bit, width,
                                     fault.location.c_str()));
  }
  coordinate.bit = fault.bit;
  switch (spec_.model.kind) {
    case FaultModel::Kind::kTransientBitFlip:
      coordinate.kind = sim::ArmedFaultKind::kTransient;
      coordinate.remaining = 1;
      break;
    case FaultModel::Kind::kIntermittentBitFlip:
      coordinate.kind = sim::ArmedFaultKind::kIntermittent;
      coordinate.period = spec_.model.period;
      coordinate.remaining =
          spec_.model.occurrences == 0 ? 1 : spec_.model.occurrences;
      break;
    case FaultModel::Kind::kPermanentStuckAt:
      coordinate.kind = sim::ArmedFaultKind::kPermanentStuckAt;
      coordinate.stuck_to_one = spec_.model.stuck_to_one;
      break;
  }
  injector_.Arm(coordinate);
  return Status::Ok();
}

Status CacheHierarchyTarget::InjectFaultTarget(const FaultTarget& fault) {
  const auto coordinate = ParseCacheCoordinate(fault.location);
  if (!coordinate.has_value()) return ThorRdTarget::InjectFaultTarget(fault);
  if (spec_.technique == Technique::kSwifiPreRuntime) {
    return InvalidArgumentError(
        "cache coordinates are runtime access-path locations: " +
        fault.location);
  }
  return ArmCacheFault(*coordinate, fault);
}

std::unique_ptr<CacheHierarchyTarget> MakeCacheHierarchyTarget() {
  return std::make_unique<CacheHierarchyTarget>(TestCardOptions{});
}

}  // namespace goofi::target
