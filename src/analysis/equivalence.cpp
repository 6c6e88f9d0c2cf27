#include "analysis/equivalence.h"

#include <algorithm>

#include "util/strings.h"

namespace goofi::analysis {

namespace {

// The interval of a sorted, contiguous partition containing `time`, or
// null past its end.
const EquivInterval* FindInterval(const std::vector<EquivInterval>& intervals,
                                  std::uint64_t time) {
  const auto it = std::partition_point(
      intervals.begin(), intervals.end(),
      [time](const EquivInterval& interval) { return interval.hi < time; });
  return it == intervals.end() ? nullptr : &*it;
}

}  // namespace

std::vector<EquivInterval> BuildAccessIntervals(
    const std::vector<sim::AccessEvent>& events) {
  std::vector<EquivInterval> intervals;
  // Events arrive in program order; several may share one time (an
  // instruction reads before it writes). Each distinct access time `a`
  // closes the interval (previous access time, a], and the first event
  // at `a` decides whether a flip in it is read or overwritten.
  std::uint64_t next_lo = 0;
  for (const sim::AccessEvent& event : events) {
    if (event.time < next_lo) continue;  // same-time access: already closed
    intervals.push_back({next_lo, event.time, !event.is_write});
    next_lo = event.time + 1;
  }
  return intervals;
}

void FaultSpacePartition::Build(const sim::AccessRecorder& recorder,
                                std::uint64_t end_time) {
  end_time_ = end_time;
  for (unsigned reg = 1; reg < 16; ++reg) {
    reg_intervals_[reg] = BuildAccessIntervals(recorder.register_events(reg));
  }
  mem_intervals_.clear();
  for (const auto& [address, events] : recorder.memory_events()) {
    std::vector<EquivInterval> intervals = BuildAccessIntervals(events);
    if (!intervals.empty()) {
      mem_intervals_.emplace(address, std::move(intervals));
    }
  }
}

const std::vector<EquivInterval>* FaultSpacePartition::IntervalsFor(
    const target::FaultTarget& target) const {
  static const std::vector<EquivInterval> kNoAccesses;
  if (StartsWith(target.location, "cpu.regs.r")) {
    const auto reg = ParseUint64(target.location.substr(10));
    if (!reg || *reg >= 16) return &kNoAccesses;
    return &reg_intervals_[*reg];
  }
  if (StartsWith(target.location, "mem@")) {
    const auto address = ParseUint64(target.location.substr(4));
    if (!address) return &kNoAccesses;
    const std::uint32_t byte =
        static_cast<std::uint32_t>(*address) + target.bit / 8;
    const auto it = mem_intervals_.find(byte & ~3u);
    return it == mem_intervals_.end() ? &kNoAccesses : &it->second;
  }
  return nullptr;
}

std::optional<EquivInterval> FaultSpacePartition::IntervalOf(
    const target::FaultTarget& target, std::uint64_t time) const {
  const std::vector<EquivInterval>* intervals = IntervalsFor(target);
  if (intervals == nullptr) return std::nullopt;
  const EquivInterval* interval = FindInterval(*intervals, time);
  if (interval == nullptr) return std::nullopt;
  return *interval;
}

bool FaultSpacePartition::IsLive(const target::FaultTarget& target,
                                 std::uint64_t time) const {
  const std::vector<EquivInterval>* intervals = IntervalsFor(target);
  if (intervals == nullptr) return true;
  // Injection at or after the reference run's end never executes: the
  // sampled trigger cannot fire once the workload has halted.
  if (end_time_ != 0 && time >= end_time_) return false;
  const EquivInterval* interval = FindInterval(*intervals, time);
  return interval != nullptr && interval->read_closed;
}

double FaultSpacePartition::RegisterLiveFraction() const {
  if (end_time_ == 0) return 0.0;
  std::uint64_t live = 0;
  for (unsigned reg = 1; reg < 16; ++reg) {
    for (const EquivInterval& interval : reg_intervals_[reg]) {
      if (interval.read_closed) live += interval.weight();
    }
  }
  return static_cast<double>(live) /
         (15.0 * static_cast<double>(end_time_));
}

std::string EquivalenceClassId(const target::FaultTarget& target,
                               std::uint64_t lo, std::uint64_t hi) {
  return StrFormat("%s:b%u:[%llu,%llu]", target.location.c_str(), target.bit,
                   static_cast<unsigned long long>(lo),
                   static_cast<unsigned long long>(hi));
}

Result<EquivalenceClassKey> ParseEquivalenceClassId(const std::string& id) {
  // "<location>:b<bit>:[<lo>,<hi>]", parsed from the right because the
  // location may itself contain dots and digits (never ":[" though).
  const std::size_t bracket = id.rfind(":[");
  if (bracket == std::string::npos || id.empty() || id.back() != ']') {
    return InvalidArgumentError("bad equivalence class id '" + id + "'");
  }
  const std::size_t bit_sep = id.rfind(":b", bracket - 1);
  if (bit_sep == std::string::npos || bit_sep + 2 >= bracket) {
    return InvalidArgumentError("bad equivalence class id '" + id + "'");
  }
  const std::string span = id.substr(bracket + 2, id.size() - bracket - 3);
  const std::size_t comma = span.find(',');
  if (comma == std::string::npos) {
    return InvalidArgumentError("bad equivalence class id '" + id + "'");
  }
  const auto bit = ParseUint64(id.substr(bit_sep + 2, bracket - bit_sep - 2));
  const auto lo = ParseUint64(span.substr(0, comma));
  const auto hi = ParseUint64(span.substr(comma + 1));
  if (!bit || !lo || !hi || *lo > *hi) {
    return InvalidArgumentError("bad equivalence class id '" + id + "'");
  }
  EquivalenceClassKey key;
  key.target.location = id.substr(0, bit_sep);
  key.target.bit = static_cast<std::uint32_t>(*bit);
  key.lo = *lo;
  key.hi = *hi;
  if (key.target.location.empty()) {
    return InvalidArgumentError("bad equivalence class id '" + id + "'");
  }
  return key;
}

}  // namespace goofi::analysis
