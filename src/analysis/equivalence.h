// The def-use index of the reference run's access trace: one structure
// that answers both pre-injection questions.
//
// Between two consecutive accesses to a location, an injected bit flip
// corrupts the identical stored value, the rest of the machine evolves
// exactly as in the fault-free run (nothing reads the corrupted value),
// and the first instruction to touch the location sees the identical
// corrupted value in the identical machine state. So the access times
// of a location cut its injection timeline into def-use intervals, and
// the access closing an interval decides everything:
//
//   - liveness (paper §4): "Injecting a fault into a location that does
//     not hold live data serves no purpose, since the fault will be
//     overwritten." A time is live iff its interval is closed by a read;
//     the liveness filter in core/runner resamples every other draw.
//   - equivalence: every injection time in one interval produces the
//     *same observation* — only the injection-to-detection latency
//     shifts linearly with the injection time. One representative
//     injection per interval predicts the whole class; core/runner
//     samples exactly that way when a campaign sets
//     `static_analysis = equivalence`, and core/crosscheck re-injects
//     whole classes to prove the outcome-homogeneity claim.
//
// core/crosscheck also walks the read-closed intervals to check the
// static analyzer (analysis/static_liveness.h, analysis/dataflow.h)
// over-approximates this dynamic answer.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/access_recorder.h"
#include "target/target_types.h"
#include "util/status.h"

namespace goofi::analysis {

// One def-use interval: the inclusive injection-time span between two
// consecutive accesses to a location ("injection at time t" = the flip
// happens just before the instruction with index t executes, so the
// span delimited by accesses at times a_prev < a is [a_prev+1, a]).
// `read_closed` records whether the access closing it — the first event
// at time `hi` — is a read: a flip in the interval is then consumed at
// `hi`, otherwise it is overwritten there.
struct EquivInterval {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool read_closed = false;

  std::uint64_t weight() const { return hi - lo + 1; }
};

// Split one access-event stream into its def-use intervals. Reads
// delimit intervals as well as writes (injections on either side of a
// read reach different first uses and may behave differently), so the
// result is a partition of [0, last access time] with one interval
// ending at every access time. The only place an event stream becomes
// intervals.
std::vector<EquivInterval> BuildAccessIntervals(
    const std::vector<sim::AccessEvent>& events);

// The def-use index of a campaign's (location, bit, time) fault space,
// built once from the reference run's access trace. Modeled locations
// are the architectural ones the trace records: "cpu.regs.r1" ..
// "cpu.regs.r15" and "mem@<addr>" words. Anything else (cache arrays,
// IR, latches) is unmodeled: it has no intervals, the liveness filter
// keeps it, and the partition falls back to singleton classes there.
class FaultSpacePartition {
 public:
  // `end_time` is the reference run's instruction count.
  void Build(const sim::AccessRecorder& recorder, std::uint64_t end_time);

  // The def-use interval containing injection time `time` for the
  // target's location, or nullopt when the location is unmodeled or
  // the time lies past the location's last access (the fault is then
  // never consumed; the liveness filter rejects such points anyway).
  // The bit index does not change the interval — all bits of one
  // location share the same access stream — but it IS part of the
  // class identity: different bits corrupt different values.
  std::optional<EquivInterval> IntervalOf(const target::FaultTarget& target,
                                          std::uint64_t time) const;

  // Whether a flip at (target, time) is read before being overwritten:
  // `time` precedes the end of the run and its interval is read-closed.
  // r0, malformed names and memory words the run never touches are
  // dead; unmodeled locations are conservatively live, so the filter
  // never drops them.
  bool IsLive(const target::FaultTarget& target, std::uint64_t time) const;

  // Fraction of the r1..r15 (register x time) volume that is live; the
  // headline number of the efficiency reports.
  double RegisterLiveFraction() const;

  // r1..r15; empty for r0.
  const std::vector<EquivInterval>& register_intervals(unsigned reg) const {
    return reg_intervals_[reg];
  }
  // Per word-aligned address; only words the run accesses.
  const std::map<std::uint32_t, std::vector<EquivInterval>>&
  memory_intervals() const {
    return mem_intervals_;
  }

 private:
  // The target's intervals: empty for a modeled location with no
  // accesses, null for an unmodeled one.
  const std::vector<EquivInterval>* IntervalsFor(
      const target::FaultTarget& target) const;

  std::vector<EquivInterval> reg_intervals_[16];
  std::map<std::uint32_t, std::vector<EquivInterval>> mem_intervals_;
  std::uint64_t end_time_ = 0;
};

// ---- class identity ----------------------------------------------------
// Classes persist in LoggedSystemState.equiv_class as a self-describing
// id "<location>:b<bit>:[<lo>,<hi>]" so the analysis stage can weight
// outcomes and the crosscheck can enumerate every member without
// rebuilding the partition.
struct EquivalenceClassKey {
  target::FaultTarget target;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  std::uint64_t weight() const { return hi - lo + 1; }
};

std::string EquivalenceClassId(const target::FaultTarget& target,
                               std::uint64_t lo, std::uint64_t hi);
Result<EquivalenceClassKey> ParseEquivalenceClassId(const std::string& id);

}  // namespace goofi::analysis
