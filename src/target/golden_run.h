// The golden (fault-free) run as checkpoint-fork execution reads it.
//
// The recording reference run captures a snapshot at instruction 0 and
// at every multiple of the stride: the stride boundaries. A target may
// also capture a fork grid between them, kForkPointsPerStride points
// per stride, so that an experiment replays 1/32 of a stride to its
// trigger on average rather than half a stride. Experiments fork from the
// snapshot nearest below their trigger, boundary or grid point alike.
// After the injection, a target that supports convergence runs to each
// later stride boundary and compares its live state with the golden
// snapshot there. On a match the rest of the run is the golden run's,
// so the experiment stops and takes `final_observation` (keeping its
// own fault_was_injected and link_words_retried).
//
// The grid depends only on the golden run's length, never on the
// number of experiments. Consecutive snapshots share every memory page
// the run did not store into between them (sim/memory.h) and the
// storage of the emitted and environment histories
// (sim/word_log.h), so a grid point costs a few KB. Immutable once
// recorded: one instance serves every worker of a campaign.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/read_ahead.h"
#include "sim/snapshot.h"
#include "target/target_types.h"

namespace goofi::target {

// Fork points per stride: a stride boundary and then one every
// ceil(stride / 16) instructions. With the default stride, a tenth of
// the instruction budget, a fork replays 1/32 of a stride on average,
// and a recording captures at most about 160 snapshots. At a few
// microseconds per capture that keeps the recording under a millisecond
// longer; a denser grid would save little replay and cost setup time.
inline constexpr std::uint64_t kForkPointsPerStride = 16;

struct GoldenRun {
  struct Boundary {
    std::shared_ptr<const sim::Snapshot> snapshot;
    // The main-memory words the golden run reads from memory after this
    // boundary before it next stores to them (sim/read_ahead.h). Empty
    // at a grid point, and when the target records none; a run cannot
    // converge here then.
    sim::MemoryWordSet reads_ahead;
  };

  std::uint64_t stride = 0;
  // Increasing instret: 0, stride, 2 * stride, ... while the golden run
  // still had budget left, and any grid points between them.
  std::vector<Boundary> boundaries;
  Observation final_observation;

  // The boundary with the largest instret <= `instret`, or nullptr when
  // the run recorded none that early. Forks start from it; convergence
  // compares at it when its instret is exactly the live one, a stride
  // multiple.
  const Boundary* AtOrBelow(std::uint64_t instret) const {
    const auto above = std::upper_bound(
        boundaries.begin(), boundaries.end(), instret,
        [](std::uint64_t value, const Boundary& boundary) {
          return value < boundary.snapshot->instret;
        });
    return above == boundaries.begin() ? nullptr : &*(above - 1);
  }
};

}  // namespace goofi::target
