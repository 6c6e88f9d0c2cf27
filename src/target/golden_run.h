// The golden (fault-free) run as checkpoint-fork execution reads it.
//
// The recording reference run captures a snapshot at instruction 0 and
// at every multiple of the stride. Experiments fork from the snapshot
// nearest below their trigger; after the injection, a target that
// supports convergence runs to each later boundary and compares its
// live state with the golden snapshot there. On a match the rest of the
// run is the golden run's, so the experiment stops and takes
// `final_observation` (keeping its own fault_was_injected and
// link_words_retried). Immutable once recorded: one instance serves
// every worker of a campaign.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/read_ahead.h"
#include "sim/snapshot.h"
#include "target/target_types.h"

namespace goofi::target {

struct GoldenRun {
  struct Boundary {
    std::shared_ptr<const sim::Snapshot> snapshot;
    // The main-memory words the golden run reads from memory after this
    // boundary before it next stores to them (sim/read_ahead.h). Empty
    // when the target records none; it then cannot converge here.
    sim::MemoryWordSet reads_ahead;
  };

  std::uint64_t stride = 0;
  // Increasing instret: 0, stride, 2 * stride, ... while the golden run
  // still had budget left.
  std::vector<Boundary> boundaries;
  Observation final_observation;

  // The boundary with the largest instret <= `instret`, or nullptr when
  // the run recorded none that early. Forks start from it; convergence
  // compares at it when its instret is exactly the live one.
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
