// Golden-run checkpoint memoization for checkpoint-fork execution.
//
// PrepareCampaignRun records snapshots of the reference run once per
// (campaign, workload); the campaign runner then starts each experiment
// from the checkpoint nearest below its injection trigger instead of
// replaying the workload from reset. The store is immutable during the
// experiment loop, so the runner's workers all read one shared
// instance; each worker fronts it with its own CheckpointCache, which
// memoizes the last lookup (trigger times drawn from one window usually
// land in few distinct stride intervals) and tallies what forking saved.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/snapshot.h"

namespace goofi::core {

class CheckpointStore {
 public:
  // Snapshots must arrive in increasing instret order (the recording
  // loop produces them that way); duplicates of an instret are ignored.
  void Add(sim::Snapshot snapshot);
  void Add(std::shared_ptr<const sim::Snapshot> snapshot);

  bool empty() const { return snapshots_.empty(); }
  std::size_t size() const { return snapshots_.size(); }

  // The checkpoint with the largest instret <= trigger, or nullptr when
  // none qualifies (the experiment falls back to replay-from-reset).
  // `valid_lo`/`valid_hi` (optional) receive the half-open trigger
  // interval [lo, hi) the returned snapshot serves, for memoization.
  std::shared_ptr<const sim::Snapshot> NearestAtOrBelow(
      std::uint64_t trigger, std::uint64_t* valid_lo = nullptr,
      std::uint64_t* valid_hi = nullptr) const;

 private:
  std::vector<std::shared_ptr<const sim::Snapshot>> snapshots_;
};

// One worker's view of the shared store. Not thread-safe; every worker
// owns its own cache.
class CheckpointCache {
 public:
  // `store` may be null (checkpointing off): every lookup misses.
  explicit CheckpointCache(const CheckpointStore* store) : store_(store) {}

  // The snapshot to fork `trigger`'s experiment from (nullptr = replay
  // from reset). Tallies forks and the pre-trigger instructions the
  // fork skips.
  std::shared_ptr<const sim::Snapshot> ForTrigger(std::uint64_t trigger);

  std::uint64_t forks() const { return forks_; }
  std::uint64_t instructions_skipped() const {
    return instructions_skipped_;
  }

 private:
  const CheckpointStore* store_;
  std::shared_ptr<const sim::Snapshot> last_;
  std::uint64_t last_lo_ = 0;
  std::uint64_t last_hi_ = 0;
  std::uint64_t forks_ = 0;
  std::uint64_t instructions_skipped_ = 0;
};

}  // namespace goofi::core
