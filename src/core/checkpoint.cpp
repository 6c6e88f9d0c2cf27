#include "core/checkpoint.h"

#include <algorithm>
#include <limits>

namespace goofi::core {

void CheckpointStore::Add(sim::Snapshot snapshot) {
  Add(std::make_shared<const sim::Snapshot>(std::move(snapshot)));
}

void CheckpointStore::Add(std::shared_ptr<const sim::Snapshot> snapshot) {
  if (!snapshots_.empty() &&
      snapshots_.back()->instret >= snapshot->instret) {
    return;
  }
  snapshots_.push_back(std::move(snapshot));
}

std::shared_ptr<const sim::Snapshot> CheckpointStore::NearestAtOrBelow(
    std::uint64_t trigger, std::uint64_t* valid_lo,
    std::uint64_t* valid_hi) const {
  // First snapshot with instret > trigger; its predecessor is ours.
  const auto above = std::upper_bound(
      snapshots_.begin(), snapshots_.end(), trigger,
      [](std::uint64_t value,
         const std::shared_ptr<const sim::Snapshot>& snapshot) {
        return value < snapshot->instret;
      });
  if (above == snapshots_.begin()) return nullptr;
  const auto found = above - 1;
  if (valid_lo != nullptr) *valid_lo = (*found)->instret;
  if (valid_hi != nullptr) {
    *valid_hi = above != snapshots_.end()
                    ? (*above)->instret
                    : std::numeric_limits<std::uint64_t>::max();
  }
  return *found;
}

std::shared_ptr<const sim::Snapshot> CheckpointCache::ForTrigger(
    std::uint64_t trigger) {
  if (store_ == nullptr) return nullptr;
  if (last_ == nullptr || trigger < last_lo_ || trigger >= last_hi_) {
    last_ = store_->NearestAtOrBelow(trigger, &last_lo_, &last_hi_);
    if (last_ == nullptr) return nullptr;
  }
  ++forks_;
  instructions_skipped_ += last_->instret;
  return last_;
}

}  // namespace goofi::core
