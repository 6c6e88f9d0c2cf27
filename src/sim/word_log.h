// An append-only history of 32-bit words whose captures share its
// storage: the CPU's emitted words and an environment model's actuator
// outputs.
//
// Checkpoint fork records the golden run at many points (target/
// golden_run.h), and every point holds both histories as they stood
// there. Each is a prefix of the one before it, so a capture is the
// log's storage and a length, O(1): the log only ever appends past the
// lengths its captures hold, and never changes a word below them.
//
// Only a WordLog appends, and only into storage no other log appends
// to: Clear and Restore move it onto storage that no capture shares
// (Restore copies the prefix in), so a run that forked from a golden
// capture never writes into the golden storage that other workers read
// concurrently.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace goofi::sim {

class WordLog {
 public:
  // A capture: the first `size()` words of a log's storage. Immutable.
  class Prefix {
   public:
    using const_iterator = const std::uint32_t*;
    using iterator = const_iterator;

    Prefix() = default;
    // A prefix with storage of its own (a hand-built state).
    explicit Prefix(std::vector<std::uint32_t> words)
        : storage_(std::make_shared<const std::vector<std::uint32_t>>(
              std::move(words))),
          size_(storage_->size()) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const std::uint32_t* begin() const {
      return storage_ == nullptr ? nullptr : storage_->data();
    }
    const std::uint32_t* end() const { return begin() + size_; }
    std::uint32_t operator[](std::size_t i) const { return begin()[i]; }
    std::vector<std::uint32_t> ToVector() const { return {begin(), end()}; }

    friend bool operator==(const Prefix& a, const Prefix& b) {
      return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
    }

   private:
    friend class WordLog;
    Prefix(std::shared_ptr<const std::vector<std::uint32_t>> storage,
           std::size_t size)
        : storage_(std::move(storage)), size_(size) {}

    std::shared_ptr<const std::vector<std::uint32_t>> storage_;
    std::size_t size_ = 0;
  };

  WordLog() : words_(std::make_shared<std::vector<std::uint32_t>>()) {}
  // Copies are independent logs, each on storage of its own.
  WordLog(const WordLog& other)
      : words_(std::make_shared<std::vector<std::uint32_t>>(*other.words_)) {}
  WordLog& operator=(const WordLog& other) {
    words_ = std::make_shared<std::vector<std::uint32_t>>(*other.words_);
    return *this;
  }

  const std::vector<std::uint32_t>& words() const { return *words_; }
  std::size_t size() const { return words_->size(); }

  void Append(std::uint32_t word) { words_->push_back(word); }
  // Empties the log; storage that captures share stays as it was.
  void Clear() {
    if (words_.use_count() == 1) {
      words_->clear();
    } else {
      words_ = std::make_shared<std::vector<std::uint32_t>>();
    }
  }

  // O(1): shares this log's storage.
  Prefix Capture() const { return Prefix(words_, words_->size()); }
  // The log holds exactly `prefix`'s words, on storage no capture
  // shares.
  void Restore(const Prefix& prefix) {
    if (words_.use_count() == 1) {
      words_->assign(prefix.begin(), prefix.end());
    } else {
      words_ = std::make_shared<std::vector<std::uint32_t>>(prefix.begin(),
                                                            prefix.end());
    }
  }

  // Checkpoint fork's convergence test: the log holds as many words as
  // `golden` and equals it from word `from` on (the words below `from`
  // are known to be equal: both runs forked from one capture).
  bool MatchesFrom(const Prefix& golden, std::size_t from) const {
    if (golden.size() != size()) return false;
    from = std::min(from, size());
    return std::equal(words_->begin() + static_cast<std::ptrdiff_t>(from),
                      words_->end(), golden.begin() + from);
  }

 private:
  std::shared_ptr<std::vector<std::uint32_t>> words_;
};

}  // namespace goofi::sim
