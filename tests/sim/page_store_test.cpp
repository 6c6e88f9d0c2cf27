// The page store under captured memory images. While a recorder is
// attached (the golden recording run), a capture shares every page the
// run did not store into since the previous capture, so every path that
// changes a byte must report it: a missed store would leave a capture
// holding a stale page, and every experiment forked from it would run
// on memory the golden run never had. Restoring a page-shared image and
// the convergence test's memory comparison must behave exactly as on a
// flat copy of the bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "sim/memory.h"
#include "sim/read_ahead.h"
#include "util/rng.h"

namespace goofi::sim {
namespace {

constexpr std::uint32_t kDataBase = 0x10000;

// Two multi-page segments, one ending in a partial page, and a small IO
// segment that is one partial page.
Memory MakeBoard() {
  Memory memory;
  EXPECT_TRUE(
      memory.AddSegment({"code", 0, 0x1000, true, false, true, false}).ok());
  EXPECT_TRUE(memory.AddSegment({"data", kDataBase, 0x1602, true, true,
                                 false, false})
                  .ok());
  EXPECT_TRUE(memory.AddSegment({"io", 0xFFFF0000, 0x100, true, true, false,
                                 true})
                  .ok());
  return memory;
}

std::vector<std::uint8_t> Flat(const Memory& memory) {
  std::vector<std::uint8_t> bytes;
  for (const Segment& segment : memory.segments()) {
    const auto dump = memory.DumpRange(segment.base, segment.size);
    EXPECT_TRUE(dump.ok());
    if (dump.ok()) bytes.insert(bytes.end(), dump->begin(), dump->end());
  }
  return bytes;
}

// (backing, page) of every page `later` does not share with `earlier`.
std::set<std::pair<std::size_t, std::size_t>> UnsharedPages(
    const MemoryState& earlier, const MemoryState& later) {
  std::set<std::pair<std::size_t, std::size_t>> unshared;
  for (std::size_t b = 0; b < later.backings.size(); ++b) {
    for (std::size_t p = 0; p < later.backings[b].pages.size(); ++p) {
      if (later.backings[b].pages[p] != earlier.backings[b].pages[p]) {
        unshared.insert({b, p});
      }
    }
  }
  return unshared;
}

struct StorePath {
  std::string name;
  std::function<void(Memory&, std::uint32_t)> store;
};

std::vector<StorePath> StorePaths() {
  return {
      {"WriteWord",
       [](Memory& m, std::uint32_t a) {
         EXPECT_EQ(m.WriteWord(a, 0xA5A5A5A5u), MemFault::kNone);
       }},
      {"WriteByte",
       [](Memory& m, std::uint32_t a) {
         EXPECT_EQ(m.WriteByte(a + 1, 0x5A), MemFault::kNone);
       }},
      {"Poke", [](Memory& m, std::uint32_t a) { EXPECT_TRUE(m.Poke(a, 7)); }},
      {"PokeWord",
       [](Memory& m, std::uint32_t a) {
         EXPECT_TRUE(m.PokeWord(a, 0x01020304u));
       }},
      {"FlipBit",
       [](Memory& m, std::uint32_t a) { EXPECT_TRUE(m.FlipBit(a + 2, 3)); }},
      {"LoadImage",
       [](Memory& m, std::uint32_t a) {
         EXPECT_TRUE(m.LoadImage(a, {1, 2, 3}).ok());
       }},
  };
}

TEST(PageStoreTest, EachStorePathUnsharesExactlyItsOwnPage) {
  // Page 2 of the data segment (backing 1), and the IO page (backing 2).
  const std::vector<std::pair<std::uint32_t, std::size_t>> targets = {
      {kDataBase + 2 * kMemoryPageBytes + 8, 1}, {0xFFFF0040, 2}};
  for (const StorePath& path : StorePaths()) {
    for (const auto& [address, backing] : targets) {
      Memory memory = MakeBoard();
      ReadAheadRecorder recorder(memory);
      memory.set_read_ahead_recorder(&recorder);
      const MemoryState before = memory.CaptureState();
      path.store(memory, address);
      const MemoryState after = memory.CaptureState();
      const std::size_t page =
          (address - memory.segments()[backing].base) / kMemoryPageBytes;
      EXPECT_EQ(UnsharedPages(before, after),
                (std::set<std::pair<std::size_t, std::size_t>>{
                    {backing, page}}))
          << path.name << " at 0x" << std::hex << address;
      // No store since: the next capture shares every page.
      EXPECT_TRUE(UnsharedPages(after, memory.CaptureState()).empty())
          << path.name;
      memory.set_read_ahead_recorder(nullptr);
      EXPECT_EQ(Flat(memory), [&] {
        Memory restored = MakeBoard();
        EXPECT_TRUE(restored.RestoreState(after).ok());
        return Flat(restored);
      }()) << path.name;
    }
  }
}

TEST(PageStoreTest, ClearAndRestoreUnshareEveryPage) {
  Memory memory = MakeBoard();
  ReadAheadRecorder recorder(memory);
  memory.set_read_ahead_recorder(&recorder);
  const MemoryState first = memory.CaptureState();
  std::size_t pages = 0;
  for (const MemoryState::Backing& backing : first.backings) {
    pages += backing.pages.size();
  }
  memory.ClearContents();
  const MemoryState cleared = memory.CaptureState();
  EXPECT_EQ(UnsharedPages(first, cleared).size(), pages);
  ASSERT_TRUE(memory.RestoreState(first).ok());
  EXPECT_EQ(UnsharedPages(cleared, memory.CaptureState()).size(), pages);
}

TEST(PageStoreTest, DetachedCapturesShareNothing) {
  Memory memory = MakeBoard();
  const MemoryState a = memory.CaptureState();
  const MemoryState b = memory.CaptureState();
  std::size_t pages = 0;
  for (const MemoryState::Backing& backing : a.backings) {
    pages += backing.pages.size();
  }
  EXPECT_EQ(UnsharedPages(a, b).size(), pages);
  for (std::size_t i = 0; i < a.backings.size(); ++i) {
    EXPECT_EQ(a.backings[i], b.backings[i]) << "segment " << i;
  }
}

// Random stores through every path between captures, with the recorder
// attached throughout, as in a recording run.
struct RecordedRun {
  std::vector<MemoryState> captures;
  std::vector<std::vector<std::uint8_t>> flats;  // the bytes at each
};

RecordedRun RecordRandomRun(std::uint64_t seed) {
  Memory memory = MakeBoard();
  ReadAheadRecorder recorder(memory);
  memory.set_read_ahead_recorder(&recorder);
  const std::vector<StorePath> paths = StorePaths();
  Rng rng(seed);
  RecordedRun run;
  for (int capture = 0; capture < 12; ++capture) {
    const std::uint64_t stores = rng.NextBelow(6);
    for (std::uint64_t s = 0; s < stores; ++s) {
      // Writable segments only: backing 1 (data) or 2 (io).
      const Segment& segment = memory.segments()[1 + rng.NextBelow(2)];
      const std::uint32_t address =
          segment.base +
          4 * static_cast<std::uint32_t>(rng.NextBelow(segment.size / 4 - 1));
      paths[rng.NextBelow(paths.size())].store(memory, address);
    }
    run.captures.push_back(memory.CaptureState());
    run.flats.push_back(Flat(memory));
  }
  return run;
}

TEST(PageStoreTest, RestoringASharedImageEqualsRestoringAFlatCopy) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const RecordedRun run = RecordRandomRun(seed);
    for (std::size_t i = 0; i < run.captures.size(); ++i) {
      Memory from_pages = MakeBoard();
      ASSERT_TRUE(from_pages.LoadImage(kDataBase, {9, 9, 9, 9}).ok());
      ASSERT_TRUE(from_pages.RestoreState(run.captures[i]).ok());
      Memory from_flat = MakeBoard();
      std::size_t at = 0;
      for (const Segment& segment : from_flat.segments()) {
        ASSERT_TRUE(from_flat
                        .LoadImage(segment.base,
                                   {run.flats[i].begin() + at,
                                    run.flats[i].begin() + at + segment.size})
                        .ok());
        at += segment.size;
      }
      EXPECT_EQ(Flat(from_pages), Flat(from_flat))
          << "seed " << seed << " capture " << i;
    }
  }
}

// The convergence test's verdict computed from flat bytes, word by word.
bool FlatDiffersOnlyWhere(
    const Memory& live, const std::vector<std::uint8_t>& golden,
    const std::function<bool(std::size_t, std::size_t)>& may_differ) {
  const std::vector<std::uint8_t> bytes = Flat(live);
  std::size_t at = 0;
  for (std::size_t b = 0; b < live.segments().size(); ++b) {
    const std::size_t size = live.segments()[b].size;
    for (std::size_t offset = 0; offset < size; offset += 4) {
      const std::size_t length = std::min<std::size_t>(4, size - offset);
      if (!std::equal(bytes.begin() + at + offset,
                      bytes.begin() + at + offset + length,
                      golden.begin() + at + offset) &&
          !may_differ(b, offset / 4)) {
        return false;
      }
    }
    at += size;
  }
  return true;
}

TEST(PageStoreTest, DiffersOnlyWhereGivesTheFlatVerdicts) {
  Rng rng(44);
  for (const std::uint64_t seed : {5u, 6u}) {
    const RecordedRun run = RecordRandomRun(seed);
    for (std::size_t i = 0; i < run.captures.size(); ++i) {
      Memory live = MakeBoard();
      ASSERT_TRUE(live.RestoreState(run.captures[i]).ok());
      // Flip a few bytes anywhere, the last partial word included, and
      // allow a random subset of words to differ.
      std::set<std::pair<std::size_t, std::size_t>> allowed;
      for (int flip = 0; flip < 3; ++flip) {
        const std::size_t b = rng.NextBelow(live.segments().size());
        const Segment& segment = live.segments()[b];
        const std::uint32_t offset =
            flip == 0 && b == 1 ? segment.size - 1
                                : static_cast<std::uint32_t>(
                                      rng.NextBelow(segment.size));
        ASSERT_TRUE(live.FlipBit(segment.base + offset, 0));
        if (rng.NextBool()) allowed.insert({b, offset / 4});
      }
      auto may_differ = [&allowed](std::size_t b, std::size_t word) {
        return allowed.count({b, word}) != 0;
      };
      EXPECT_EQ(live.DiffersOnlyWhere(run.captures[i], may_differ),
                FlatDiffersOnlyWhere(live, run.flats[i], may_differ))
          << "seed " << seed << " capture " << i;
      EXPECT_TRUE(live.DiffersOnlyWhere(
          run.captures[i], [](std::size_t, std::size_t) { return true; }));
    }
    Memory same = MakeBoard();
    ASSERT_TRUE(same.RestoreState(run.captures.back()).ok());
    EXPECT_TRUE(same.DiffersOnlyWhere(
        run.captures.back(), [](std::size_t, std::size_t) { return false; }));
  }
}

}  // namespace
}  // namespace goofi::sim
