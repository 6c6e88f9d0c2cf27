// Fixed-seed mutation sweep over the storage decoders a results
// directory feeds on open: table snapshots (*.snap) and the manifest
// (snapshot.manifest). Valid encodings are damaged by bit flips,
// truncations and length-field edits — snapshot mutants are re-sealed
// with a fresh CRC half the time, so the damage reaches the parser
// behind the checksum. Every mutant must decode or fail with a typed,
// non-Internal Status, and never crash under ASan/UBSan.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/wal.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace goofi::db {
namespace {

void ExpectTyped(const Status& status, const std::string& what) {
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.code(), ErrorCode::kInternal) << what;
  EXPECT_FALSE(status.message().empty()) << what;
}

std::string RandomBytes(Rng& rng, std::size_t max_length) {
  std::string bytes;
  const std::size_t length = rng.NextBelow(max_length + 1);
  for (std::size_t i = 0; i < length; ++i) {
    bytes.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  return bytes;
}

std::string SeedSnapshot(Rng& rng) {
  TableSchema schema("fuzzed");
  EXPECT_TRUE(
      schema.AddColumn({"id", ColumnType::kInteger, false, false, true}).ok());
  EXPECT_TRUE(schema.AddColumn({"payload", ColumnType::kBlob}).ok());
  EXPECT_TRUE(schema.AddColumn({"note", ColumnType::kText}).ok());
  std::vector<Row> rows;
  const std::size_t count = rng.NextBelow(6);
  for (std::size_t i = 0; i < count; ++i) {
    rows.push_back({Value::Integer(static_cast<std::int64_t>(i)),
                    Value::Blob(RandomBytes(rng, 12)),
                    rng.NextBool(0.3) ? Value::Null()
                                      : Value::Text_(RandomBytes(rng, 8))});
  }
  return wal::EncodeTableSnapshot(SerializeSchema(schema), rows);
}

std::string SeedManifest(Rng& rng) {
  std::vector<std::pair<std::string, std::uint64_t>> tables;
  const std::size_t count = 1 + rng.NextBelow(4);
  for (std::size_t i = 0; i < count; ++i) {
    tables.emplace_back("table_" + std::to_string(i), rng.NextBelow(9));
  }
  if (rng.NextBool(0.5)) {
    // The v1 format: one shared generation.
    std::string text = "goofi-wal-manifest v1\ngeneration 3\n";
    for (const auto& [name, generation] : tables) text += "table " + name + "\n";
    return text;
  }
  return wal::EncodeManifest(rng.NextBelow(9), tables);
}

// One damage step: a bit flip, a truncation, or a 4- or 8-byte
// little-endian field overwritten with an edge value.
void Damage(Rng& rng, std::string& bytes) {
  if (bytes.empty()) return;
  switch (rng.NextBelow(3)) {
    case 0:
      bytes[rng.NextBelow(bytes.size())] ^=
          static_cast<char>(1u << rng.NextBelow(8));
      break;
    case 1:
      bytes.resize(rng.NextBelow(bytes.size()));
      break;
    default: {
      const std::uint64_t edges[] = {0,
                                     1,
                                     bytes.size(),
                                     bytes.size() + 1,
                                     0x7FFFFFFFull,
                                     0xFFFFFFFFull,
                                     0x8000000000000000ull,
                                     ~0ull};
      const std::uint64_t value = edges[rng.NextBelow(8)];
      const std::size_t width = rng.NextBool(0.5) ? 4 : 8;
      const std::size_t at = rng.NextBelow(bytes.size());
      for (std::size_t i = 0; i < width && at + i < bytes.size(); ++i) {
        bytes[at + i] = static_cast<char>(value >> (8 * i));
      }
      break;
    }
  }
}

// Replace the trailing CRC so the mutant passes the checksum.
void Reseal(std::string& bytes) {
  if (bytes.size() < 4) return;
  const std::uint32_t crc =
      Crc32(std::string_view(bytes).substr(0, bytes.size() - 4));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<char>(crc >> (8 * i));
  }
}

class WalDecodeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WalDecodeFuzz, MutantsDecodeOrFailTyped) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0xD1B54A32D192ED03ULL +
          0x8CB92BA72F3D8DD7ULL);
  constexpr int kMutants = 300;
  int snapshots_decoded = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string snapshot = SeedSnapshot(rng);
    const std::size_t damage = 1 + rng.NextBelow(3);
    for (std::size_t d = 0; d < damage; ++d) Damage(rng, snapshot);
    if (rng.NextBool(0.5)) Reseal(snapshot);
    const auto decoded = wal::DecodeTableSnapshot(snapshot);
    if (decoded.ok()) {
      ++snapshots_decoded;
    } else {
      ExpectTyped(decoded.status(), "snapshot mutant " + std::to_string(i));
    }

    std::string manifest = SeedManifest(rng);
    for (std::size_t d = 0; d < damage; ++d) Damage(rng, manifest);
    const auto parsed = wal::DecodeManifest(manifest);
    if (!parsed.ok()) ExpectTyped(parsed.status(), manifest);
  }
  // The seeds themselves decode; so the sweep exercised both paths.
  Rng seed_rng(static_cast<std::uint64_t>(GetParam()));
  EXPECT_TRUE(wal::DecodeTableSnapshot(SeedSnapshot(seed_rng)).ok());
  EXPECT_TRUE(wal::DecodeManifest(SeedManifest(seed_rng)).ok());
  EXPECT_LT(snapshots_decoded, kMutants);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalDecodeFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace goofi::db
