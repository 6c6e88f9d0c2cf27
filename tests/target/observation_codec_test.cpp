// Byte stability and robustness of the Observation text codec: the
// encoding of a mission-sized row is pinned, decode/encode is a fixed
// point, word lists follow the ParseUint64 grammar, and a seeded
// mutation sweep never gets past the decoder untyped.
#include <gtest/gtest.h>

#include "observation_fixture.h"
#include "target/target_types.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/strings.h"

namespace goofi::target {
namespace {

// The shape of a runtime-SWIFI mission row: 10,000 actuator words, an
// emit stream, an EDM, two chain images and an output region.
Observation MissionObservation() {
  Observation observation;
  observation.stop_reason = sim::StopReason::kIterationLimit;
  observation.instructions = 276543;
  observation.iterations = 10000;
  observation.recovery_count = 2;
  observation.fault_was_injected = true;
  sim::EdmEvent edm;
  edm.type = sim::EdmType::kDivByZero;
  edm.time = 123456;
  edm.pc = 0x1f4;
  edm.detail = "divide by zero";
  observation.edm = edm;
  BitVector internal(5642);
  for (std::size_t i = 0; i < internal.size(); i += 7) internal.Set(i, true);
  observation.chain_images["internal"] = internal;
  BitVector boundary(33);
  boundary.SetField(0, 32, 0xdeadbeef);
  observation.chain_images["boundary"] = boundary;
  observation.output_region = {0x01, 0x00, 0x7f, 0x80, 0xff};
  observation.emitted = {0, 1, 4294967295u, 10946};
  std::uint32_t x = 12345;
  for (int i = 0; i < 10000; ++i) {
    x = x * 1103515245u + 12345u;
    // Mix short and full-width values so every decimal length shows up.
    observation.env_outputs.push_back(i % 3 == 0 ? x >> (x % 29) : x);
  }
  return observation;
}

TEST(ObservationCodecTest, SerializeBytesArePinned) {
  // Stored state vectors must never change bytes: these values were
  // recorded from the original StrFormat-based encoder.
  const std::string text = MissionObservation().Serialize();
  EXPECT_EQ(text.size(), 94698u);
  EXPECT_EQ(Crc32(text), 803214126u);
  EXPECT_EQ(text.substr(0, text.find(";chain:internal")),
            "stop=3;instr=276543;iter=10000;recov=2;inj=1;"
            "edm=4,123456,0x000001f4,646976696465206279207a65726f;"
            "chain:boundary=33:feebdaed0");
  EXPECT_EQ(text.substr(text.find(";out="), 80),
            ";out=01007f80ff;emit=0+1+4294967295+10946;"
            "env=1694+2802067423+3596950572+2866044");
  EXPECT_EQ(text.substr(text.size() - 60),
            "4+57456+3305535940+3463692461+2018287+716713843+886271536+10");
}

TEST(ObservationCodecTest, SerializeOfDeserializeIsIdentity) {
  for (const Observation& observation :
       {MissionObservation(), FullObservation(), Observation{}}) {
    const std::string text = observation.Serialize();
    const auto decoded = Observation::Deserialize(text);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->Serialize(), text);
    EXPECT_EQ(decoded->env_outputs, observation.env_outputs);
    EXPECT_EQ(decoded->emitted, observation.emitted);
  }
}

// The word-list grammar as first written: '+'-separated ParseUint64
// values no wider than 32 bits, empty pieces skipped. Kept as the
// oracle for the allocation-free parser.
std::optional<std::vector<std::uint32_t>> ReferenceWordList(
    const std::string& text) {
  std::vector<std::uint32_t> words;
  for (const std::string& piece : SplitString(text, '+')) {
    if (piece.empty()) continue;
    const auto value = ParseUint64(piece);
    if (!value || *value > 0xffffffffull) return std::nullopt;
    words.push_back(static_cast<std::uint32_t>(*value));
  }
  return words;
}

TEST(ObservationCodecTest, WordListsParseAsTheReferenceGrammar) {
  const std::string cases[] = {
      "", "0", "1+2+3", "1++2", "+1+", "4294967295", "4294967296",
      "18446744073709551615", "18446744073709551616",
      "99999999999999999999999", "00000000000000000000000042", "0x10",
      "0XfF", "0x", "0x+1", "0xg", " 7", "7 ", " 7 +\t8\n", " ", "1+ +2",
      "-1", "+", "1e3", "1.0", "12a", "a12", "0x100000000", "0x00000000ff",
      "\x80", std::string("1\0002", 3)};
  for (const std::string& text : cases) {
    SCOPED_TRACE("emit=" + text);
    const auto expected = ReferenceWordList(text);
    const auto decoded = Observation::Deserialize("stop=0;emit=" + text);
    ASSERT_EQ(decoded.ok(), expected.has_value())
        << decoded.status().ToString();
    if (decoded.ok()) {
      EXPECT_EQ(decoded->emitted, *expected);
    } else {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError);
    }
  }
}

// Fixed-seed mutation sweep over the decoder: every mutant either
// decodes to an observation whose encoding is a fixed point, or is
// rejected with a typed ParseError. Word-list records are checked
// against the reference grammar as well.
class ObservationCodecFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ObservationCodecFuzz, MutantsDecodeOrFailTyped) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9E3779B97F4A7C15ull +
          0x632BE59BD9B4E019ull);
  Observation small = FullObservation();
  small.env_outputs = {0, 7, 4294967295u, 123456789};
  const std::string seeds[] = {small.Serialize(), Observation{}.Serialize(),
                               "stop=0;emit=1+2;env=3+4+5"};
  const std::string alphabet = "0123456789abcdefxX+;=,:@|- \t";
  for (int round = 0; round < 400; ++round) {
    std::string text = seeds[rng.NextBelow(std::size(seeds))];
    const int edits = 1 + static_cast<int>(rng.NextBelow(4));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.NextBelow(text.size());
      switch (rng.NextBelow(5)) {
        case 0:  // overwrite with grammar-relevant byte
          text[at] = alphabet[rng.NextBelow(alphabet.size())];
          break;
        case 1:  // arbitrary byte
          text[at] = static_cast<char>(rng.NextBelow(256));
          break;
        case 2:  // insert
          text.insert(at, 1, alphabet[rng.NextBelow(alphabet.size())]);
          break;
        case 3:  // delete a span
          text.erase(at, 1 + rng.NextBelow(8));
          break;
        default:  // truncate
          text.resize(at);
          break;
      }
    }
    SCOPED_TRACE(text);
    const auto decoded = Observation::Deserialize(text);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), ErrorCode::kParseError)
          << decoded.status().ToString();
      continue;
    }
    const std::string again = decoded->Serialize();
    const auto redecoded = Observation::Deserialize(again);
    ASSERT_TRUE(redecoded.ok()) << redecoded.status().ToString();
    EXPECT_EQ(redecoded->Serialize(), again);
    // A word list that survived decoding matches the reference grammar
    // applied to the last emit= record of the mutant.
    const std::size_t emit = text.rfind(";emit=");
    if (emit != std::string::npos) {
      const std::size_t end = text.find(';', emit + 1);
      const auto expected = ReferenceWordList(text.substr(
          emit + 6, end == std::string::npos ? end : end - emit - 6));
      ASSERT_TRUE(expected.has_value());
      EXPECT_EQ(decoded->emitted, *expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObservationCodecFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace goofi::target
