// Value types of the target layer: enum name round-trips and the
// Observation text codec that LoggedSystemState.stateVector stores.
#include "target/target_types.h"

#include <gtest/gtest.h>

#include "observation_fixture.h"

namespace goofi::target {
namespace {

TEST(TargetTypesTest, TechniqueNamesRoundTrip) {
  for (Technique technique :
       {Technique::kScifi, Technique::kSwifiPreRuntime,
        Technique::kSwifiRuntime}) {
    const auto parsed = TechniqueFromName(TechniqueName(technique));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, technique);
  }
  EXPECT_FALSE(TechniqueFromName("laser").has_value());
  EXPECT_FALSE(TechniqueFromName("").has_value());
}

TEST(TargetTypesTest, FaultModelKindNamesRoundTrip) {
  for (FaultModel::Kind kind :
       {FaultModel::Kind::kTransientBitFlip,
        FaultModel::Kind::kIntermittentBitFlip,
        FaultModel::Kind::kPermanentStuckAt}) {
    const auto parsed = FaultModelKindFromName(FaultModelKindName(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(FaultModelKindFromName("sticky").has_value());
}

TEST(TargetTypesTest, ObservationSerializeRoundTripsEveryField) {
  const Observation original = FullObservation();
  const auto decoded = Observation::Deserialize(original.Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Observation& back = decoded.value();
  EXPECT_EQ(back.stop_reason, original.stop_reason);
  EXPECT_EQ(back.instructions, original.instructions);
  EXPECT_EQ(back.iterations, original.iterations);
  EXPECT_EQ(back.recovery_count, original.recovery_count);
  EXPECT_EQ(back.fault_was_injected, original.fault_was_injected);
  ASSERT_TRUE(back.edm.has_value());
  EXPECT_EQ(back.edm->type, original.edm->type);
  EXPECT_EQ(back.edm->time, original.edm->time);
  EXPECT_EQ(back.edm->pc, original.edm->pc);
  EXPECT_EQ(back.edm->detail, original.edm->detail);
  ASSERT_EQ(back.chain_images.size(), 2u);
  EXPECT_EQ(back.chain_images.at("internal").ToHexString(),
            original.chain_images.at("internal").ToHexString());
  EXPECT_EQ(back.chain_images.at("boundary").ToHexString(),
            original.chain_images.at("boundary").ToHexString());
  EXPECT_EQ(back.output_region, original.output_region);
  EXPECT_EQ(back.emitted, original.emitted);
  EXPECT_EQ(back.env_outputs, original.env_outputs);
  ASSERT_EQ(back.detail_trace.size(), 2u);
  EXPECT_EQ(back.detail_trace[0].first, 1u);
  EXPECT_EQ(back.detail_trace[1].second.ToHexString(),
            original.detail_trace[1].second.ToHexString());
  // And the round trip is a fixed point.
  EXPECT_EQ(back.Serialize(), original.Serialize());
}

TEST(TargetTypesTest, LinkRetriesRoundTripAndAreOmittedWhenZero) {
  Observation observation;
  observation.link_words_retried = 17;
  const std::string text = observation.Serialize();
  EXPECT_NE(text.find("linkretry=17"), std::string::npos);
  const auto decoded = Observation::Deserialize(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().link_words_retried, 17u);

  // A clean link serializes exactly as it did before the field existed,
  // so historical state vectors (and fault-free dumps) stay byte-stable.
  observation.link_words_retried = 0;
  EXPECT_EQ(observation.Serialize().find("linkretry"), std::string::npos);
  EXPECT_EQ(Observation::Deserialize(observation.Serialize())
                .value()
                .link_words_retried,
            0u);
}

TEST(TargetTypesTest, DefaultObservationRoundTrips) {
  const Observation original;
  const auto decoded = Observation::Deserialize(original.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().Serialize(), original.Serialize());
  EXPECT_TRUE(decoded.value().chain_images.empty());
  EXPECT_FALSE(decoded.value().edm.has_value());
}

TEST(TargetTypesTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Observation::Deserialize("not an observation").ok());
  EXPECT_FALSE(Observation::Deserialize("").ok());  // missing stop
  EXPECT_FALSE(Observation::Deserialize("instr=5").ok());
  EXPECT_FALSE(Observation::Deserialize("stop=9").ok());  // out of range
  EXPECT_FALSE(Observation::Deserialize("stop=0;edm=1,2").ok());
  EXPECT_FALSE(Observation::Deserialize("stop=0;chain:x=zz").ok());
  EXPECT_FALSE(Observation::Deserialize("stop=0;emit=1+x").ok());
}

TEST(TargetTypesTest, DeserializeSkipsUnknownKeysFromNewerWriters) {
  const auto decoded =
      Observation::Deserialize("stop=0;instr=7;future_field=anything");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().instructions, 7u);
}

TEST(TargetTypesTest, EdmTypeOutOfRangeIsRejected) {
  const std::string text =
      "stop=1;edm=" + std::to_string(sim::kEdmTypeCount) + ",1,0x0,";
  EXPECT_FALSE(Observation::Deserialize(text).ok());
}

}  // namespace
}  // namespace goofi::target
