// A fully populated Observation (EDM, two chain images, output region,
// emit and environment streams, a detail trace) shared by the codec
// tests in target_types_test.cpp and observation_codec_test.cpp.
#pragma once

#include "target/target_types.h"

namespace goofi::target {

inline Observation FullObservation() {
  Observation observation;
  observation.stop_reason = sim::StopReason::kEdm;
  observation.instructions = 123456;
  observation.iterations = 40;
  observation.recovery_count = 3;
  observation.fault_was_injected = true;
  sim::EdmEvent edm;
  edm.type = sim::EdmType::kAssertion;
  edm.time = 99;
  edm.pc = 0x1234;
  edm.detail = "executable assertion failed (r1=0x00000bad)";
  observation.edm = edm;
  BitVector internal(40);
  internal.SetField(3, 16, 0xBEEF);
  observation.chain_images["internal"] = internal;
  BitVector boundary(9);
  boundary.Set(8, true);
  observation.chain_images["boundary"] = boundary;
  observation.output_region = {0x00, 0xFF, 0x10, 0x20};
  observation.emitted = {10946, 0};
  observation.env_outputs = {500, 501, 502};
  BitVector snap(12);
  snap.Set(0, true);
  observation.detail_trace.emplace_back(1, snap);
  snap.Set(11, true);
  observation.detail_trace.emplace_back(2, snap);
  return observation;
}

}  // namespace goofi::target
