// Target factories: mint fresh, fully independent target instances on
// demand.
//
// The paper's tool owns exactly one target system (a physical board on
// a test card). Our targets are simulated in-process, so nothing stops
// a campaign from running against N of them at once — each campaign
// worker (core::CampaignRunner at jobs = N, core/runner.h) asks the
// factory for its own instance and drives it without any sharing: own test card, own CPU
// and scan chains, and — once a workload naming a plant model is
// installed — own environment (target/environment.h). Workload
// installation stays per instance, exactly as SetWorkload on a single
// target.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "target/fault_injection_algorithms.h"
#include "util/status.h"

namespace goofi::target {

// Every call returns a brand-new instance sharing no mutable state with
// any previous one. Factories must be safe to call from the thread that
// owns the resulting instance (workers call them during start-up).
using TargetFactory =
    std::function<Result<std::unique_ptr<TargetSystemInterface>>()>;

// Factory for the targets shipped in the target layer: "thor_rd" (the
// rad-hard board), "thor" (the commercial variant) and "framework" (the
// Fig. 3 porting skeleton). Unknown names are a NotFound error at
// factory-construction time, not at first use.
Result<TargetFactory> BuiltinTargetFactory(const std::string& target_name);

}  // namespace goofi::target
