// Umbrella header: the public API of GOOFI++.
//
// A typical campaign, end to end:
//
//   goofi::db::Database database;
//   goofi::target::ThorRdTarget target;
//   target.SetWorkload(*goofi::target::GetBuiltinWorkload("isort"));
//
//   goofi::core::CampaignConfig config;       // set-up phase (Fig. 6)
//   config.name = "demo";
//   config.workload = "isort";
//   config.technique = goofi::target::Technique::kScifi;
//   config.num_experiments = 200;
//
//   goofi::core::RegisterTargetSystem(database, target, "sim-card", "");
//   goofi::core::StoreCampaign(database, config);
//
//   goofi::core::CampaignRunner runner(&database, &target);
//   auto summary = runner.FaultInjectorSCIFI("demo");  // FI phase (Fig. 2)
//
//   auto analysis = goofi::core::AnalyzeCampaign(database, "demo");
//   std::cout << goofi::core::FormatAnalysisReport(*analysis);
//
// See examples/quickstart.cpp for the runnable version.
#pragma once

#include "analysis/linter.h"
#include "analysis/static_liveness.h"
#include "core/analysis.h"
#include "core/campaign.h"
#include "core/crosscheck.h"
#include "core/experiment_codec.h"
#include "core/goofi_schema.h"
#include "core/location.h"
#include "core/plugin.h"
#include "core/preinjection.h"
#include "core/propagation.h"
#include "core/registry.h"
#include "core/runner.h"
#include "db/database.h"
#include "db/sql/executor.h"
#include "target/environment.h"
#include "target/factory.h"
#include "target/framework_target.h"
#include "target/thor_rd_target.h"
#include "target/workloads.h"
