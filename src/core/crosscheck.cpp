#include "core/crosscheck.h"

#include <algorithm>

#include "analysis/dataflow.h"
#include "analysis/equivalence.h"
#include "analysis/static_liveness.h"
#include "core/campaign.h"
#include "core/experiment_codec.h"
#include "core/goofi_schema.h"
#include "core/registry.h"
#include "core/runner.h"
#include "sim/access_recorder.h"
#include "target/thor_rd_target.h"
#include "target/workloads.h"
#include "util/strings.h"

namespace goofi::core {

std::string CrossCheckViolation::ToString() const {
  if (kind == "register") {
    return StrFormat(
        "%s: r%u dynamically live at t=%llu (pc=0x%08x) but statically dead",
        workload.c_str(), subject,
        static_cast<unsigned long long>(time), pc);
  }
  if (kind == "memory") {
    return StrFormat(
        "%s: word 0x%08x dynamically live but statically never read",
        workload.c_str(), subject);
  }
  if (kind == "first-use") {
    return StrFormat(
        "%s: r%u's dynamic first use after t=%llu (pc=0x%08x) is not in "
        "the static may-first-use set",
        workload.c_str(), subject, static_cast<unsigned long long>(time), pc);
  }
  return StrFormat("%s: executed pc=0x%08x is statically unreachable",
                   workload.c_str(), pc);
}

Result<std::vector<CrossCheckViolation>> CrossCheckWorkload(
    const std::string& workload_name) {
  ASSIGN_OR_RETURN(target::WorkloadSpec workload,
                   target::GetBuiltinWorkload(workload_name));
  ASSIGN_OR_RETURN(const analysis::StaticLiveness static_liveness,
                   analysis::StaticLiveness::AnalyzeSource(workload.assembly));

  target::ThorRdTarget target;
  RETURN_IF_ERROR(target.SetWorkload(workload));
  target::ExperimentSpec reference;
  reference.name = workload_name + "/crosscheck";
  target.set_experiment(reference);
  sim::AccessRecorder recorder;
  target.set_external_tracer(&recorder);
  RETURN_IF_ERROR(target.MakeReferenceRun());
  target.set_external_tracer(nullptr);
  const target::Observation observation = target.TakeObservation();

  analysis::FaultSpacePartition dynamic;
  dynamic.Build(recorder, observation.instructions);
  const std::vector<std::uint32_t>& pc_trace = recorder.pc_trace();

  std::vector<CrossCheckViolation> violations;

  // Every executed pc must be statically reachable.
  std::uint32_t last_unreachable = 0xffffffffu;
  for (std::uint64_t time = 0; time < pc_trace.size(); ++time) {
    const std::uint32_t pc = pc_trace[time];
    if (!static_liveness.cfg().IsReachable(pc) && pc != last_unreachable) {
      violations.push_back(
          {workload_name, "reachability", time, pc, 0});
      last_unreachable = pc;
    }
  }

  // Dynamic register liveness must imply static may-liveness at the pc
  // of the instruction the injection would land in front of. Adjacent
  // read-closed intervals form one live span; one violation per span
  // keeps reports readable.
  for (unsigned reg = 1; reg < 16; ++reg) {
    bool span_reported = false;
    for (const analysis::EquivInterval& interval :
         dynamic.register_intervals(reg)) {
      if (!interval.read_closed) {
        span_reported = false;
        continue;
      }
      for (std::uint64_t time = interval.lo;
           !span_reported && time <= interval.hi && time < pc_trace.size();
           ++time) {
        if (!static_liveness.MayBeLiveAtPc(static_cast<std::uint8_t>(reg),
                                           pc_trace[time])) {
          violations.push_back({workload_name, "register", time,
                                pc_trace[time], reg});
          span_reported = true;
        }
      }
    }
  }

  // Dynamic memory liveness must imply the word can statically be read.
  for (const auto& [word, intervals] : dynamic.memory_intervals()) {
    const bool live = std::any_of(
        intervals.begin(), intervals.end(),
        [](const analysis::EquivInterval& interval) {
          return interval.read_closed;
        });
    if (live && !static_liveness.MayWordHoldLiveData(word)) {
      violations.push_back({workload_name, "memory", 0, 0, word});
    }
  }

  // The equivalence partitioner's static counterpart: for every dynamic
  // def-use interval ending in a read, the read's pc must be in the
  // static may-first-use set of the value entering every instruction of
  // the interval — the same superset direction as liveness, one level
  // sharper.
  const analysis::FirstUseResult first_uses =
      analysis::ComputeFirstUses(static_liveness.cfg());
  for (unsigned reg = 1; reg < 16; ++reg) {
    for (const analysis::EquivInterval& interval :
         dynamic.register_intervals(reg)) {
      if (!interval.read_closed || interval.hi >= pc_trace.size()) continue;
      const std::uint32_t use_pc = pc_trace[interval.hi];
      for (std::uint64_t time = interval.lo; time <= interval.hi; ++time) {
        if (!first_uses.MayFirstUseAt(static_cast<std::uint8_t>(reg),
                                      pc_trace[time], use_pc)) {
          violations.push_back({workload_name, "first-use", time,
                                pc_trace[time], reg});
          break;  // one per (reg, interval) keeps reports readable
        }
      }
    }
  }
  return violations;
}

Result<EquivalenceAudit> CrossCheckEquivalenceCampaign(
    db::Database& database, const std::string& campaign_name,
    std::size_t max_classes) {
  ASSIGN_OR_RETURN(const CampaignConfig config,
                   LoadCampaign(database, campaign_name));
  const db::Table* logged = database.FindTable(kLoggedSystemStateTable);
  if (logged == nullptr) return NotFoundError("no LoggedSystemState table");

  // A fresh registry-built target, workload installed the same way the
  // campaign's runners install it. Replay-from-reset is bit-exact, so
  // checkpoint/fork settings of the original run are irrelevant here.
  ASSIGN_OR_RETURN(std::unique_ptr<target::TargetSystemInterface> target,
                   TargetRegistry::Instance().Create(config.target));
  RETURN_IF_ERROR(ConfigureTargetWorkload(config, target.get()).status());
  target->set_logging_mode(target::LoggingMode::kNormal);

  EquivalenceAudit audit;
  for (const db::Row& row : logged->rows()) {
    if (max_classes != 0 && audit.classes_checked >= max_classes) break;
    if (row[2].AsText() != campaign_name) continue;
    // Representative rows only: a class id, no parent, a completed run.
    if (row.size() <= 8 || row[8].is_null()) continue;
    if (!row[1].is_null()) continue;
    if (row.size() > 6 && !row[6].is_null() && row[6].AsText() != "ok") {
      continue;
    }
    const std::string class_id = row[8].AsText();
    ASSIGN_OR_RETURN(const analysis::EquivalenceClassKey key,
                     analysis::ParseEquivalenceClassId(class_id));
    ASSIGN_OR_RETURN(target::ExperimentSpec spec,
                     ParseExperimentSpec(row[3].AsText()));
    if (spec.trigger.kind != sim::Breakpoint::Kind::kInstretReached) {
      return FailedPreconditionError(
          "experiment '" + row[0].AsText() + "' is not instret-triggered");
    }
    const std::string representative_observation = row[4].AsText();

    // Inject every member of the class — including the representative's
    // own time, re-proving reproducibility — and demand the identical
    // observation. The homogeneity argument says even the absolute EDM
    // time and the full chain images must match, so the comparison is
    // exact, not taxonomy-level.
    for (std::uint64_t time = key.lo; time <= key.hi; ++time) {
      spec.trigger.count = time;
      spec.name = StrFormat("%s/equivcheck@%llu", row[0].AsText().c_str(),
                            static_cast<unsigned long long>(time));
      target->set_experiment(spec);
      RETURN_IF_ERROR(target->RunExperiment());
      const target::Observation observation = target->TakeObservation();
      ++audit.members_injected;
      if (observation.Serialize() != representative_observation) {
        return InternalError(StrFormat(
            "equivalence class %s is outcome-heterogeneous: member t=%llu "
            "diverges from representative %s",
            class_id.c_str(), static_cast<unsigned long long>(time),
            row[0].AsText().c_str()));
      }
    }
    ++audit.classes_checked;
    audit.space_weight += key.weight();
  }
  return audit;
}

Status CrossCheckBuiltinWorkloads() {
  std::vector<std::string> failures;
  for (const std::string& name : target::BuiltinWorkloadNames()) {
    ASSIGN_OR_RETURN(const std::vector<CrossCheckViolation> violations,
                     CrossCheckWorkload(name));
    for (const CrossCheckViolation& violation : violations) {
      failures.push_back(violation.ToString());
    }
  }
  if (failures.empty()) return Status::Ok();
  return InternalError("static liveness is not a superset of dynamic: " +
                       JoinStrings(failures, "; "));
}

}  // namespace goofi::core
