// Experiment T-TRIGGERS (DESIGN.md): the paper's fault-trigger
// extension — "Additional fault triggers such as access of certain data
// values, execution of branch instructions or subprogram calls ... or at
// specific times determined by a real-time clock."
//
// For each trigger kind: how often the trigger actually fired (the
// injection happened), where the injections landed in time, and the
// outcome mix.
#include "bench_util.h"

int main() {
  using namespace goofi;
  std::printf("== T-TRIGGERS: fault-trigger comparison on engine_control "
              "==\n\n");
  std::printf("%-12s %6s | %9s | %8s %8s %8s %8s\n", "trigger", "N",
              "fired", "detect", "escape", "latent", "overwr");

  using core::TriggerKind;
  for (const TriggerKind kind :
       {TriggerKind::kInstret, TriggerKind::kRtc, TriggerKind::kPc,
        TriggerKind::kDataRead, TriggerKind::kDataWrite, TriggerKind::kBranch,
        TriggerKind::kCall}) {
    const std::string trigger = core::TriggerKindName(kind);
    db::Database database;
    target::ThorRdTarget target;
    core::CampaignConfig config;
    config.name = "trig_" + trigger;
    config.workload = "engine_control";
    config.num_experiments = 250;
    config.seed = 31337;
    config.location_filters = {"cpu.regs.*"};
    config.trigger_kind = kind;
    const bench::CampaignRun run =
        bench::RunCampaign(database, target, config);
    const std::size_t fired =
        run.analysis.total - run.analysis.not_injected;
    std::printf("%-12s %6zu | %8.1f%% | %8zu %8zu %8zu %8zu\n",
                trigger.c_str(), run.analysis.total,
                100.0 * static_cast<double>(fired) /
                    static_cast<double>(run.analysis.total),
                run.analysis.detected, run.analysis.escaped,
                run.analysis.latent, run.analysis.overwritten);
  }
  std::printf(
      "\nExpected shape: instret/rtc triggers always fire (time is\n"
      "guaranteed to arrive); address- and event-based triggers may\n"
      "sample a PC/address/occurrence the run never reaches, so their\n"
      "firing rate is below 100%% — the tool logs those experiments as\n"
      "never-injected rather than failing.\n");
  return 0;
}
