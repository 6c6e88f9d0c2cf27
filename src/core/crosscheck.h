// Static-vs-dynamic cross-check: the static analyzer's soundness gate.
//
// analysis::StaticLiveness prunes fault locations before any run; the
// dynamic liveness filter reads the def-use index
// (analysis::FaultSpacePartition) of the reference run's access trace.
// For the pruning to be sound the static answer must be a SUPERSET of
// the dynamic one on every fault-free run:
//
//   dynamic live(reg, t)   ==>  static MayBeLiveAtPc(reg, pc_at(t))
//   dynamic live(word, t)  ==>  static MayWordHoldLiveData(word)
//   read at r closing the interval of t
//                          ==>  static MayFirstUseAt(reg, pc_at(t), pc_at(r))
//   and every executed pc  ==>  statically reachable.
//
// CrossCheckWorkload runs the workload's reference run on a Thor RD
// target, builds the static analysis and the def-use index, walks the
// index's read-closed intervals and reports every violation;
// tests/analysis/crosscheck_test.cpp fails if any built-in workload
// produces one.
// The equivalence analogue (analysis/equivalence.h) has its own, fully
// dynamic gate: a class claims every member injection produces the
// identical observation, so CrossCheckEquivalenceCampaign re-injects
// every member of logged classes and fails loudly on any class whose
// members disagree with the representative's stored observation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "db/database.h"
#include "util/status.h"

namespace goofi::core {

struct CrossCheckViolation {
  std::string workload;
  // "register", "memory", "reachability" or "first-use".
  std::string kind;
  std::uint64_t time = 0;
  std::uint32_t pc = 0;
  // Register number or word address, per kind.
  std::uint32_t subject = 0;

  std::string ToString() const;
};

// Reference-runs the named built-in workload and compares the two
// analyses. Ok with an empty vector = the superset invariant holds.
Result<std::vector<CrossCheckViolation>> CrossCheckWorkload(
    const std::string& workload_name);

// All built-in workloads; error describes every violation found.
Status CrossCheckBuiltinWorkloads();

// ---- equivalence-class soundness audit ---------------------------------

struct EquivalenceAudit {
  std::size_t classes_checked = 0;    // representative rows audited
  std::size_t members_injected = 0;   // injections actually re-run
  std::uint64_t space_weight = 0;     // summed weight of audited classes
};

// Exhaustively re-inject every member of the equivalence classes a
// `static_analysis = equivalence` campaign logged (representative rows
// carry the class id), on a fresh registry-built target, and compare
// each member's observation with the representative's stored one.
// `max_classes` bounds the audit (0 = every class); classes are taken
// in logged order. Errors with the offending class id and member time
// if any class is outcome-heterogeneous — the claim the whole
// extrapolation rests on.
Result<EquivalenceAudit> CrossCheckEquivalenceCampaign(
    db::Database& database, const std::string& campaign_name,
    std::size_t max_classes = 0);

}  // namespace goofi::core
