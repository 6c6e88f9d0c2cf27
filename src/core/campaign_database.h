// The campaign results database as the front ends open it.
//
// goofi_tool and goofi_serve follow one sequence: open or create the
// database directory, register the target and store the campaign, then
// run with one group-commit cadence. Because both call the functions
// here, a database a daemon produces is byte-identical to the one a
// one-shot `goofi_tool run` of the same ini produces.
#pragma once

#include <cstddef>
#include <string>

#include "core/campaign.h"
#include "db/database.h"
#include "util/status.h"

namespace goofi::core {

// The runners' group-commit cadence, in experiments. It is counted in
// canonical order, so serial, --jobs N, daemon and one-shot runs flush
// (and can be killed) at the same byte offsets.
inline constexpr std::size_t kCommitEveryExperiments = 32;

// Open the campaign database in `dir`, or create it there when `dir`
// holds none: the new database's first commit is the GOOFI schema. A
// first life killed between creating the directory and that commit
// recovers to an empty database; the schema commit is redone then,
// with the same records in the same order, so the log stays on the
// trajectory of an uninterrupted run.
Result<db::Database> OpenOrCreate(const std::string& dir);

// Register `config`'s target and store the campaign, then commit both,
// unless a campaign of that name is already stored. The commit lands
// before the first experiment, so a run drained before its first
// cadence commit still leaves a campaign to resume. Returns whether the
// campaign was already stored (the caller resumes it then).
Result<bool> StoreCampaignOnce(db::Database& database,
                               const CampaignConfig& config);

}  // namespace goofi::core
