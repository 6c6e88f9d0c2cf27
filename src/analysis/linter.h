// goofi-lint: static checks for workload assembly and .workload specs,
// with file:line diagnostics suitable for CI (examples/goofi_lint.cpp
// is the command-line front-end). The campaign and deployment ini
// checks live in core/campaign.h, next to the campaign key table
// they walk, and report through the same LintDiagnostic.
//
// The code-level checks reuse the analysis subsystem's CFG/dataflow
// results, so a lint clean bill of health means "every reachable
// instruction is accounted for".
#pragma once

#include <string>
#include <vector>

#include "util/status.h"

namespace goofi::analysis {

struct LintDiagnostic {
  enum class Severity { kWarning, kError };
  Severity severity = Severity::kError;
  std::string file;
  int line = 0;       // 1-based; 0 = whole-file diagnostic
  std::string check;  // stable identifier, e.g. "unreachable-code"
  std::string message;
};

// "file:line: error: message [check]" (line elided when 0).
std::string FormatDiagnostic(const LintDiagnostic& diagnostic);

// The whole batch as one JSON array, one object per diagnostic:
//   [{"file": ..., "line": N, "check": ..., "severity": "error"|"warning",
//     "message": ...}, ...]
// Stable key order, newline after every element, strings escaped; an
// empty batch prints as "[]". For `goofi_lint --format=json` and any
// other machine consumer.
std::string FormatDiagnosticsJson(
    const std::vector<LintDiagnostic>& diagnostics);

// Drops repeats of the same (file, line, check) triple, keeping the
// first occurrence (and its severity/message) and the original order.
// Several checks walk per-instruction state and can report one root
// cause many times; exit codes and CI counts should see it once.
std::vector<LintDiagnostic> DeduplicateDiagnostics(
    std::vector<LintDiagnostic> diagnostics);

bool HasErrors(const std::vector<LintDiagnostic>& diagnostics);

// ---- ini helpers ------------------------------------------------------
// The 1-based line of a "line %d: message" diagnostic (the assembler's
// and the ini parser's form), stripping the prefix; 0 when absent.
int ExtractLineNumber(std::string* message);
// First (with `last`, last) 1-based line whose (trimmed) content
// assigns `key` (or `key[]`); 0 when not found. A scalar key's value is
// its last assignment's.
int LineOfKey(const std::string& text, const std::string& key,
              bool last = false);

// ---- GOOFI-32 assembly sources ----------------------------------------
// Checks: assembly/label errors (the assembler's own diagnostics,
// re-anchored to file:line), entry decodability, unreachable code,
// control flow running off the image, writes to r0, reads of
// never-written registers, and statically-resolvable memory accesses
// against the board memory map (target/io_map.h).
std::vector<LintDiagnostic> LintWorkloadSource(const std::string& file,
                                               const std::string& source);

// ---- .workload spec files ---------------------------------------------
// Spec-level checks (missing keys, output region vs the memory map,
// unknown environment model) plus LintWorkloadSource over the assembly
// file it references. `file` must be a readable path.
std::vector<LintDiagnostic> LintWorkloadSpecFile(const std::string& file);

}  // namespace goofi::analysis
