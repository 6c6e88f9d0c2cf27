// goofi-lint: static checks for workloads and campaign definitions.
//
//   goofi_lint [--strict] [--format=text|json] FILE...
//
// FILE kinds are inferred from the extension:
//   *.workload     .workload spec (checks the spec and its assembly)
//   *.ini          campaign definition
//   anything else  GOOFI-32 assembly source
//
// Diagnostics print as "file:line: severity: message [check]";
// --format=json emits them to stdout as a JSON array of
// {file, line, check, severity, message} objects instead. Repeats of
// the same (file, line, check) are reported once. Exit status is 1
// when any error was reported (with --strict, when anything at all was
// reported) — wire it straight into CI.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/linter.h"
#include "core/campaign.h"
#include "target/factory.h"
#include "util/config.h"

namespace {

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

// Campaign location filters are checked against the board the campaign
// actually names with its `target` key (thor_rd when the key is absent
// or names no builtin — the location checks then still catch the
// legacy-board mistakes, and the unknown target itself is the runner's
// error to report).
class LocationInventory {
 public:
  const std::vector<goofi::target::TargetSystemInterface::LocationInfo>*
  ForCampaignText(const std::string& ini_text) {
    std::string name = "thor_rd";
    const auto parsed = goofi::Config::Parse(ini_text);
    if (parsed.ok()) {
      const goofi::ConfigSection* section = parsed->FindSection("campaign");
      if (section != nullptr) name = section->GetStringOr("target", name);
    }
    if (!goofi::target::BuiltinTargetFactory(name).ok()) name = "thor_rd";
    auto it = cache_.find(name);
    if (it == cache_.end()) {
      auto factory = goofi::target::BuiltinTargetFactory(name);
      auto target = (*factory)();
      if (!target.ok()) return nullptr;
      it = cache_.emplace(name, (*target)->ListLocations()).first;
    }
    return &it->second;
  }

 private:
  std::map<std::string,
           std::vector<goofi::target::TargetSystemInterface::LocationInfo>>
      cache_;
};

}  // namespace

int main(int argc, char** argv) {
  using goofi::analysis::LintDiagnostic;
  bool strict = false;
  bool json = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--format=json") {
      json = true;
    } else if (arg == "--format=text") {
      json = false;
    } else if (arg.rfind("--format", 0) == 0) {
      std::fprintf(stderr, "goofi_lint: unknown format '%s'\n", arg.c_str());
      return 2;
    } else if (arg == "--help" || arg == "-h") {
      std::puts("usage: goofi_lint [--strict] [--format=text|json] FILE...");
      return 0;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fputs("usage: goofi_lint [--strict] [--format=text|json] FILE...\n",
               stderr);
    return 2;
  }

  LocationInventory inventory;
  std::vector<LintDiagnostic> diagnostics;
  for (const std::string& file : files) {
    if (EndsWith(file, ".workload")) {
      const auto found = goofi::analysis::LintWorkloadSpecFile(file);
      diagnostics.insert(diagnostics.end(), found.begin(), found.end());
      continue;
    }
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      diagnostics.push_back({LintDiagnostic::Severity::kError, file, 0,
                             "io-error", "cannot read file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::vector<LintDiagnostic> found =
        EndsWith(file, ".ini")
            ? goofi::core::LintCampaignText(
                  file, buffer.str(),
                  inventory.ForCampaignText(buffer.str()))
            : goofi::analysis::LintWorkloadSource(file, buffer.str());
    diagnostics.insert(diagnostics.end(), found.begin(), found.end());
  }

  diagnostics =
      goofi::analysis::DeduplicateDiagnostics(std::move(diagnostics));
  if (json) {
    std::fputs(goofi::analysis::FormatDiagnosticsJson(diagnostics).c_str(),
               stdout);
  } else {
    for (const LintDiagnostic& diagnostic : diagnostics) {
      std::fprintf(stderr, "%s\n",
                   goofi::analysis::FormatDiagnostic(diagnostic).c_str());
    }
    if (!diagnostics.empty()) {
      std::fprintf(stderr, "goofi-lint: %zu diagnostic%s\n",
                   diagnostics.size(), diagnostics.size() == 1 ? "" : "s");
    }
  }
  const bool failed =
      goofi::analysis::HasErrors(diagnostics) ||
      (strict && !diagnostics.empty());
  return failed ? 1 : 0;
}
