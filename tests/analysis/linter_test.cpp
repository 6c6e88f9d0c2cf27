#include "analysis/linter.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "target/cache_target.h"
#include "target/thor_rd_target.h"

namespace goofi::analysis {
namespace {

using Severity = LintDiagnostic::Severity;

const LintDiagnostic* Find(const std::vector<LintDiagnostic>& diagnostics,
                           const std::string& check) {
  for (const LintDiagnostic& diagnostic : diagnostics) {
    if (diagnostic.check == check) return &diagnostic;
  }
  return nullptr;
}

std::string WriteTempFile(const std::string& name,
                          const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return path;
}

TEST(LintFormatTest, FormatsFileLineSeverityAndCheck) {
  const LintDiagnostic with_line{Severity::kError, "w.s", 7, "asm-error",
                                 "boom"};
  EXPECT_EQ(FormatDiagnostic(with_line), "w.s:7: error: boom [asm-error]");
  const LintDiagnostic whole_file{Severity::kWarning, "w.s", 0,
                                  "unreachable-code", "dead"};
  EXPECT_EQ(FormatDiagnostic(whole_file),
            "w.s: warning: dead [unreachable-code]");
}

TEST(LintFormatTest, HasErrorsIgnoresWarnings) {
  EXPECT_FALSE(HasErrors({}));
  EXPECT_FALSE(
      HasErrors({{Severity::kWarning, "f", 1, "unreachable-code", "m"}}));
  EXPECT_TRUE(HasErrors({{Severity::kWarning, "f", 1, "c", "m"},
                         {Severity::kError, "f", 2, "c", "m"}}));
}

// ---- assembly-source checks -------------------------------------------

TEST(LintSourceTest, CleanProgramHasNoDiagnostics) {
  const auto diagnostics = LintWorkloadSource("w.s", R"(.entry start
start:
  li r1, 3
  la r6, 0x10000
  call double
  st r1, [r6]
  halt
double:
  add r1, r1, r1
  ret
)");
  EXPECT_TRUE(diagnostics.empty())
      << FormatDiagnostic(diagnostics.front());
}

TEST(LintSourceTest, AsmErrorIsAnchoredToItsLine) {
  const auto diagnostics = LintWorkloadSource("w.s", R"(.entry start
start:
  frobnicate r1
)");
  const LintDiagnostic* found = Find(diagnostics, "asm-error");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
  EXPECT_EQ(found->line, 3);
  EXPECT_NE(found->message.find("frobnicate"), std::string::npos);
}

TEST(LintSourceTest, BadEntryIsAnError) {
  const auto diagnostics = LintWorkloadSource("w.s", R"(.entry end
start:
  halt
end:
)");
  const LintDiagnostic* found = Find(diagnostics, "bad-entry");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
  EXPECT_EQ(found->line, 0);
}

TEST(LintSourceTest, UnreachableCodeWarnsAtTheDeadLine) {
  const auto diagnostics = LintWorkloadSource("w.s", R"(.entry start
start:
  b done
  li r9, 1
done:
  halt
)");
  const LintDiagnostic* found = Find(diagnostics, "unreachable-code");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kWarning);
  EXPECT_EQ(found->line, 4);
  EXPECT_NE(found->message.find("1 instruction"), std::string::npos);
}

TEST(LintSourceTest, WriteToR0Warns) {
  const auto diagnostics = LintWorkloadSource("w.s", R"(.entry start
start:
  li r1, 1
  add r0, r1, r1
  halt
)");
  const LintDiagnostic* found = Find(diagnostics, "write-to-r0");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kWarning);
  EXPECT_EQ(found->line, 4);
}

TEST(LintSourceTest, LinkDiscardingJumpsDoNotWarnAboutR0) {
  // `ret` is jalr with ra = r0 — discarding the link is idiom.
  const auto diagnostics = LintWorkloadSource("w.s", R"(.entry start
start:
  call leaf
  halt
leaf:
  ret
)");
  EXPECT_EQ(Find(diagnostics, "write-to-r0"), nullptr);
}

TEST(LintSourceTest, FallingOffTheImageIsAnError) {
  const auto diagnostics = LintWorkloadSource("w.s", R"(.entry start
start:
  li r1, 1
)");
  const LintDiagnostic* found = Find(diagnostics, "falls-off-image");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
  EXPECT_EQ(found->line, 3);
}

TEST(LintSourceTest, MaybeUninitReadWarns) {
  const auto diagnostics = LintWorkloadSource("w.s", R"(.entry start
start:
  add r2, r1, r1
  halt
)");
  const LintDiagnostic* found = Find(diagnostics, "maybe-uninit-read");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kWarning);
  EXPECT_EQ(found->line, 3);
  EXPECT_NE(found->message.find("r1"), std::string::npos);
}

TEST(LintSourceTest, UnmappedAddressIsAnError) {
  const auto diagnostics = LintWorkloadSource("w.s", R"(.entry start
start:
  la r6, 0x50000
  st r0, [r6]
  halt
)");
  const LintDiagnostic* found = Find(diagnostics, "unmapped-address");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
  EXPECT_EQ(found->line, 4);
  EXPECT_NE(found->message.find("0x00050000"), std::string::npos);
}

TEST(LintSourceTest, StoreToCodeSegmentWarns) {
  const auto diagnostics = LintWorkloadSource("w.s", R"(.entry start
start:
  la r6, 0x100
  st r0, [r6]
  halt
)");
  const LintDiagnostic* found = Find(diagnostics, "store-to-code");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kWarning);
  EXPECT_EQ(found->line, 4);
}

// ---- .workload spec files ---------------------------------------------

TEST(LintSpecTest, MissingFileIsAnIoError) {
  const auto diagnostics =
      LintWorkloadSpecFile("/nonexistent/dir/x.workload");
  const LintDiagnostic* found = Find(diagnostics, "io-error");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
}

TEST(LintSpecTest, MissingWorkloadSectionIsAnError) {
  const std::string path =
      WriteTempFile("lint_nosection.workload", "[other]\nname = x\n");
  EXPECT_NE(Find(LintWorkloadSpecFile(path), "missing-section"), nullptr);
}

TEST(LintSpecTest, CleanSpecHasNoDiagnostics) {
  WriteTempFile("lint_clean.s", ".entry start\nstart:\n  halt\n");
  const std::string path = WriteTempFile("lint_clean.workload",
                                         "[workload]\n"
                                         "name = demo\n"
                                         "assembly_file = lint_clean.s\n"
                                         "output_base = 0x10000\n"
                                         "output_length = 16\n"
                                         "environment = engine\n");
  const auto diagnostics = LintWorkloadSpecFile(path);
  EXPECT_TRUE(diagnostics.empty())
      << FormatDiagnostic(diagnostics.front());
}

TEST(LintSpecTest, ReportsSpecLevelProblemsWithLines) {
  WriteTempFile("lint_bad.s", ".entry start\nstart:\n  halt\n");
  const std::string path = WriteTempFile(
      "lint_bad.workload",
      "[workload]\n"               // line 1
      "name = demo\n"              // line 2
      "assembly_file = lint_bad.s\n"
      "output_base = 0x1fffc\n"    // line 4: region crosses data->stack
      "output_length = 16\n"
      "environment = marsrover\n"  // line 6
      "frobs = 3\n");              // line 7
  const auto diagnostics = LintWorkloadSpecFile(path);

  const LintDiagnostic* range = Find(diagnostics, "output-range");
  ASSERT_NE(range, nullptr);
  EXPECT_EQ(range->severity, Severity::kError);
  EXPECT_EQ(range->line, 4);

  const LintDiagnostic* environment =
      Find(diagnostics, "unknown-environment");
  ASSERT_NE(environment, nullptr);
  EXPECT_EQ(environment->line, 6);

  const LintDiagnostic* unknown = Find(diagnostics, "unknown-key");
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->severity, Severity::kWarning);
  EXPECT_EQ(unknown->line, 7);
}

TEST(LintSpecTest, MissingNameAndAssemblyFileAreErrors) {
  const std::string path =
      WriteTempFile("lint_empty.workload", "[workload]\n");
  const auto diagnostics = LintWorkloadSpecFile(path);
  int missing = 0;
  for (const LintDiagnostic& diagnostic : diagnostics) {
    if (diagnostic.check == "missing-key") ++missing;
  }
  EXPECT_EQ(missing, 2);  // no name, no assembly_file
}

TEST(LintSpecTest, UnreadableAssemblyFileIsAnIoError) {
  const std::string path = WriteTempFile("lint_noasm.workload",
                                         "[workload]\n"
                                         "name = demo\n"
                                         "assembly_file = missing_xyz.s\n");
  const std::vector<LintDiagnostic> diagnostics = LintWorkloadSpecFile(path);
  const LintDiagnostic* found = Find(diagnostics, "io-error");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->line, 3);
}

// ---- campaign definitions ---------------------------------------------

std::vector<LintDiagnostic> LintCampaign(const std::string& text) {
  return LintCampaignText("c.ini", text, nullptr);
}

constexpr const char* kCleanCampaign =
    "[campaign]\n"
    "name = demo\n"
    "workload = isort\n"
    "technique = scifi\n"
    "fault_model = transient\n"
    "experiments = 10\n";

TEST(LintCampaignTest, CleanCampaignHasNoDiagnostics) {
  const auto diagnostics = LintCampaign(kCleanCampaign);
  EXPECT_TRUE(diagnostics.empty())
      << FormatDiagnostic(diagnostics.front());
}

TEST(LintCampaignTest, IniParseErrorIsAnchored) {
  const auto diagnostics = LintCampaign("[campaign]\nbogus line\n");
  const LintDiagnostic* found = Find(diagnostics, "ini-error");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
  EXPECT_EQ(found->line, 2);
}

TEST(LintCampaignTest, MissingCampaignSectionIsAnError) {
  EXPECT_NE(Find(LintCampaign("[other]\nname = x\n"), "missing-section"),
            nullptr);
}

TEST(LintCampaignTest, UnknownKeyWarns) {
  const auto diagnostics =
      LintCampaign(std::string(kCleanCampaign) + "frobnicate = 1\n");
  const LintDiagnostic* found = Find(diagnostics, "unknown-key");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kWarning);
  EXPECT_EQ(found->line, 7);
}

TEST(LintCampaignTest, MissingNameAndWorkloadAreErrors) {
  const auto diagnostics = LintCampaign("[campaign]\n");
  int missing = 0;
  for (const LintDiagnostic& diagnostic : diagnostics) {
    if (diagnostic.check == "missing-key") ++missing;
  }
  EXPECT_EQ(missing, 2);
}

TEST(LintCampaignTest, UnknownEnumValuesAreErrors) {
  const auto diagnostics = LintCampaign(
      "[campaign]\n"
      "name = demo\n"
      "workload = isort\n"
      "technique = warp\n"      // line 4
      "fault_model = cosmic\n"  // line 5
      "logging = chatty\n"      // line 6
      "trigger = moonphase\n"); // line 7
  int line = 4;
  for (const char* key : {"technique", "fault_model", "logging", "trigger"}) {
    (void)key;
    bool found = false;
    for (const LintDiagnostic& diagnostic : diagnostics) {
      found = found || (diagnostic.check == "unknown-value" &&
                        diagnostic.line == line &&
                        diagnostic.severity == Severity::kError);
    }
    EXPECT_TRUE(found) << "no unknown-value diagnostic at line " << line;
    ++line;
  }
}

TEST(LintCampaignTest, UnknownWorkloadListsTheBuiltins) {
  const auto diagnostics = LintCampaign(
      "[campaign]\n"
      "name = demo\n"
      "workload = nosuch\n");
  const LintDiagnostic* found = Find(diagnostics, "unknown-workload");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
  EXPECT_EQ(found->line, 3);
  EXPECT_NE(found->message.find("isort"), std::string::npos);
}

TEST(LintCampaignTest, BadNumericValues) {
  const auto diagnostics = LintCampaign(std::string(kCleanCampaign) +
                                        "multiplicity = 0\n"
                                        "time_window_lo = 9\n"
                                        "time_window_hi = 3\n");
  int bad = 0;
  for (const LintDiagnostic& diagnostic : diagnostics) {
    if (diagnostic.check == "bad-value") ++bad;
  }
  EXPECT_EQ(bad, 2);  // multiplicity and the empty window
}

TEST(LintCampaignTest, ZeroExperimentsOnlyWarns) {
  const auto diagnostics = LintCampaign(
      "[campaign]\n"
      "name = demo\n"
      "workload = isort\n"
      "experiments = 0\n");
  const LintDiagnostic* found = Find(diagnostics, "bad-value");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kWarning);
  EXPECT_FALSE(HasErrors(diagnostics));
}

TEST(LintCampaignTest, IgnoredKeysForMismatchedFaultModel) {
  const auto diagnostics = LintCampaign(std::string(kCleanCampaign) +
                                        "intermittent_period = 5\n"
                                        "stuck_to_one = yes\n");
  int ignored = 0;
  for (const LintDiagnostic& diagnostic : diagnostics) {
    if (diagnostic.check == "ignored-key") {
      ++ignored;
      EXPECT_EQ(diagnostic.severity, Severity::kWarning);
    }
  }
  EXPECT_EQ(ignored, 2);
}

TEST(LintCampaignTest, PreRuntimeSwifiIgnoresTriggerAndStaticAnalysis) {
  const auto diagnostics = LintCampaign(
      "[campaign]\n"
      "name = demo\n"
      "workload = qsort\n"
      "technique = swifi_pre_runtime\n"
      "trigger = instret\n"
      "static_analysis = yes\n");
  int ignored = 0;
  for (const LintDiagnostic& diagnostic : diagnostics) {
    if (diagnostic.check == "ignored-key") ++ignored;
  }
  EXPECT_EQ(ignored, 2);
}

TEST(LintCampaignTest, SupervisionKeysAreKnownAndCleanTogether) {
  const auto diagnostics = LintCampaign(std::string(kCleanCampaign) +
                                        "experiment_timeout_ms = 2000\n"
                                        "max_retries = 2\n"
                                        "retry_backoff_ms = 10\n"
                                        "jobs = 4\n");
  EXPECT_TRUE(diagnostics.empty())
      << FormatDiagnostic(diagnostics.front());
}

TEST(LintCampaignTest, RetriesWithoutATimeoutWarn) {
  // max_retries without experiment_timeout_ms: retries only fire on
  // returned errors, so a wedged target still stalls the campaign for
  // the full derived deadline. Flag the half-configured supervisor.
  const auto diagnostics =
      LintCampaign(std::string(kCleanCampaign) + "max_retries = 2\n");
  const LintDiagnostic* found = Find(diagnostics, "retry-without-timeout");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kWarning);
  EXPECT_EQ(found->line, 7);
}

TEST(LintCampaignTest, BackoffWithoutRetriesIsIgnored) {
  const auto diagnostics = LintCampaign(std::string(kCleanCampaign) +
                                        "experiment_timeout_ms = 2000\n"
                                        "retry_backoff_ms = 10\n");
  const LintDiagnostic* found = Find(diagnostics, "ignored-key");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kWarning);
  EXPECT_NE(found->message.find("retry_backoff_ms"), std::string::npos);
}

TEST(LintCampaignTest, LocationFilterMatchingNothingIsAnError) {
  target::ThorRdTarget thor;
  const auto locations = thor.ListLocations();
  const auto diagnostics = LintCampaignText(
      "c.ini", std::string(kCleanCampaign) + "location[] = nonexistent.*\n",
      &locations);
  const LintDiagnostic* found =
      Find(diagnostics, "filter-matches-nothing");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
  EXPECT_EQ(found->line, 7);
  EXPECT_NE(found->message.find("scifi"), std::string::npos);

  // A filter the technique can actually reach passes.
  const auto clean = LintCampaignText(
      "c.ini", std::string(kCleanCampaign) + "location[] = cpu.regs.*\n",
      &locations);
  EXPECT_EQ(Find(clean, "filter-matches-nothing"), nullptr);
}

TEST(LintCampaignTest, CacheFaultModelNamesAreKnownValues) {
  // The access-path fault models share the fault_model key; naming one
  // must not trip unknown-value (geometry checks need locations, so a
  // location-less lint stays quiet about them).
  const auto diagnostics = LintCampaign(
      "[campaign]\n"
      "name = demo\n"
      "workload = isort\n"
      "technique = scifi\n"
      "fault_model = cache_data_bit\n"
      "experiments = 10\n");
  EXPECT_EQ(Find(diagnostics, "unknown-value"), nullptr);
  EXPECT_EQ(Find(diagnostics, "cache-model-without-geometry"), nullptr);
}

TEST(LintCampaignTest, CacheModelWithoutGeometryIsAnError) {
  // A cache fault model against a board with no cache coordinates (the
  // scan-chain-only thor_rd) selects an empty fault space.
  target::ThorRdTarget thor;
  const auto thor_locations = thor.ListLocations();
  const std::string text =
      "[campaign]\n"
      "name = demo\n"
      "workload = isort\n"
      "technique = scifi\n"
      "fault_model = inflight_load_bit\n"  // line 5
      "experiments = 10\n";
  const auto diagnostics = LintCampaignText("c.ini", text, &thor_locations);
  const LintDiagnostic* found =
      Find(diagnostics, "cache-model-without-geometry");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
  EXPECT_EQ(found->line, 5);
  EXPECT_NE(found->message.find("cache_hierarchy"), std::string::npos);

  // The same campaign against the cache board is clean.
  target::CacheHierarchyTarget cache_target;
  const auto cache_locations = cache_target.ListLocations();
  const auto clean = LintCampaignText("c.ini", text, &cache_locations);
  EXPECT_EQ(Find(clean, "cache-model-without-geometry"), nullptr);
}

TEST(LintCampaignTest, CacheCoordinateOutOfRangeIsDiagnosed) {
  // A syntactically valid coordinate past the advertised geometry is
  // reported as out-of-range (with the real maxima), not as a generic
  // unmatched filter.
  target::CacheHierarchyTarget cache_target;
  const auto locations = cache_target.ListLocations();
  const auto diagnostics = LintCampaignText(
      "c.ini",
      std::string(kCleanCampaign) +
          "location[] = dcache.set99.word0.data\n",
      &locations);
  const LintDiagnostic* found = Find(diagnostics, "coordinate-out-of-range");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
  EXPECT_EQ(found->line, 7);
  EXPECT_NE(found->message.find("set15"), std::string::npos);
  EXPECT_EQ(Find(diagnostics, "filter-matches-nothing"), nullptr);

  // An in-range coordinate passes; a non-coordinate filter still gets
  // the generic diagnostic.
  const auto clean = LintCampaignText(
      "c.ini",
      std::string(kCleanCampaign) + "location[] = dcache.set15.word3.data\n",
      &locations);
  EXPECT_EQ(Find(clean, "coordinate-out-of-range"), nullptr);
  EXPECT_EQ(Find(clean, "filter-matches-nothing"), nullptr);
  const auto generic = LintCampaignText(
      "c.ini", std::string(kCleanCampaign) + "location[] = nonexistent.*\n",
      &locations);
  EXPECT_NE(Find(generic, "filter-matches-nothing"), nullptr);
}

TEST(LintCampaignTest, CacheCampaignIniIsClean) {
  // The shipped cache campaign must lint clean against the board it
  // names (goofi_lint resolves locations per campaign target).
  target::CacheHierarchyTarget cache_target;
  const auto locations = cache_target.ListLocations();
  const std::string path =
      std::string(GOOFI_CAMPAIGNS_DIR "/regs_cache_parity.ini");
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto diagnostics = LintCampaignText(path, text, &locations);
  EXPECT_TRUE(diagnostics.empty())
      << FormatDiagnostic(diagnostics.front());
}

TEST(LintCampaignTest, RepositoryCampaignsAreClean) {
  // The campaigns shipped in campaigns/ must stay lint-clean; CI runs
  // goofi-lint over them.
  target::ThorRdTarget thor;
  const auto locations = thor.ListLocations();
  for (const char* name : {"engine_preinjection", "image_swifi",
                           "regs_scifi", "regs_scifi_supervised",
                           "regs_scifi_equivalence"}) {
    const std::string path =
        std::string(GOOFI_CAMPAIGNS_DIR "/") + name + ".ini";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto diagnostics = LintCampaignText(path, text, &locations);
    EXPECT_TRUE(diagnostics.empty())
        << FormatDiagnostic(diagnostics.front());
  }
}

// ---- machine-readable output and deduplication ------------------------

TEST(LintJsonTest, EmptyBatchIsAnEmptyArray) {
  EXPECT_EQ(FormatDiagnosticsJson({}), "[]\n");
}

TEST(LintJsonTest, EmitsOneObjectPerDiagnosticWithEscaping) {
  const std::vector<LintDiagnostic> diagnostics = {
      {Severity::kError, "dir/w.s", 7, "asm-error", "bad \"thing\""},
      {Severity::kWarning, "c.ini", 0, "ignored-key", "line1\nline2"},
  };
  EXPECT_EQ(FormatDiagnosticsJson(diagnostics),
            "[\n"
            "  {\"file\": \"dir/w.s\", \"line\": 7, \"check\": "
            "\"asm-error\", \"severity\": \"error\", \"message\": "
            "\"bad \\\"thing\\\"\"},\n"
            "  {\"file\": \"c.ini\", \"line\": 0, \"check\": "
            "\"ignored-key\", \"severity\": \"warning\", \"message\": "
            "\"line1\\nline2\"}\n"
            "]\n");
}

TEST(LintDedupTest, DropsRepeatsOfTheSameFileLineCheck) {
  const std::vector<LintDiagnostic> deduped = DeduplicateDiagnostics({
      {Severity::kWarning, "w.s", 3, "maybe-uninit-read", "r1"},
      {Severity::kWarning, "w.s", 3, "maybe-uninit-read", "r2"},
      {Severity::kWarning, "w.s", 4, "maybe-uninit-read", "r1"},
      {Severity::kError, "w.s", 3, "unmapped-address", "x"},
      {Severity::kWarning, "w.s", 3, "maybe-uninit-read", "r3"},
  });
  ASSERT_EQ(deduped.size(), 3u);
  // First occurrence wins, original order preserved.
  EXPECT_EQ(deduped[0].message, "r1");
  EXPECT_EQ(deduped[0].line, 3);
  EXPECT_EQ(deduped[1].line, 4);
  EXPECT_EQ(deduped[2].check, "unmapped-address");
}

TEST(LintDedupTest, ExitCodeRelevantErrorsSurviveDedup) {
  // A duplicated error must still be an error after dedup.
  const auto deduped = DeduplicateDiagnostics({
      {Severity::kError, "w.s", 1, "asm-error", "a"},
      {Severity::kError, "w.s", 1, "asm-error", "a"},
  });
  ASSERT_EQ(deduped.size(), 1u);
  EXPECT_TRUE(HasErrors(deduped));
}

// ---- equivalence-mode campaign checks ---------------------------------

constexpr const char* kEquivalenceCampaign =
    "[campaign]\n"
    "name = demo\n"
    "workload = isort\n"
    "technique = scifi\n"
    "fault_model = transient\n"
    "static_analysis = equivalence\n";

TEST(LintCampaignTest, EquivalenceModeIsCleanOnItsSupportedShape) {
  const auto diagnostics = LintCampaign(kEquivalenceCampaign);
  EXPECT_TRUE(diagnostics.empty())
      << FormatDiagnostic(diagnostics.front());
}

TEST(LintCampaignTest, MisspelledStaticAnalysisValueIsAnError) {
  const auto diagnostics = LintCampaign(
      "[campaign]\n"
      "name = demo\n"
      "workload = isort\n"
      "static_analysis = equivalnce\n");
  const LintDiagnostic* found = Find(diagnostics, "unknown-value");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
  EXPECT_EQ(found->line, 4);
}

TEST(LintCampaignTest, EquivalenceRejectsNonInstretTriggers) {
  const auto diagnostics = LintCampaign(
      std::string(kEquivalenceCampaign) + "trigger = branch\n");
  EXPECT_NE(Find(diagnostics, "equivalence-needs-instret"), nullptr);
}

TEST(LintCampaignTest, EquivalenceRejectsNonTransientModels) {
  const auto diagnostics = LintCampaign(
      "[campaign]\n"
      "name = demo\n"
      "workload = isort\n"
      "fault_model = permanent\n"
      "static_analysis = equivalence\n");
  EXPECT_NE(Find(diagnostics, "equivalence-needs-transient"), nullptr);
}

TEST(LintCampaignTest, EquivalenceRejectsMultiBitAndDetailLogging) {
  const auto diagnostics = LintCampaign(
      std::string(kEquivalenceCampaign) +
      "multiplicity = 2\n"
      "logging = detail\n");
  EXPECT_NE(Find(diagnostics, "equivalence-needs-single-fault"), nullptr);
  EXPECT_NE(Find(diagnostics, "equivalence-needs-normal-logging"), nullptr);
}

// ---- [service] deployment-ini checks ----------------------------------

TEST(LintServiceTest, PureServiceIniIsACompleteFile) {
  const auto diagnostics = LintCampaign(
      "[service]\n"
      "root = /var/lib/goofi\n"
      "fleet_workers = 4\n"
      "queue_limit = 16\n"
      "max_campaign_jobs = 2\n");
  EXPECT_TRUE(diagnostics.empty()) << FormatDiagnostic(diagnostics.front());
}

TEST(LintServiceTest, NonPositiveFleetAndQueueAreErrors) {
  const auto diagnostics = LintCampaign(
      "[service]\n"
      "fleet_workers = 0\n"
      "queue_limit = -1\n");
  const LintDiagnostic* fleet = Find(diagnostics, "bad-value");
  ASSERT_NE(fleet, nullptr);
  EXPECT_EQ(fleet->severity, Severity::kError);
  EXPECT_EQ(fleet->line, 2);
  std::size_t bad_values = 0;
  for (const LintDiagnostic& diagnostic : diagnostics) {
    if (diagnostic.check == "bad-value") ++bad_values;
  }
  EXPECT_EQ(bad_values, 2u);
}

TEST(LintServiceTest, MaxJobsBeyondTheFleetIsAnError) {
  const auto diagnostics = LintCampaign(
      "[service]\n"
      "fleet_workers = 2\n"
      "max_campaign_jobs = 8\n");
  const LintDiagnostic* found = Find(diagnostics, "jobs-exceed-fleet");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kError);
  EXPECT_EQ(found->line, 3);
  EXPECT_NE(found->message.find("8"), std::string::npos);
  EXPECT_NE(found->message.find("2"), std::string::npos);
}

TEST(LintServiceTest, UnknownServiceKeyWarns) {
  const auto diagnostics = LintCampaign(
      "[service]\n"
      "fleet_wrokers = 4\n");
  const LintDiagnostic* found = Find(diagnostics, "unknown-key");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->severity, Severity::kWarning);
  EXPECT_EQ(found->line, 2);
}

TEST(LintServiceTest, ServiceSectionComposesWithACampaignSection) {
  // A deployment ini may carry a default campaign next to the daemon
  // settings; both sections get their own checks.
  const auto diagnostics = LintCampaign(
      "[service]\n"
      "fleet_workers = 0\n"
      "[campaign]\n"
      "name = demo\n"
      "workload = nosuch\n");
  EXPECT_NE(Find(diagnostics, "bad-value"), nullptr);
  EXPECT_NE(Find(diagnostics, "unknown-workload"), nullptr);
}

}  // namespace
}  // namespace goofi::analysis
