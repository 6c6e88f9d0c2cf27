// Fixed-seed mutation sweep over the campaign ini parser. Every shipped
// campaigns/*.ini is mutated in its keys, its values and its line
// structure; for every mutant the parser and goofi-lint must agree:
//   - nothing crashes (CI runs this under ASan/UBSan);
//   - a rejection is a typed Status with a message;
//   - if ParseCampaignText rejects the text, lint reports an error;
//   - if lint reports a missing-key, unknown-value or bad-value error,
//     ParseCampaignText rejects the text.
// Deployment inis ([service] only) get the same contract against
// the daemon's ServiceCount reads.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "target/thor_rd_target.h"
#include "util/rng.h"
#include "util/strings.h"

namespace goofi::core {
namespace {

using analysis::LintDiagnostic;

std::map<std::string, std::string> LoadShippedInis() {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(GOOFI_CAMPAIGNS_DIR)) {
    if (entry.path().extension() != ".ini") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  return files;
}

// Values at the edges of every key type, and names one letter off.
constexpr const char* kValues[] = {
    "",         "0",           "1",          "-1",
    "3x",       "4294967295",  "4294967296", "-9223372036854775808",
    "0x10",     "9223372036854775808",       "yes",
    "ture",     "off",         "equivalence", "equivalnce",
    "instret",  "instrett",    "detail",     "scifi",
    "swifi_pre_runtime",       "permanent",  "cache_data_bit",
    "cpu.regs.*", "a|b",       "isort",      "nosuch"};

const char* Pick(Rng& rng, const auto& options) {
  return options[rng.NextBelow(std::size(options))];
}

std::string RandomKey(Rng& rng) {
  const std::vector<std::string>& keys = CampaignIniKeys();
  return keys[rng.NextBelow(keys.size())];
}

// One structural, key or value mutation of `lines`. `headers` are the
// section lines a mutation may insert.
void Mutate(Rng& rng, std::vector<std::string>& lines,
            const std::vector<std::string>& headers) {
  const std::size_t at = rng.NextBelow(lines.size() + 1);
  std::string* line = at < lines.size() ? &lines[at] : nullptr;
  const std::size_t eq =
      line == nullptr ? std::string::npos : line->find('=');
  switch (rng.NextBelow(8)) {
    case 0:  // a new value
      if (eq != std::string::npos) {
        *line = line->substr(0, eq + 1) + " " + Pick(rng, kValues);
      }
      break;
    case 1:  // another key, the same value
      if (eq != std::string::npos) {
        *line = RandomKey(rng) + (rng.NextBool() ? "[] " : " ") +
                line->substr(eq);
      }
      break;
    case 2:  // a key with a one-character typo
      if (eq != std::string::npos && eq > 1) {
        (*line)[rng.NextBelow(eq - 1)] =
            static_cast<char>('a' + rng.NextBelow(26));
      }
      break;
    case 3:  // drop a line
      if (line != nullptr) lines.erase(lines.begin() + std::ptrdiff_t(at));
      break;
    case 4:  // repeat a line
      if (line != nullptr) {
        lines.insert(lines.begin() + std::ptrdiff_t(at), std::string(*line));
      }
      break;
    case 5:  // swap two lines
      if (line != nullptr) {
        std::swap(*line, lines[rng.NextBelow(lines.size())]);
      }
      break;
    case 6: {  // insert a line
      const std::string inserted[] = {
          RandomKey(rng) + " = " + Pick(rng, kValues),
          headers[rng.NextBelow(headers.size())],
          "junk without an equals sign",
          "= orphan value",
          "[",
          "location[] = " + std::string(Pick(rng, kValues))};
      lines.insert(lines.begin() + std::ptrdiff_t(at),
                   inserted[rng.NextBelow(std::size(inserted))]);
      break;
    }
    default:  // a random byte
      if (line != nullptr) {
        const char byte = static_cast<char>(rng.NextBelow(256));
        const std::size_t where = rng.NextBelow(line->size() + 1);
        if (where < line->size() && rng.NextBool()) {
          (*line)[where] = byte;
        } else {
          line->insert(where, 1, byte);
        }
      }
  }
}

bool HasValueError(const std::vector<LintDiagnostic>& diagnostics) {
  for (const LintDiagnostic& diagnostic : diagnostics) {
    if (diagnostic.severity == LintDiagnostic::Severity::kError &&
        (diagnostic.check == "missing-key" ||
         diagnostic.check == "unknown-value" ||
         diagnostic.check == "bad-value")) {
      return true;
    }
  }
  return false;
}

void ExpectTyped(const Status& status, const std::string& mutant) {
  EXPECT_NE(status.code(), ErrorCode::kOk) << mutant;
  EXPECT_NE(status.code(), ErrorCode::kInternal) << mutant;
  EXPECT_FALSE(status.message().empty()) << mutant;
}

// The deployment-ini reads the daemon boots from, or the first rejection.
Status ParseServiceText(const std::string& text) {
  ASSIGN_OR_RETURN(const Config file, Config::Parse(text));
  const ConfigSection* section = file.FindSection("service");
  if (section == nullptr) return InvalidArgumentError("no [service]");
  for (const char* key :
       {"fleet_workers", "queue_limit", "max_campaign_jobs"}) {
    RETURN_IF_ERROR(ServiceCount(*section, key, 1).status());
  }
  return Status::Ok();
}

class CampaignIniFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CampaignIniFuzz, ParserAndLintAgreeOnEveryMutant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0xA24BAED4963EE407ULL +
          0x9FB21C651E98DF25ULL);
  const std::map<std::string, std::string> files = LoadShippedInis();
  ASSERT_GE(files.size(), 8u);
  target::ThorRdTarget thor;
  const auto locations = thor.ListLocations();
  constexpr int kMutantsPerFile = 100;
  for (const auto& [name, text] : files) {
    // Deployment inis stay deployment inis: inserting a [campaign]
    // header would make them campaign files with a service section.
    const bool campaign = text.find("[campaign]") != std::string::npos;
    const std::vector<std::string> headers =
        campaign ? std::vector<std::string>{"[campaign]", "[other]"}
                 : std::vector<std::string>{"[service]", "[other]"};
    for (int i = 0; i < kMutantsPerFile; ++i) {
      std::vector<std::string> lines = SplitString(text, '\n');
      const std::size_t damage = 1 + rng.NextBelow(3);
      for (std::size_t d = 0; d < damage; ++d) Mutate(rng, lines, headers);
      const std::string mutant = JoinStrings(lines, "\n");
      const auto diagnostics = LintCampaignText(name, mutant, &locations);
      const Status parsed = campaign ? ParseCampaignText(mutant).status()
                                     : ParseServiceText(mutant);
      if (!parsed.ok()) {
        ExpectTyped(parsed, mutant);
        EXPECT_TRUE(analysis::HasErrors(diagnostics))
            << "rejected (" << parsed.ToString()
            << ") but lint-clean:\n"
            << mutant;
      }
      if (HasValueError(diagnostics)) {
        EXPECT_FALSE(parsed.ok())
            << "lint reports a value error the parser accepts:\n"
            << mutant;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CampaignIniFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace goofi::core
