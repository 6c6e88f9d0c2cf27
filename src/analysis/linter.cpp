#include "analysis/linter.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/static_liveness.h"
#include "sim/assembler.h"
#include "target/environment.h"
#include "target/io_map.h"
#include "target/workloads.h"
#include "util/config.h"
#include "util/strings.h"

namespace goofi::analysis {
namespace {

using sim::Opcode;
using Severity = LintDiagnostic::Severity;

}  // namespace

// The assembler prefixes its diagnostics with "line %d: "; pull the
// number out so the linter can re-anchor them to file:line.
int ExtractLineNumber(std::string* message) {
  constexpr const char* kPrefix = "line ";
  if (!StartsWith(*message, kPrefix)) return 0;
  std::size_t pos = std::strlen(kPrefix);
  int line = 0;
  while (pos < message->size() && (*message)[pos] >= '0' &&
         (*message)[pos] <= '9') {
    line = line * 10 + ((*message)[pos] - '0');
    ++pos;
  }
  if (line == 0 || pos >= message->size() || (*message)[pos] != ':') {
    return 0;
  }
  ++pos;
  while (pos < message->size() && (*message)[pos] == ' ') ++pos;
  *message = message->substr(pos);
  return line;
}

int LineOfKey(const std::string& text, const std::string& key, bool last) {
  std::istringstream stream(text);
  std::string line;
  int number = 0;
  int found = 0;
  while (std::getline(stream, line)) {
    ++number;
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    if (line.compare(start, key.size(), key) != 0) continue;
    std::size_t after = start + key.size();
    if (after + 1 < line.size() && line[after] == '[' &&
        line[after + 1] == ']') {
      after += 2;
    }
    while (after < line.size() && (line[after] == ' ' || line[after] == '\t')) {
      ++after;
    }
    if (after < line.size() && line[after] == '=') {
      found = number;
      if (!last) break;
    }
  }
  return found;
}

namespace {

void Add(std::vector<LintDiagnostic>* out, Severity severity,
         const std::string& file, int line, const std::string& check,
         std::string message) {
  out->push_back({severity, file, line, check, std::move(message)});
}

struct Segment {
  std::uint32_t base;
  std::uint32_t size;
  const char* name;
};
constexpr Segment kSegments[] = {
    {target::kCodeBase, target::kCodeSize, "code"},
    {target::kDataBase, target::kDataSize, "data"},
    {target::kStackBase, target::kStackSize, "stack"},
    {target::kIoBase, target::kIoSize, "io"},
};

const Segment* SegmentOf(std::uint32_t address) {
  for (const Segment& segment : kSegments) {
    if (address >= segment.base && address - segment.base < segment.size) {
      return &segment;
    }
  }
  return nullptr;
}

int SourceLineOf(const sim::AssembledProgram& program, std::uint32_t pc) {
  const auto it = program.source_lines.find(pc);
  return it == program.source_lines.end() ? 0 : it->second;
}

}  // namespace

std::string FormatDiagnostic(const LintDiagnostic& diagnostic) {
  const char* severity =
      diagnostic.severity == Severity::kError ? "error" : "warning";
  if (diagnostic.line > 0) {
    return StrFormat("%s:%d: %s: %s [%s]", diagnostic.file.c_str(),
                     diagnostic.line, severity, diagnostic.message.c_str(),
                     diagnostic.check.c_str());
  }
  return StrFormat("%s: %s: %s [%s]", diagnostic.file.c_str(), severity,
                   diagnostic.message.c_str(), diagnostic.check.c_str());
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatDiagnosticsJson(
    const std::vector<LintDiagnostic>& diagnostics) {
  if (diagnostics.empty()) return "[]\n";
  std::string out = "[\n";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const LintDiagnostic& diagnostic = diagnostics[i];
    out += StrFormat(
        "  {\"file\": \"%s\", \"line\": %d, \"check\": \"%s\", "
        "\"severity\": \"%s\", \"message\": \"%s\"}%s\n",
        JsonEscape(diagnostic.file).c_str(), diagnostic.line,
        JsonEscape(diagnostic.check).c_str(),
        diagnostic.severity == Severity::kError ? "error" : "warning",
        JsonEscape(diagnostic.message).c_str(),
        i + 1 < diagnostics.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

std::vector<LintDiagnostic> DeduplicateDiagnostics(
    std::vector<LintDiagnostic> diagnostics) {
  std::set<std::tuple<std::string, int, std::string>> seen;
  std::vector<LintDiagnostic> out;
  out.reserve(diagnostics.size());
  for (LintDiagnostic& diagnostic : diagnostics) {
    if (seen.emplace(diagnostic.file, diagnostic.line, diagnostic.check)
            .second) {
      out.push_back(std::move(diagnostic));
    }
  }
  return out;
}

bool HasErrors(const std::vector<LintDiagnostic>& diagnostics) {
  for (const LintDiagnostic& diagnostic : diagnostics) {
    if (diagnostic.severity == Severity::kError) return true;
  }
  return false;
}

std::vector<LintDiagnostic> LintWorkloadSource(const std::string& file,
                                               const std::string& source) {
  std::vector<LintDiagnostic> out;
  const auto assembled = sim::Assemble(source);
  if (!assembled.ok()) {
    std::string message = assembled.status().message();
    const int line = ExtractLineNumber(&message);
    Add(&out, Severity::kError, file, line, "asm-error", message);
    return out;
  }
  const sim::AssembledProgram& program = *assembled;
  const auto built = Cfg::Build(program);
  if (!built.ok()) {
    Add(&out, Severity::kError, file, 0, "bad-entry",
        built.status().message());
    return out;
  }
  const Cfg& cfg = *built;

  for (const Cfg::DeadRange& range : cfg.UnreachableCodeRanges(program)) {
    Add(&out, Severity::kWarning, file, SourceLineOf(program, range.begin),
        "unreachable-code",
        StrFormat("unreachable code: %u instruction%s no path from the "
                  "entry point executes",
                  (range.end - range.begin) / 4,
                  range.end - range.begin == 4 ? "" : "s"));
  }

  for (const auto& [pc, insn] : cfg.instructions()) {
    if (insn.opcode == Opcode::kJal || insn.opcode == Opcode::kJalr) {
      continue;  // discarding the link via ra = r0 is deliberate idiom
    }
    if ((sim::InstructionDefUse(insn).defs & 1u) != 0) {
      Add(&out, Severity::kWarning, file, SourceLineOf(program, pc),
          "write-to-r0",
          StrFormat("'%s' writes to r0, which ignores writes",
                    sim::Disassemble(insn).c_str()));
    }
  }

  for (const auto& [begin, block] : cfg.blocks()) {
    if (!block.falls_off_image) continue;
    const std::uint32_t last_pc = block.end - 4;
    Add(&out, Severity::kError, file, SourceLineOf(program, last_pc),
        "falls-off-image",
        "control flow can run past the assembled image (missing halt, "
        "jump, or branch target outside the code)");
  }

  for (const MaybeUninitRead& read : FindMaybeUninitReads(cfg)) {
    Add(&out, Severity::kWarning, file, SourceLineOf(program, read.pc),
        "maybe-uninit-read",
        StrFormat("r%u may be read before any instruction writes it "
                  "(registers reset to zero)",
                  read.reg));
  }

  const MemorySummary memory = ComputeMemorySummary(cfg);
  for (const auto& [pc, access] : memory.accesses) {
    if (!access.address.has_value()) continue;
    const Segment* segment = SegmentOf(*access.address);
    if (segment == nullptr) {
      Add(&out, Severity::kError, file, SourceLineOf(program, pc),
          "unmapped-address",
          StrFormat("%s of unmapped address 0x%08x (board memory map: "
                    "code/data/stack/io)",
                    access.is_store ? "store" : "load", *access.address));
    } else if (access.is_store && std::string(segment->name) == "code") {
      Add(&out, Severity::kWarning, file, SourceLineOf(program, pc),
          "store-to-code",
          StrFormat("store into the code segment at 0x%08x "
                    "(self-modifying code)",
                    *access.address));
    }
  }
  return out;
}

std::vector<LintDiagnostic> LintWorkloadSpecFile(const std::string& file) {
  std::vector<LintDiagnostic> out;
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    Add(&out, Severity::kError, file, 0, "io-error", "cannot read file");
    return out;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const auto parsed = Config::Parse(text);
  if (!parsed.ok()) {
    std::string message = parsed.status().message();
    const int line = ExtractLineNumber(&message);
    Add(&out, Severity::kError, file, line, "ini-error", message);
    return out;
  }
  const ConfigSection* section = parsed->FindSection("workload");
  if (section == nullptr) {
    Add(&out, Severity::kError, file, 0, "missing-section",
        "no [workload] section");
    return out;
  }

  static const std::set<std::string> kKnownKeys = {
      "name",           "assembly_file", "output_base", "output_length",
      "max_instructions", "max_iterations", "environment"};
  for (const auto& [key, value] : section->entries()) {
    (void)value;
    if (kKnownKeys.count(key) == 0) {
      Add(&out, Severity::kWarning, file, LineOfKey(text, key),
          "unknown-key", "unknown [workload] key '" + key + "'");
    }
  }
  if (section->GetStringOr("name", "").empty()) {
    Add(&out, Severity::kError, file, 0, "missing-key",
        "workload has no name");
  }

  // The loader's typed reads: each value it rejects is an error at the
  // line whose value counts (the last one assigning the key).
  const target::WorkloadNumbers numbers = target::ReadWorkloadNumbers(*section);
  bool region_typed = true;
  for (const target::WorkloadNumbers::Error& error : numbers.errors) {
    Add(&out, Severity::kError, file, LineOfKey(text, error.key, /*last=*/true),
        "bad-value", error.status.message());
    region_typed = region_typed && error.key != "output_base" &&
                   error.key != "output_length";
  }
  if (region_typed && numbers.output_length > 0) {
    const auto base = static_cast<std::uint32_t>(numbers.output_base);
    const auto length = static_cast<std::uint32_t>(numbers.output_length);
    const Segment* lo = SegmentOf(base);
    const Segment* hi = SegmentOf(base + length - 1);
    if (lo == nullptr || hi != lo) {
      Add(&out, Severity::kError, file, LineOfKey(text, "output_base"),
          "output-range",
          StrFormat("output region [0x%08x, 0x%08x) is not inside one "
                    "mapped segment",
                    base, base + length));
    }
  }

  const std::string environment = section->GetStringOr("environment", "");
  if (!environment.empty()) {
    const auto made = target::MakeEnvironment(environment);
    if (!made.ok()) {
      Add(&out, Severity::kError, file, LineOfKey(text, "environment"),
          "unknown-environment", made.status().message());
    }
  }

  const auto assembly_file = section->GetString("assembly_file");
  if (!assembly_file || assembly_file->empty()) {
    Add(&out, Severity::kError, file, 0, "missing-key",
        "workload has no assembly_file");
    return out;
  }
  std::string assembly_path = *assembly_file;
  const std::size_t slash = file.find_last_of('/');
  if (slash != std::string::npos && (*assembly_file)[0] != '/') {
    assembly_path = file.substr(0, slash + 1) + *assembly_file;
  }
  std::ifstream assembly_in(assembly_path, std::ios::binary);
  if (!assembly_in) {
    Add(&out, Severity::kError, file, LineOfKey(text, "assembly_file"),
        "io-error", "cannot read assembly file " + assembly_path);
    return out;
  }
  std::ostringstream assembly_buffer;
  assembly_buffer << assembly_in.rdbuf();
  const std::vector<LintDiagnostic> assembly_diagnostics =
      LintWorkloadSource(assembly_path, assembly_buffer.str());
  out.insert(out.end(), assembly_diagnostics.begin(),
             assembly_diagnostics.end());
  return out;
}

}  // namespace goofi::analysis
