#include "target/target_types.h"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "util/strings.h"

namespace goofi::target {

std::uint64_t EffectiveInstructionBudget(const TerminationSpec& experiment,
                                         const TerminationSpec& workload) {
  if (experiment.max_instructions != 0) return experiment.max_instructions;
  if (workload.max_instructions != 0) return workload.max_instructions;
  return 2'000'000;
}

namespace {

template <typename E, std::size_t N>
std::optional<E> FromName(const char* const (&names)[N],
                          const std::string& name) {
  const auto found = std::find(std::begin(names), std::end(names), name);
  if (found == std::end(names)) return std::nullopt;
  return static_cast<E>(found - std::begin(names));
}

}  // namespace

const char* TechniqueName(Technique technique) {
  return kTechniqueNames[static_cast<std::size_t>(technique)];
}

std::optional<Technique> TechniqueFromName(const std::string& name) {
  return FromName<Technique>(kTechniqueNames, name);
}

const char* FaultModelKindName(FaultModel::Kind kind) {
  return kFaultModelKindNames[static_cast<std::size_t>(kind)];
}

std::optional<FaultModel::Kind> FaultModelKindFromName(
    const std::string& name) {
  return FromName<FaultModel::Kind>(kFaultModelKindNames, name);
}

// ---------------------------------------------------------------------
// Observation serialization. ';'-separated key=value records; binary
// payloads (EDM detail text, output bytes) are hex-encoded so the text
// stays free of the separators and of the TSV metacharacters the
// database layer escapes.
// ---------------------------------------------------------------------

namespace {

// Appends the decimal form of `value`, as StrFormat("%llu") would, without
// a format-string round trip or a temporary string.
void AppendDecimal(std::string& out, std::uint64_t value) {
  char digits[20];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, value);
  (void)ec;  // 20 digits hold every uint64_t
  out.append(digits, end);
}

void AppendWordList(std::string& out, std::string_view key,
                    const std::vector<std::uint32_t>& words) {
  out += key;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i != 0) out += '+';
    AppendDecimal(out, words[i]);
  }
}

Status BadObservation(const std::string& what) {
  return ParseError("bad observation record: " + what);
}

// '+'-separated 32-bit values in ParseUint64's grammar (decimal or 0x
// hex, surrounding ASCII whitespace allowed); empty pieces are skipped.
Result<std::vector<std::uint32_t>> ParseWordList(std::string_view text) {
  std::vector<std::uint32_t> words;
  words.reserve(static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '+') + 1));
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('+', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view piece = text.substr(start, end - start);
    start = end + 1;
    if (piece.empty()) continue;
    std::string_view digits = StripAsciiWhitespace(piece);
    int base = 10;
    if (digits.size() > 2 && digits[0] == '0' &&
        (digits[1] == 'x' || digits[1] == 'X')) {
      base = 16;
      digits.remove_prefix(2);
    }
    std::uint32_t value = 0;
    const char* const last = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), last, value, base);
    // from_chars rejects an empty piece, a sign and values over 32 bits.
    if (ec != std::errc() || ptr != last) {
      return BadObservation("word list entry '" + std::string(piece) + "'");
    }
    words.push_back(value);
  }
  return words;
}

}  // namespace

std::string Observation::Serialize() const {
  std::string out = "stop=";
  AppendDecimal(out, static_cast<std::uint64_t>(stop_reason));
  out += ";instr=";
  AppendDecimal(out, instructions);
  out += ";iter=";
  AppendDecimal(out, iterations);
  out += ";recov=";
  AppendDecimal(out, recovery_count);
  out += fault_was_injected ? ";inj=1" : ";inj=0";
  if (link_words_retried != 0) {
    out += ";linkretry=";
    AppendDecimal(out, link_words_retried);
  }
  if (edm.has_value()) {
    out += StrFormat(";edm=%d,%llu,0x%08x,%s", static_cast<int>(edm->type),
                     static_cast<unsigned long long>(edm->time), edm->pc,
                     HexEncode(edm->detail).c_str());
  }
  for (const auto& [name, image] : chain_images) {
    out += ";chain:" + name + "=" + image.ToHexString();
  }
  if (!output_region.empty()) {
    const std::string bytes(output_region.begin(), output_region.end());
    out += ";out=" + HexEncode(bytes);
  }
  if (!emitted.empty()) AppendWordList(out, ";emit=", emitted);
  if (!env_outputs.empty()) AppendWordList(out, ";env=", env_outputs);
  if (!detail_trace.empty()) {
    out += ";trace=";
    for (std::size_t i = 0; i < detail_trace.size(); ++i) {
      if (i != 0) out += '|';
      AppendDecimal(out, detail_trace[i].first);
      out += '@';
      out += detail_trace[i].second.ToHexString();
    }
  }
  return out;
}

Result<Observation> Observation::Deserialize(const std::string& text) {
  Observation observation;
  bool saw_stop = false;
  for (const std::string& record : SplitString(text, ';')) {
    if (record.empty()) continue;
    const std::size_t eq = record.find('=');
    if (eq == std::string::npos) return BadObservation(record);
    const std::string key = record.substr(0, eq);
    const std::string value = record.substr(eq + 1);
    if (key == "stop") {
      const auto parsed = ParseUint64(value);
      if (!parsed || *parsed > 4) return BadObservation("stop=" + value);
      observation.stop_reason = static_cast<sim::StopReason>(*parsed);
      saw_stop = true;
    } else if (key == "instr" || key == "iter" || key == "recov" ||
               key == "linkretry") {
      const auto parsed = ParseUint64(value);
      if (!parsed) return BadObservation(key + "=" + value);
      if (key == "instr") observation.instructions = *parsed;
      if (key == "iter") observation.iterations = *parsed;
      if (key == "recov") observation.recovery_count = *parsed;
      if (key == "linkretry") observation.link_words_retried = *parsed;
    } else if (key == "inj") {
      observation.fault_was_injected = value == "1";
    } else if (key == "edm") {
      const std::vector<std::string> fields = SplitString(value, ',');
      if (fields.size() != 4) return BadObservation("edm=" + value);
      const auto type = ParseUint64(fields[0]);
      const auto time = ParseUint64(fields[1]);
      const auto pc = ParseUint64(fields[2]);
      const auto detail = HexDecode(fields[3]);
      if (!type || *type >= sim::kEdmTypeCount || !time || !pc || !detail) {
        return BadObservation("edm=" + value);
      }
      sim::EdmEvent event;
      event.type = static_cast<sim::EdmType>(*type);
      event.time = *time;
      event.pc = static_cast<std::uint32_t>(*pc);
      event.detail = *detail;
      observation.edm = std::move(event);
    } else if (StartsWith(key, "chain:")) {
      BitVector image;
      if (!BitVector::FromHexString(value, &image)) {
        return BadObservation(key + "=" + value);
      }
      observation.chain_images[key.substr(6)] = std::move(image);
    } else if (key == "out") {
      const auto bytes = HexDecode(value);
      if (!bytes) return BadObservation("out=" + value);
      observation.output_region.assign(bytes->begin(), bytes->end());
    } else if (key == "emit") {
      ASSIGN_OR_RETURN(observation.emitted, ParseWordList(value));
    } else if (key == "env") {
      ASSIGN_OR_RETURN(observation.env_outputs, ParseWordList(value));
    } else if (key == "trace") {
      for (const std::string& entry : SplitString(value, '|')) {
        if (entry.empty()) continue;
        const std::size_t at = entry.find('@');
        if (at == std::string::npos) return BadObservation("trace entry");
        const auto time = ParseUint64(entry.substr(0, at));
        BitVector image;
        if (!time || !BitVector::FromHexString(entry.substr(at + 1), &image)) {
          return BadObservation("trace entry '" + entry + "'");
        }
        observation.detail_trace.emplace_back(*time, std::move(image));
      }
    } else {
      // Unknown keys from a newer writer are skipped, not fatal.
    }
  }
  if (!saw_stop) return BadObservation("missing stop reason");
  return observation;
}

}  // namespace goofi::target
