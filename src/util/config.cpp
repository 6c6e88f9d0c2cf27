#include "util/config.h"

#include <fstream>
#include <sstream>

#include "util/strings.h"

namespace goofi {

bool ConfigSection::Has(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return true;
  }
  return false;
}

std::optional<std::string> ConfigSection::GetString(
    const std::string& key) const {
  std::optional<std::string> found;
  for (const auto& [k, v] : entries_) {
    if (k == key) found = v;
  }
  return found;
}

std::string ConfigSection::GetStringOr(const std::string& key,
                                       std::string fallback) const {
  auto v = GetString(key);
  return v ? *v : std::move(fallback);
}

Result<std::int64_t> ConfigSection::GetInt(const std::string& key) const {
  const auto raw = GetString(key);
  if (!raw) return NotFoundError("missing key '" + key + "'");
  const auto parsed = ParseInt64(*raw);
  if (!parsed) {
    return ParseError("key '" + key + "': not an integer: '" + *raw + "'");
  }
  return *parsed;
}

Result<double> ConfigSection::GetDouble(const std::string& key) const {
  const auto raw = GetString(key);
  if (!raw) return NotFoundError("missing key '" + key + "'");
  const auto parsed = ParseDouble(*raw);
  if (!parsed) {
    return ParseError("key '" + key + "': not a number: '" + *raw + "'");
  }
  return *parsed;
}

Result<bool> ConfigSection::GetBool(const std::string& key) const {
  const auto raw = GetString(key);
  if (!raw) return NotFoundError("missing key '" + key + "'");
  const std::optional<bool> parsed = ParseBool(*raw);
  if (!parsed) {
    return ParseError("key '" + key + "': not a boolean: '" + *raw + "'");
  }
  return *parsed;
}

std::vector<std::string> ConfigSection::GetList(const std::string& key) const {
  std::vector<std::string> values;
  for (const auto& [k, v] : entries_) {
    if (k == key) values.push_back(v);
  }
  return values;
}

void ConfigSection::Set(const std::string& key, std::string value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(key, std::move(value));
}

void ConfigSection::Append(const std::string& key, std::string value) {
  entries_.emplace_back(key, std::move(value));
}

Result<Config> Config::Parse(const std::string& text) {
  Config config;
  config.sections_.emplace_back("");  // implicit top-level section
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    std::string_view view = StripAsciiWhitespace(line);
    if (view.empty() || view[0] == '#' || view[0] == ';') continue;
    if (view.front() == '[') {
      if (view.back() != ']' || view.size() < 3) {
        return ParseError(StrFormat("line %d: malformed section header",
                                    line_number));
      }
      config.sections_.emplace_back(std::string(
          StripAsciiWhitespace(view.substr(1, view.size() - 2))));
      continue;
    }
    const std::size_t eq = view.find('=');
    if (eq == std::string_view::npos) {
      return ParseError(StrFormat("line %d: expected 'key = value'",
                                  line_number));
    }
    std::string key(StripAsciiWhitespace(view.substr(0, eq)));
    std::string value(StripAsciiWhitespace(view.substr(eq + 1)));
    if (key.empty()) {
      return ParseError(StrFormat("line %d: empty key", line_number));
    }
    if (EndsWith(key, "[]")) {
      key.resize(key.size() - 2);
      key = std::string(StripAsciiWhitespace(key));
      config.sections_.back().Append(key, std::move(value));
    } else {
      config.sections_.back().Append(key, std::move(value));
    }
  }
  return config;
}

Result<Config> Config::LoadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return IoError("cannot open config file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

const ConfigSection* Config::FindSection(const std::string& name) const {
  for (const auto& section : sections_) {
    if (section.name() == name) return &section;
  }
  return nullptr;
}

std::vector<const ConfigSection*> Config::FindSections(
    const std::string& name) const {
  std::vector<const ConfigSection*> found;
  for (const auto& section : sections_) {
    if (section.name() == name) found.push_back(&section);
  }
  return found;
}

std::string Config::Serialize() const {
  std::string out;
  for (const auto& section : sections_) {
    if (!section.name().empty()) {
      out += "[" + section.name() + "]\n";
    } else if (section.entries().empty()) {
      continue;
    }
    for (const auto& [k, v] : section.entries()) {
      out += k + " = " + v + "\n";
    }
  }
  return out;
}

}  // namespace goofi
