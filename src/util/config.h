// INI-style configuration files.
//
// This is the reproduction's substitute for GOOFI's configuration and
// set-up GUI windows (paper Figs. 5 and 6): target descriptions and
// campaign definitions are declarative files that the tool parses into
// TargetSystemData / CampaignData rows (see src/core/campaign.*).
//
// Format:
//   # comment, ; comment
//   [section]            ; sections may repeat; order is preserved
//   key = value          ; values keep internal spaces, trimmed at ends
//   key[] = value        ; appends to a repeated key (list value)
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace goofi {

class ConfigSection {
 public:
  ConfigSection() = default;
  explicit ConfigSection(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  bool Has(const std::string& key) const;

  // Scalar lookups. GetString returns nullopt when the key is absent,
  // GetStringOr substitutes a default. The typed lookups are NotFound
  // for an absent key and ParseError for a value of another type; there
  // is no silent fallback for a malformed number.
  std::optional<std::string> GetString(const std::string& key) const;
  std::string GetStringOr(const std::string& key, std::string fallback) const;
  Result<std::int64_t> GetInt(const std::string& key) const;
  Result<double> GetDouble(const std::string& key) const;
  Result<bool> GetBool(const std::string& key) const;  // true/false/1/0/yes/no

  // All values appended with `key[] =`, plus the scalar value if present.
  std::vector<std::string> GetList(const std::string& key) const;

  void Set(const std::string& key, std::string value);
  void Append(const std::string& key, std::string value);

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

 private:
  std::string name_;
  // Order-preserving; scalar Get uses the last occurrence of a key.
  std::vector<std::pair<std::string, std::string>> entries_;
};

class Config {
 public:
  static Result<Config> Parse(const std::string& text);
  static Result<Config> LoadFile(const std::string& path);

  // First section with the given name, or nullptr.
  const ConfigSection* FindSection(const std::string& name) const;
  // All sections with the given name, in file order.
  std::vector<const ConfigSection*> FindSections(const std::string& name) const;

  const std::vector<ConfigSection>& sections() const { return sections_; }
  std::vector<ConfigSection>& mutable_sections() { return sections_; }

  std::string Serialize() const;

 private:
  std::vector<ConfigSection> sections_;
};

}  // namespace goofi
