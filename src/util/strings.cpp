#include "util/strings.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace goofi {

std::string_view StripAsciiWhitespace(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> SplitString(std::string_view text, char delimiter) {
  std::vector<std::string> pieces;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(text.substr(start));
      break;
    }
    pieces.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return pieces;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> pieces;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    std::size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) pieces.emplace_back(text.substr(start, i - start));
  }
  return pieces;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out += separator;
    out += pieces[i];
  }
  return out;
}

std::string AsciiToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string AsciiToUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::optional<std::int64_t> ParseInt64(std::string_view text) {
  text = StripAsciiWhitespace(text);
  if (text.empty()) return std::nullopt;
  bool negative = false;
  if (text[0] == '-') {
    negative = true;
    text.remove_prefix(1);
  } else if (text[0] == '+') {
    text.remove_prefix(1);
  }
  const std::optional<std::uint64_t> magnitude = ParseUint64(text);
  if (!magnitude) return std::nullopt;
  if (negative) {
    if (*magnitude > 0x8000000000000000ULL) return std::nullopt;
    return -static_cast<std::int64_t>(*magnitude - 1) - 1;
  }
  if (*magnitude > 0x7fffffffffffffffULL) return std::nullopt;
  return static_cast<std::int64_t>(*magnitude);
}

std::optional<std::uint64_t> ParseUint64(std::string_view text) {
  text = StripAsciiWhitespace(text);
  if (text.empty()) return std::nullopt;
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
    if (text.empty()) return std::nullopt;
  }
  std::uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    if (digit >= base) return std::nullopt;
    const std::uint64_t next = value * base + static_cast<std::uint64_t>(digit);
    if (next / base != value) return std::nullopt;  // overflow
    value = next;
  }
  return value;
}

std::optional<bool> ParseBool(std::string_view text) {
  for (const char* yes : {"true", "1", "yes", "on"}) {
    if (EqualsIgnoreCase(text, yes)) return true;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    if (EqualsIgnoreCase(text, no)) return false;
  }
  return std::nullopt;
}

std::optional<double> ParseDouble(std::string_view text) {
  text = StripAsciiWhitespace(text);
  if (text.empty()) return std::nullopt;
  std::string buffer(text);
  char* end = nullptr;
  const double value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) return std::nullopt;
  return value;
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

namespace {

// Shared wildcard matcher: `any_run` matches any sequence (including
// empty), `any_one` matches exactly one character.
bool WildcardMatch(std::string_view pattern, std::string_view text,
                   char any_run, char any_one) {
  // Iterative two-pointer algorithm with backtracking over the last
  // any_run position; linear in practice.
  std::size_t p = 0, t = 0;
  std::size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == any_one || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == any_run) {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == any_run) ++p;
  return p == pattern.size();
}

}  // namespace

bool GlobMatch(std::string_view pattern, std::string_view text) {
  return WildcardMatch(pattern, text, '*', '?');
}

bool LikeMatch(std::string_view pattern, std::string_view text) {
  return WildcardMatch(pattern, text, '%', '_');
}

std::string EscapeTsvField(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::optional<std::string> UnescapeTsvField(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out.push_back(escaped[i]);
      continue;
    }
    if (++i == escaped.size()) return std::nullopt;
    switch (escaped[i]) {
      case '\\': out.push_back('\\'); break;
      case 't': out.push_back('\t'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      default: return std::nullopt;
    }
  }
  return out;
}

std::string HexEncode(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

std::optional<std::string> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int high = nibble(hex[i]);
    const int low = nibble(hex[i + 1]);
    if (high < 0 || low < 0) return std::nullopt;
    out.push_back(static_cast<char>((high << 4) | low));
  }
  return out;
}

}  // namespace goofi
