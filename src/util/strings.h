// Small string helpers shared across layers (SQL lexer, assembler,
// campaign-config parsing, state-vector serialization).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace goofi {

// Trim ASCII whitespace from both ends.
std::string_view StripAsciiWhitespace(std::string_view text);

// Split on a delimiter; empty pieces are kept ("a,,b" -> {"a","","b"}).
std::vector<std::string> SplitString(std::string_view text, char delimiter);

// Split on runs of whitespace; empty pieces are dropped.
std::vector<std::string> SplitWhitespace(std::string_view text);

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view separator);

std::string AsciiToLower(std::string_view text);
std::string AsciiToUpper(std::string_view text);

bool EqualsIgnoreCase(std::string_view a, std::string_view b);
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// Parse integers; accepts optional leading '-' and 0x/0X hex prefix.
std::optional<std::int64_t> ParseInt64(std::string_view text);
std::optional<std::uint64_t> ParseUint64(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);
// true/false, yes/no, on/off, 1/0, in any case.
std::optional<bool> ParseBool(std::string_view text);

// printf-style formatting into std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// Glob-style match supporting '*' (any run) and '?' (any one char);
// used by location filters such as "cpu.regs.*".
bool GlobMatch(std::string_view pattern, std::string_view text);

// SQL LIKE match: '%' = any run, '_' = any one char, case-sensitive.
bool LikeMatch(std::string_view pattern, std::string_view text);

// Escape/unescape for tab-separated persistence files: '\\', '\t', '\n',
// and '\0'-free round trip. UnescapeTsvField returns nullopt on a
// malformed escape.
std::string EscapeTsvField(std::string_view raw);
std::optional<std::string> UnescapeTsvField(std::string_view escaped);

// Hex encoding of raw bytes (lowercase), and its inverse.
std::string HexEncode(std::string_view bytes);
std::optional<std::string> HexDecode(std::string_view hex);

}  // namespace goofi
