// Small string helpers shared by the ER DSL parser, XML writer and benches.
#pragma once

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace mctdb {

/// Split `s` on `sep`, optionally dropping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep,
                               bool keep_empty = false);

/// Join `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strip ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Escape &, <, >, ", ' for XML attribute/text contexts.
std::string EscapeXml(std::string_view s);

/// Lowercase ASCII copy.
std::string ToLower(std::string_view s);

/// Parse a non-negative integer; returns false on any non-digit input and
/// on a value above UINT64_MAX.
bool ParseUint64(std::string_view s, uint64_t* out);

}  // namespace mctdb
