// Small string utilities shared across modules. Nothing clever: split,
// trim, join, predicates, and number parsing that reports failure via
// Result instead of silently returning 0.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace jamm {

/// Split on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Split on runs of whitespace; drops empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Split into at most `max_fields` pieces (the last piece keeps the rest).
std::vector<std::string> SplitN(std::string_view text, char sep,
                                std::size_t max_fields);

std::string_view TrimView(std::string_view text);
std::string Trim(std::string_view text);

std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// ASCII-only case transforms (ULM field names, DN attributes, OIDs).
std::string ToLower(std::string_view text);
std::string ToUpper(std::string_view text);
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

Result<std::int64_t> ParseInt(std::string_view text);
Result<double> ParseDouble(std::string_view text);

/// Simple glob match supporting '*' and '?'; used by directory substring
/// filters and archive queries.
bool GlobMatch(std::string_view pattern, std::string_view text);

/// Starting state of Fnv1a. Not the published FNV offset basis, but the
/// one every persisted digest and signature here was computed with; keep it.
inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ull;

/// 64-bit FNV-1a of `data`, continuing from `h` (so hashes chain over
/// several pieces).
std::uint64_t Fnv1a(std::string_view data, std::uint64_t h = kFnv1aBasis);

}  // namespace jamm
