// LDAP search filters (RFC 1960 string representation), the query language
// consumers use to discover sensors: e.g.
//
//   (&(objectclass=jammSensor)(type=cpu)(host=dpss*.lbl.gov))
//
// Supported: & | ! conjunctions, equality, presence (attr=*), substring
// (values with '*' wildcards), >= and <= (numeric when both sides parse as
// numbers, else lexicographic).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "directory/entry.hpp"

namespace jamm::directory {

class Filter {
 public:
  /// Deepest accepted nesting of parenthesized nodes (the bare leaf
  /// "(a=b)" is depth 1). Parsing recurses once per level, so the bound
  /// keeps a hostile filter from overflowing the stack.
  static constexpr std::size_t kMaxDepth = 64;

  /// Parse an RFC1960 filter string; the outer parentheses are required.
  /// Nesting deeper than kMaxDepth is a ParseError.
  static Result<Filter> Parse(std::string_view text);

  /// Matches everything — "(objectclass=*)" shorthand.
  static Filter MatchAll();

  bool Matches(const Entry& entry) const;

  /// Canonical string form (round-trips through Parse).
  std::string ToString() const;

  /// Implementation node; public only so the parser in the .cpp can build
  /// trees — not part of the API surface.
  struct Node;

 private:
  std::shared_ptr<const Node> root_;
};

}  // namespace jamm::directory
