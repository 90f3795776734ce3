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
#include <cstdint>
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

  /// Candidate rule for the directory's equality index (server.hpp): the
  /// filter as an OR of terms, each term a set of index keys that every
  /// entry the term matches carries. Equality on an indexed attribute
  /// (schema::kIndexedAttrs) is one key; `&` joins its indexable
  /// children's keys; `|` lists its children's terms. A search draws
  /// candidates from one key per term and still checks each with
  /// Matches, so the rule only has to cover the matches. Empty means no
  /// index applies (a `!`, presence, substring or ordering leaf, or a `|`
  /// with such a child): scan. Worked out once, when the filter is built.
  using IndexTerms = std::vector<std::vector<std::uint64_t>>;
  const IndexTerms& CandidateTerms() const;

  /// Index key of one attribute value: a 64-bit hash of "attr\0value".
  /// Collisions only widen a candidate set.
  static std::uint64_t IndexKey(std::string_view attr, std::string_view value);

  /// Canonical string form (round-trips through Parse).
  std::string ToString() const;

  /// Implementation node; public only so the parser in the .cpp can build
  /// trees — not part of the API surface.
  struct Node;

 private:
  std::shared_ptr<const Node> root_;
  std::shared_ptr<const IndexTerms> terms_;  // null: scan
};

}  // namespace jamm::directory
