// ULM ↔ XML conversion. The paper (§7.0) describes "a ULM to XML filter for
// the gateway, so a consumer can request either format for event data";
// FromXml is the client side of that stream.
// The schema is a straightforward attribute/element mapping since the Grid
// Forum schema standardization the paper awaited never applied here.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "ulm/record.hpp"

namespace jamm::ulm {

/// One <event> element:
///   <event date="..." host="..." prog="..." lvl="..." name="...">
///     <field name="SEND.SZ">49332</field>
///   </event>
std::string ToXml(const Record& rec);

/// Parse one <event> element exactly as ToXml writes it, entities
/// unescaped. Strict: anything ToXml would not have written (a raw
/// character XmlEscape escapes, an unknown entity, a non-canonical DATE,
/// a repeated or required-name field, trailing bytes) is a ParseError, so
/// a parsed record re-encodes to the same bytes.
Result<Record> FromXml(std::string_view xml);

/// A whole <events> document.
std::string ToXmlDocument(const std::vector<Record>& records);

/// Escape &<>"' for attribute and text positions.
std::string XmlEscape(std::string_view text);

}  // namespace jamm::ulm
