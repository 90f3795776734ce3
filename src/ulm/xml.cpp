#include "ulm/xml.hpp"

#include "common/time_util.hpp"

namespace jamm::ulm {

std::string XmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string ToXml(const Record& rec) {
  std::string out = "<event date=\"" + FormatUlmDate(rec.timestamp()) +
                    "\" host=\"" + XmlEscape(rec.host()) + "\" prog=\"" +
                    XmlEscape(rec.prog()) + "\" lvl=\"" + XmlEscape(rec.lvl()) +
                    "\"";
  if (!rec.event_name().empty()) {
    out += " name=\"" + XmlEscape(rec.event_name()) + "\"";
  }
  if (rec.fields().empty()) {
    out += "/>";
    return out;
  }
  out += ">";
  for (const auto& [k, v] : rec.fields()) {
    out += "<field name=\"" + XmlEscape(k) + "\">" + XmlEscape(v) + "</field>";
  }
  out += "</event>";
  return out;
}

namespace {

/// Reads ToXml's output left to right.
class XmlReader {
 public:
  explicit XmlReader(std::string_view text) : text_(text) {}

  bool done() const { return pos_ == text_.size(); }

  /// Consume `token` if the input continues with it.
  bool Eat(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  /// Unescaped text up to the next `stop`, which is consumed.
  Result<std::string> Until(char stop) {
    static constexpr std::pair<std::string_view, char> kEntities[] = {
        {"&amp;", '&'}, {"&lt;", '<'}, {"&gt;", '>'},
        {"&quot;", '"'}, {"&apos;", '\''}};
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == stop) {
        ++pos_;
        return out;
      }
      if (c == '&') {
        bool known = false;
        for (const auto& [entity, ch] : kEntities) {
          if (Eat(entity)) {
            out += ch;
            known = true;
            break;
          }
        }
        if (!known) return Status::ParseError("xml: unknown entity");
        continue;
      }
      if (c == '<' || c == '>' || c == '"' || c == '\'') {
        return Status::ParseError("xml: unescaped markup character");
      }
      out += c;
      ++pos_;
    }
    return Status::ParseError("xml: truncated");
  }

  /// The value of attribute `name` (` name="…"`), required.
  Result<std::string> Attr(std::string_view name) {
    if (!Eat(" ") || !Eat(name) || !Eat("=\"")) {
      return Status::ParseError("xml: expected attribute " + std::string(name));
    }
    return Until('"');
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

bool IsRequiredName(std::string_view key) {
  return key == field::kDate || key == field::kHost || key == field::kProg ||
         key == field::kLevel || key == field::kEvent;
}

}  // namespace

Result<Record> FromXml(std::string_view xml) {
  XmlReader in(xml);
  if (!in.Eat("<event")) return Status::ParseError("xml: expected <event");
  auto date = in.Attr("date");
  if (!date.ok()) return date.status();
  auto ts = ParseUlmDate(*date);
  if (!ts.ok() || FormatUlmDate(*ts) != *date) {
    return Status::ParseError("xml: bad date '" + *date + "'");
  }
  auto host = in.Attr("host");
  if (!host.ok()) return host.status();
  auto prog = in.Attr("prog");
  if (!prog.ok()) return prog.status();
  auto lvl = in.Attr("lvl");
  if (!lvl.ok()) return lvl.status();
  std::string name;
  if (in.Eat(" name=\"")) {
    auto value = in.Until('"');
    if (!value.ok()) return value.status();
    if (value->empty()) return Status::ParseError("xml: empty name");
    name = std::move(*value);
  }
  Record rec(*ts, std::move(*host), std::move(*prog), std::move(*lvl),
             std::move(name));
  if (!in.Eat("/>")) {
    if (!in.Eat(">")) return Status::ParseError("xml: unterminated <event");
    do {
      if (!in.Eat("<field name=\"")) {
        return Status::ParseError("xml: expected <field");
      }
      auto key = in.Until('"');
      if (!key.ok()) return key.status();
      if (!in.Eat(">")) return Status::ParseError("xml: unterminated <field");
      auto value = in.Until('<');
      if (!value.ok()) return value.status();
      if (!in.Eat("/field>")) return Status::ParseError("xml: expected </field>");
      if (IsRequiredName(*key) || rec.GetField(*key).has_value()) {
        return Status::ParseError("xml: repeated field '" + *key + "'");
      }
      rec.AppendFieldUnchecked(std::move(*key), std::move(*value));
    } while (!in.Eat("</event>"));
  }
  if (!in.done()) return Status::ParseError("xml: trailing bytes");
  return rec;
}

std::string ToXmlDocument(const std::vector<Record>& records) {
  std::string out = "<?xml version=\"1.0\"?>\n<events>\n";
  for (const auto& rec : records) {
    out += "  ";
    out += ToXml(rec);
    out += "\n";
  }
  out += "</events>\n";
  return out;
}

}  // namespace jamm::ulm
