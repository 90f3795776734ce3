#include "directory/filter.hpp"

#include <optional>

#include "common/strings.hpp"
#include "directory/schema.hpp"

namespace jamm::directory {

struct Filter::Node {
  enum class Kind { kAnd, kOr, kNot, kEquality, kPresence, kSubstring, kGe, kLe };
  Kind kind;
  std::vector<std::shared_ptr<const Node>> children;  // kAnd/kOr/kNot
  std::string attr;                                   // leaf kinds
  std::string value;                                  // leaf kinds
};

namespace {

using Node = Filter::Node;

// Recursive descent over "(...)" — `i` points at the expected '(' and
// `depth` counts the levels open including this one.
Result<std::shared_ptr<const Node>> ParseNode(std::string_view text,
                                              std::size_t& i,
                                              std::size_t depth);

Result<std::shared_ptr<const Node>> ParseLeaf(std::string_view body) {
  // body is "attr<op>value" with op in {=, >=, <=}.
  auto make = [](Node::Kind kind, std::string attr, std::string value) {
    auto node = std::make_shared<Node>();
    node->kind = kind;
    node->attr = ToLower(attr);
    node->value = std::move(value);
    return std::shared_ptr<const Node>(node);
  };
  for (std::size_t p = 0; p < body.size(); ++p) {
    if (body[p] == '=') {
      std::string value(body.substr(p + 1));
      if (p > 0 && (body[p - 1] == '>' || body[p - 1] == '<')) {
        std::string attr(body.substr(0, p - 1));
        if (attr.empty()) return Status::ParseError("filter: empty attribute");
        return make(body[p - 1] == '>' ? Node::Kind::kGe : Node::Kind::kLe,
                    std::move(attr), std::move(value));
      }
      std::string attr(body.substr(0, p));
      if (attr.empty()) return Status::ParseError("filter: empty attribute");
      if (value == "*") {
        return make(Node::Kind::kPresence, std::move(attr), "");
      }
      if (value.find('*') != std::string::npos) {
        return make(Node::Kind::kSubstring, std::move(attr), std::move(value));
      }
      return make(Node::Kind::kEquality, std::move(attr), std::move(value));
    }
  }
  return Status::ParseError("filter: no comparison in '" + std::string(body) +
                            "'");
}

Result<std::shared_ptr<const Node>> ParseNode(std::string_view text,
                                              std::size_t& i,
                                              std::size_t depth) {
  if (i >= text.size() || text[i] != '(') {
    return Status::ParseError("filter: expected '(' at offset " +
                              std::to_string(i));
  }
  if (depth > Filter::kMaxDepth) {
    return Status::ParseError("filter: nested deeper than " +
                              std::to_string(Filter::kMaxDepth));
  }
  ++i;
  if (i >= text.size()) return Status::ParseError("filter: truncated");
  const char op = text[i];
  if (op == '&' || op == '|') {
    ++i;
    auto node = std::make_shared<Node>();
    node->kind = op == '&' ? Node::Kind::kAnd : Node::Kind::kOr;
    while (i < text.size() && text[i] == '(') {
      auto child = ParseNode(text, i, depth + 1);
      if (!child.ok()) return child;
      node->children.push_back(*child);
    }
    if (node->children.empty()) {
      return Status::ParseError("filter: empty conjunction");
    }
    if (i >= text.size() || text[i] != ')') {
      return Status::ParseError("filter: expected ')' closing conjunction");
    }
    ++i;
    return std::shared_ptr<const Node>(node);
  }
  if (op == '!') {
    ++i;
    auto child = ParseNode(text, i, depth + 1);
    if (!child.ok()) return child;
    if (i >= text.size() || text[i] != ')') {
      return Status::ParseError("filter: expected ')' closing negation");
    }
    ++i;
    auto node = std::make_shared<Node>();
    node->kind = Node::Kind::kNot;
    node->children.push_back(*child);
    return std::shared_ptr<const Node>(node);
  }
  // Leaf: scan to the matching ')'.
  const std::size_t close = text.find(')', i);
  if (close == std::string_view::npos) {
    return Status::ParseError("filter: unterminated leaf");
  }
  auto leaf = ParseLeaf(text.substr(i, close - i));
  if (!leaf.ok()) return leaf;
  i = close + 1;
  return leaf;
}

bool CompareOrdered(const std::string& entry_value,
                    const std::string& filter_value, bool want_ge) {
  auto lhs = ParseDouble(entry_value);
  auto rhs = ParseDouble(filter_value);
  if (lhs.ok() && rhs.ok()) {
    return want_ge ? *lhs >= *rhs : *lhs <= *rhs;
  }
  return want_ge ? entry_value >= filter_value : entry_value <= filter_value;
}

bool NodeMatches(const Node& node, const Entry& entry) {
  switch (node.kind) {
    case Node::Kind::kAnd:
      for (const auto& c : node.children) {
        if (!NodeMatches(*c, entry)) return false;
      }
      return true;
    case Node::Kind::kOr:
      for (const auto& c : node.children) {
        if (NodeMatches(*c, entry)) return true;
      }
      return false;
    case Node::Kind::kNot:
      return !NodeMatches(*node.children[0], entry);
    case Node::Kind::kPresence:
      return entry.Has(node.attr);
    case Node::Kind::kEquality:
    case Node::Kind::kSubstring:
    case Node::Kind::kGe:
    case Node::Kind::kLe: {
      const auto* values = entry.GetAll(node.attr);
      if (!values) return false;
      for (const auto& v : *values) {
        switch (node.kind) {
          case Node::Kind::kEquality:
            if (v == node.value) return true;
            break;
          case Node::Kind::kSubstring:
            if (GlobMatch(node.value, v)) return true;
            break;
          case Node::Kind::kGe:
            if (CompareOrdered(v, node.value, /*want_ge=*/true)) return true;
            break;
          case Node::Kind::kLe:
            if (CompareOrdered(v, node.value, /*want_ge=*/false)) return true;
            break;
          default:
            break;
        }
      }
      return false;
    }
  }
  return false;
}

// A `&` of `|`s multiplies out. Past this many terms a `&` leaves out the
// conjunct that would cross the limit, and a `|` scans.
constexpr std::size_t kMaxTerms = 16;

// The terms covering `node`'s matches, or nullopt when no index applies.
std::optional<Filter::IndexTerms> NodeTerms(const Node& node) {
  switch (node.kind) {
    case Node::Kind::kEquality:
      if (!schema::IsIndexed(node.attr)) return std::nullopt;
      return Filter::IndexTerms{{Filter::IndexKey(node.attr, node.value)}};
    case Node::Kind::kOr: {
      Filter::IndexTerms out;
      for (const auto& c : node.children) {
        auto terms = NodeTerms(*c);
        if (!terms || out.size() + terms->size() > kMaxTerms) {
          return std::nullopt;
        }
        out.insert(out.end(), terms->begin(), terms->end());
      }
      return out;
    }
    case Node::Kind::kAnd: {
      // Every match satisfies every child, so any indexable child covers
      // the matches; each one joined in only narrows the candidates.
      std::optional<Filter::IndexTerms> out;
      for (const auto& c : node.children) {
        auto terms = NodeTerms(*c);
        if (!terms) continue;
        if (!out) {
          out = std::move(terms);
          continue;
        }
        if (out->size() * terms->size() > kMaxTerms) continue;
        Filter::IndexTerms product;
        for (const auto& a : *out) {
          for (const auto& b : *terms) {
            auto& term = product.emplace_back(a);
            term.insert(term.end(), b.begin(), b.end());
          }
        }
        out = std::move(product);
      }
      return out;
    }
    default:
      return std::nullopt;
  }
}

std::string NodeToString(const Node& node) {
  switch (node.kind) {
    case Node::Kind::kAnd:
    case Node::Kind::kOr: {
      std::string out = node.kind == Node::Kind::kAnd ? "(&" : "(|";
      for (const auto& c : node.children) out += NodeToString(*c);
      return out + ")";
    }
    case Node::Kind::kNot:
      return "(!" + NodeToString(*node.children[0]) + ")";
    case Node::Kind::kPresence:
      return "(" + node.attr + "=*)";
    case Node::Kind::kEquality:
    case Node::Kind::kSubstring:
      return "(" + node.attr + "=" + node.value + ")";
    case Node::Kind::kGe:
      return "(" + node.attr + ">=" + node.value + ")";
    case Node::Kind::kLe:
      return "(" + node.attr + "<=" + node.value + ")";
  }
  return "(?)";
}

}  // namespace

Result<Filter> Filter::Parse(std::string_view text) {
  std::string_view trimmed = TrimView(text);
  std::size_t i = 0;
  auto root = ParseNode(trimmed, i, 1);
  if (!root.ok()) return root.status();
  if (i != trimmed.size()) {
    return Status::ParseError("filter: trailing characters after ')'");
  }
  Filter f;
  f.root_ = *root;
  if (auto terms = NodeTerms(*f.root_)) {
    f.terms_ = std::make_shared<const IndexTerms>(std::move(*terms));
  }
  return f;
}

Filter Filter::MatchAll() {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kPresence;
  node->attr = "objectclass";
  Filter f;
  f.root_ = node;
  return f;
}

bool Filter::Matches(const Entry& entry) const {
  return root_ && NodeMatches(*root_, entry);
}

const Filter::IndexTerms& Filter::CandidateTerms() const {
  static const IndexTerms kScan;
  return terms_ ? *terms_ : kScan;
}

std::uint64_t Filter::IndexKey(std::string_view attr, std::string_view value) {
  return Fnv1a(value, Fnv1a(std::string_view("\0", 1), Fnv1a(attr)));
}

std::string Filter::ToString() const {
  return root_ ? NodeToString(*root_) : "()";
}

}  // namespace jamm::directory
