#include "consumers/dashboard.hpp"

#include <cstdio>

#include "directory/schema.hpp"

namespace jamm::consumers {
namespace {

std::string Pad(std::string text, std::size_t width) {
  if (text.size() > width) {
    text.resize(width > 1 ? width - 1 : width);
    text += "…";
  }
  text.resize(width, ' ');
  return text;
}

}  // namespace

std::string RenderSensorTable(directory::DirectoryPool& pool,
                              const directory::Dn& suffix,
                              const std::string& principal) {
  namespace schema = directory::schema;
  auto result =
      pool.Search(suffix, directory::SearchScope::kSubtree,
                  *directory::Filter::Parse("(objectclass=jammSensor)"),
                  principal);
  std::string out;
  out += Pad("SENSOR", 14) + Pad("HOST", 18) + Pad("TYPE", 10) +
         Pad("STATUS", 9) + Pad("FREQ", 8) + Pad("GATEWAY", 18) +
         Pad("START TIME", 22) + "\n";
  if (!result.ok()) {
    out += "  <directory unavailable: " + result.status().ToString() + ">\n";
    return out;
  }
  for (const auto& entry : result->entries) {
    out += Pad(entry.Get(schema::kAttrSensorName), 14);
    out += Pad(entry.Get(schema::kAttrHost), 18);
    out += Pad(entry.Get(schema::kAttrSensorType), 10);
    out += Pad(entry.Get(schema::kAttrStatus), 9);
    out += Pad(entry.Get(schema::kAttrFrequencyMs) + "ms", 8);
    out += Pad(entry.Get(schema::kAttrGateway), 18);
    out += Pad(entry.Get(schema::kAttrStartTime), 22);
    out += "\n";
  }
  out += '(';
  out += std::to_string(result->entries.size());
  out += " sensors)\n";
  return out;
}

std::string RenderArchiveTable(directory::DirectoryPool& pool,
                               const directory::Dn& suffix,
                               const std::string& principal) {
  namespace schema = directory::schema;
  auto result =
      pool.Search(suffix, directory::SearchScope::kSubtree,
                  *directory::Filter::Parse("(objectclass=jammArchive)"),
                  principal);
  std::string out;
  out += Pad("ARCHIVE", 16) + Pad("ADDRESS", 20) + "CONTENTS\n";
  if (!result.ok()) {
    out += "  <directory unavailable: " + result.status().ToString() + ">\n";
    return out;
  }
  for (const auto& entry : result->entries) {
    out += Pad(entry.dn().leaf().value, 16);
    out += Pad(entry.Get(schema::kAttrAddress), 20);
    out += entry.Get(schema::kAttrContents);
    out += "\n";
  }
  out += '(';
  out += std::to_string(result->entries.size());
  out += " archives)\n";
  return out;
}

}  // namespace jamm::consumers
