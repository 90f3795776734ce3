// Fuzz-style corpus tests for the binary ULM decoder (ISSUE 3 satellite).
// The gateway's batched event path feeds DecodeBinary/DecodeBinaryStream
// bytes straight off the wire, so the decoder must treat every input as
// hostile: truncations, oversized varints, bad magic/version, and random
// mutations of valid encodings must return errors (or a valid record),
// never crash, over-read, or fail to terminate.
//
// Deterministic Rng instead of a coverage-guided fuzzer: the toolchain
// has no libFuzzer baked in, and a seeded corpus of tens of thousands of
// mutants pins the same invariants reproducibly.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ulm/binary.hpp"
#include "ulm/flat.hpp"
#include "ulm/record.hpp"
#include "ulm/xml.hpp"

namespace jamm::ulm {
namespace {

Record CorpusRecord(Rng& rng) {
  Record rec(static_cast<TimePoint>(rng.Next() >> 1),
             "host" + std::to_string(rng.Uniform(0, 9)), "prog",
             std::string(level::kUsage),
             rng.Chance(0.8) ? "Ev" + std::to_string(rng.Uniform(0, 99)) : "");
  const int nfields = static_cast<int>(rng.Uniform(0, 12));
  for (int f = 0; f < nfields; ++f) {
    std::string value;
    const int len = static_cast<int>(rng.Uniform(0, 40));
    for (int c = 0; c < len; ++c) {
      value += static_cast<char>(rng.Uniform(0, 255));  // any byte is legal
    }
    rec.SetField(std::string("F").append(std::to_string(f)),
                 std::string_view(value));
  }
  return rec;
}

/// The decoder contract under fire: whatever the bytes, decoding either
/// fails cleanly or yields records, and the out-offset never escapes the
/// buffer or moves backwards (no over-read, no rewind loop).
void MustDecodeSafely(const std::string& data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t before = offset;
    auto rec = DecodeBinary(data, &offset);
    if (!rec.ok()) return;  // clean rejection is success
    ASSERT_LE(offset, data.size()) << "decoder over-read";
    ASSERT_GT(offset, before) << "decoder failed to make progress";
  }
}

TEST(UlmFuzzTest, TruncatedAtEveryByteRejectsOrParsesPrefix) {
  Rng rng(0xFEED01);
  const std::string data = EncodeBinary(CorpusRecord(rng));
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    std::size_t offset = 0;
    auto rec = DecodeBinary(data.substr(0, cut), &offset);
    // A strict prefix can never hold the whole record.
    EXPECT_FALSE(rec.ok()) << "cut=" << cut;
    EXPECT_EQ(offset, 0u) << "failed decode must not move the offset";
  }
}

TEST(UlmFuzzTest, OversizedVarintCorpus) {
  // Header + field-count positions stuffed with varints of every
  // pathological shape: max-length, non-terminated, and wrap-around.
  const std::string header = [] {
    std::string h;
    h.push_back('\x4C');
    h.push_back('\x55');
    h.push_back('\x01');
    h.append(8, '\0');
    return h;
  }();
  const std::vector<std::string> varints = {
      std::string(10, '\xFF') + '\x01',  // 2^70-ish, > 64 bits
      std::string(16, '\xFF'),           // never terminates
      std::string(9, '\xFF') + '\x01',   // 2^63-ish, fits but huge
      std::string(4, '\x80'),            // truncated continuation
  };
  for (const auto& v : varints) {
    // As the field count.
    MustDecodeSafely(header + v);
    // As the first key length (valid field count of 4 first).
    MustDecodeSafely(header + '\x04' + v + "trailing bytes");
  }
}

TEST(UlmFuzzTest, BadMagicAndVersionCorpus) {
  Rng rng(0xFEED02);
  std::string data = EncodeBinary(CorpusRecord(rng));
  for (int b0 = 0; b0 < 256; ++b0) {
    std::string mutant = data;
    mutant[0] = static_cast<char>(b0);
    MustDecodeSafely(mutant);
    mutant = data;
    mutant[1] = static_cast<char>(b0);
    MustDecodeSafely(mutant);
    mutant = data;
    mutant[2] = static_cast<char>(b0);
    MustDecodeSafely(mutant);
  }
}

TEST(UlmFuzzTest, RandomMutationsOfValidEncodingsNeverCrash) {
  Rng rng(0xFEED03);
  for (int trial = 0; trial < 2000; ++trial) {
    // A small stream of 1–4 valid records...
    std::string data;
    const int nrecs = static_cast<int>(rng.Uniform(1, 4));
    for (int r = 0; r < nrecs; ++r) EncodeBinary(CorpusRecord(rng), data);
    // ...with 1–8 random byte flips, insertions, or deletions.
    const int edits = static_cast<int>(rng.Uniform(1, 8));
    for (int e = 0; e < edits && !data.empty(); ++e) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.Uniform(0, static_cast<std::int64_t>(
                                                      data.size() - 1)));
      switch (rng.Uniform(0, 2)) {
        case 0:
          data[pos] = static_cast<char>(rng.Uniform(0, 255));
          break;
        case 1:
          data.insert(pos, 1, static_cast<char>(rng.Uniform(0, 255)));
          break;
        default:
          data.erase(pos, 1);
          break;
      }
    }
    MustDecodeSafely(data);
    // The whole-stream API must agree: error or records, never a hang.
    (void)DecodeBinaryStream(data);
  }
}

TEST(UlmFuzzTest, PureGarbageCorpus) {
  Rng rng(0xFEED04);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string data;
    const int len = static_cast<int>(rng.Uniform(0, 200));
    for (int c = 0; c < len; ++c) {
      data += static_cast<char>(rng.Uniform(0, 255));
    }
    MustDecodeSafely(data);
    (void)DecodeBinaryStream(data);
  }
}

// --------------------------------------------------------- ISSUE 7 corpus

TEST(UlmFuzzTest, HostileKeyCorpusNeverRoundTripsBadKeys) {
  // S2 alignment property: a key containing any of these bytes must fail
  // Validate, and whatever the parser makes of the hostile line, a record
  // that parses AND validates must round-trip. Tab gets the extra
  // delimiter guarantee: it splits a key exactly like space, so a
  // tab-embedded "key" is a malformed pair, not a dirty key.
  Rng rng(0xFEED05);
  const std::string bad_chars = "\t\n =\"";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string key = std::string("K").append(std::to_string(trial));
    // Insert after the first byte: a leading delimiter is just inter-pair
    // whitespace, which says nothing about keys.
    const std::size_t pos =
        static_cast<std::size_t>(rng.Uniform(1, static_cast<std::int64_t>(key.size())));
    key.insert(pos, 1,
               bad_chars[static_cast<std::size_t>(
                   rng.Uniform(0, static_cast<std::int64_t>(bad_chars.size() - 1)))]);
    Record rec(0, "h", "p", "Usage", "E");
    rec.SetField(key, "v");
    EXPECT_FALSE(rec.Validate().ok()) << "key=" << key;
    // Feed the hostile key through the parsers raw.
    const std::string line =
        "DATE=20000330112320.957943 HOST=h PROG=p LVL=Usage " + key + "=v";
    auto parsed = Record::FromAscii(line);
    if (key.find('\t') != std::string::npos) {
      // Tab is a delimiter: the embedded-tab "key" parses as a pair with
      // no '=' and the whole line is rejected.
      EXPECT_FALSE(parsed.ok()) << "line=" << line;
    }
    if (parsed.ok() && parsed->Validate().ok()) {
      auto rt = Record::FromAscii(parsed->ToAscii());
      ASSERT_TRUE(rt.ok()) << "line=" << line;
      EXPECT_EQ(*rt, *parsed);
    }
    auto flat = FlatRecord::FromAscii(line);
    EXPECT_EQ(parsed.ok(), flat.ok()) << "parsers disagree on: " << line;
    if (parsed.ok() && flat.ok()) {
      EXPECT_EQ(flat->ToRecord(), *parsed);
    }
  }
}

TEST(UlmFuzzTest, ExtremeDoubleCorpusRoundTrips) {
  // S1 regression corpus: magnitudes from 2^40 up to DBL_MAX formatted
  // with the grow-on-demand "%.6f" writer. At these magnitudes the
  // 6-decimal rounding error is far below half an ulp, so the ASCII and
  // binary round trips must reproduce the exact double.
  Rng rng(0xFEED06);
  std::vector<double> corpus = {std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max(), 1e300,
                                -1e300, 1e26, -1e26};
  for (int i = 0; i < 500; ++i) {
    const double mant = rng.UniformReal(1.0, 2.0);
    const int exp = static_cast<int>(rng.Uniform(40, 1023));
    corpus.push_back(std::ldexp(rng.Chance(0.5) ? mant : -mant, exp));
  }
  for (double value : corpus) {
    Record rec(0, "h", "p", "Usage", "E");
    rec.SetField("V", value);
    auto ascii = Record::FromAscii(rec.ToAscii());
    ASSERT_TRUE(ascii.ok()) << value;
    EXPECT_EQ(*ascii->GetDouble("V"), value);
    std::size_t offset = 0;
    auto bin = DecodeBinary(EncodeBinary(rec), &offset);
    ASSERT_TRUE(bin.ok()) << value;
    EXPECT_EQ(*bin->GetDouble("V"), value);
    // The flat writer shares the same primitive; byte-identical output.
    FlatRecord flat(0, "h", "p", "Usage", "E");
    flat.SetField("V", value);
    EXPECT_EQ(flat.View().ToAscii(), rec.ToAscii());
  }
}

TEST(UlmFuzzTest, ValidRecordsAlwaysRoundTripThroughEveryCodec) {
  // The Validate ⇒ round-trip property (S5): any record that passes
  // Validate survives ASCII and binary round trips exactly, through the
  // legacy codecs and the flat transcoders alike.
  Rng rng(0xFEED07);
  for (int trial = 0; trial < 500; ++trial) {
    Record rec = CorpusRecord(rng);
    // CorpusRecord draws a raw 63-bit timestamp (fine for the binary
    // codec); the ASCII DATE grammar only spans four-digit years, so pin
    // the property to a representable instant.
    rec.set_timestamp(rng.Uniform(0, 4102444800) * kSecond +
                      rng.Uniform(0, 999999));
    if (!rec.Validate().ok()) continue;  // values are unrestricted; keys pass
    auto ascii = Record::FromAscii(rec.ToAscii());
    ASSERT_TRUE(ascii.ok());
    EXPECT_EQ(*ascii, rec);
    auto flat_ascii = FlatRecord::FromAscii(rec.ToAscii());
    ASSERT_TRUE(flat_ascii.ok());
    EXPECT_EQ(flat_ascii->ToRecord(), rec);
    const FlatRecord flat = FlatRecord::FromRecord(rec);
    EXPECT_EQ(flat.View().ToAscii(), rec.ToAscii());
    EXPECT_EQ(EncodeBinary(flat.View()), EncodeBinary(rec));
  }
}

// ------------------------------------------------- gw.event.xml corpus

/// A corpus record whose DATE the XML grammar can carry (four-digit
/// years, like the ASCII codec).
Record XmlCorpusRecord(Rng& rng) {
  Record rec = CorpusRecord(rng);
  rec.set_timestamp(rng.Uniform(0, 4102444800) * kSecond +
                    rng.Uniform(0, 999999));
  if (rng.Chance(0.5)) rec.SetField("MARKUP", "<a href=\"x\">&amp;'</a>");
  return rec;
}

/// FromXml's contract under fire: whatever the bytes, it fails cleanly or
/// yields a record that re-encodes to exactly those bytes (the parser
/// accepts only what ToXml writes).
void MustParseXmlSafely(const std::string& data) {
  auto rec = FromXml(data);
  if (rec.ok()) {
    ASSERT_EQ(ToXml(*rec), data);
  }
}

TEST(UlmFuzzTest, XmlTruncatedAtEveryByteRejects) {
  Rng rng(0xFEED08);
  for (int trial = 0; trial < 20; ++trial) {
    const std::string xml = ToXml(XmlCorpusRecord(rng));
    ASSERT_TRUE(FromXml(xml).ok()) << xml;
    for (std::size_t cut = 0; cut < xml.size(); ++cut) {
      EXPECT_FALSE(FromXml(xml.substr(0, cut)).ok()) << "cut=" << cut;
    }
  }
}

TEST(UlmFuzzTest, XmlBitFlipsNeverCrashOrMisparse) {
  Rng rng(0xFEED09);
  for (int trial = 0; trial < 100; ++trial) {
    const std::string xml = ToXml(XmlCorpusRecord(rng));
    for (std::size_t pos = 0; pos < xml.size(); ++pos) {
      std::string mutant = xml;
      mutant[pos] = static_cast<char>(mutant[pos] ^ (1 << rng.Uniform(0, 7)));
      MustParseXmlSafely(mutant);
    }
  }
}

TEST(UlmFuzzTest, XmlRandomMutationsAndSplicesNeverCrashOrMisparse) {
  Rng rng(0xFEED0A);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string data = ToXml(XmlCorpusRecord(rng));
    if (rng.Chance(0.2)) data += ToXml(XmlCorpusRecord(rng));  // two elements
    const int edits = static_cast<int>(rng.Uniform(1, 8));
    for (int e = 0; e < edits && !data.empty(); ++e) {
      const std::size_t pos = static_cast<std::size_t>(
          rng.Uniform(0, static_cast<std::int64_t>(data.size() - 1)));
      switch (rng.Uniform(0, 3)) {
        case 0:
          data[pos] = static_cast<char>(rng.Uniform(0, 255));
          break;
        case 1: {
          // Insert markup the grammar cares about.
          static constexpr const char* kTokens[] = {
              "<", ">", "\"", "'", "&", "&amp;", "&bogus;", "/>",
              "</event>", "<field name=\"F0\">", "</field>", " name=\"\""};
          data.insert(pos, kTokens[rng.Uniform(0, 11)]);
          break;
        }
        case 2:
          data.erase(pos, 1);
          break;
        default:
          data.erase(pos, static_cast<std::size_t>(rng.Uniform(1, 16)));
          break;
      }
    }
    MustParseXmlSafely(data);
  }
}

TEST(UlmFuzzTest, XmlGarbageCorpus) {
  Rng rng(0xFEED0B);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string data = rng.Chance(0.5) ? "<event date=\"" : "";
    const int len = static_cast<int>(rng.Uniform(0, 200));
    for (int c = 0; c < len; ++c) {
      data += static_cast<char>(rng.Uniform(0, 255));
    }
    MustParseXmlSafely(data);
  }
}

}  // namespace
}  // namespace jamm::ulm
