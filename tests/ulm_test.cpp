// Tests for the ULM record format: ASCII parse/serialize round-trips
// (including the paper's literal example), quoting, binary codec, XML
// emission, and randomized property sweeps.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "common/time_util.hpp"
#include "ulm/binary.hpp"
#include "ulm/record.hpp"
#include "ulm/xml.hpp"

namespace jamm::ulm {
namespace {

Record SampleRecord() {
  auto ts = ParseUlmDate("20000330112320.957943");
  Record rec(*ts, "dpss1.lbl.gov", "testProg", std::string(level::kUsage),
             "WriteData");
  rec.SetField("SEND.SZ", std::int64_t{49332});
  return rec;
}

// ------------------------------------------------------------------ ASCII

TEST(UlmAsciiTest, SerializesPaperExample) {
  // Paper §4.2 sample event, verbatim.
  EXPECT_EQ(SampleRecord().ToAscii(),
            "DATE=20000330112320.957943 HOST=dpss1.lbl.gov PROG=testProg "
            "LVL=Usage NL.EVNT=WriteData SEND.SZ=49332");
}

TEST(UlmAsciiTest, ParsesPaperExample) {
  auto rec = Record::FromAscii(
      "DATE=20000330112320.957943 HOST=dpss1.lbl.gov PROG=testProg "
      "LVL=Usage NL.EVNT=WriteData SEND.SZ=49332");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->host(), "dpss1.lbl.gov");
  EXPECT_EQ(rec->prog(), "testProg");
  EXPECT_EQ(rec->lvl(), "Usage");
  EXPECT_EQ(rec->event_name(), "WriteData");
  EXPECT_EQ(*rec->GetInt("SEND.SZ"), 49332);
  EXPECT_EQ(FormatUlmDate(rec->timestamp()), "20000330112320.957943");
}

TEST(UlmAsciiTest, RoundTripsExactly) {
  Record rec = SampleRecord();
  auto parsed = Record::FromAscii(rec.ToAscii());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rec);
}

TEST(UlmAsciiTest, FieldOrderPreserved) {
  Record rec = SampleRecord();
  rec.SetField("B", "2");
  rec.SetField("A", "1");
  auto parsed = Record::FromAscii(rec.ToAscii());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->fields().size(), 3u);
  EXPECT_EQ(parsed->fields()[0].first, "SEND.SZ");
  EXPECT_EQ(parsed->fields()[1].first, "B");
  EXPECT_EQ(parsed->fields()[2].first, "A");
}

TEST(UlmAsciiTest, QuotesValuesWithSpaces) {
  Record rec = SampleRecord();
  rec.SetField("MSG", "server exited with status 1");
  const std::string line = rec.ToAscii();
  EXPECT_NE(line.find("MSG=\"server exited with status 1\""),
            std::string::npos);
  auto parsed = Record::FromAscii(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->GetField("MSG"), "server exited with status 1");
}

TEST(UlmAsciiTest, EscapesQuotesBackslashesNewlines) {
  Record rec = SampleRecord();
  rec.SetField("MSG", "a \"quoted\" \\ multi\nline");
  auto parsed = Record::FromAscii(rec.ToAscii());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->GetField("MSG"), "a \"quoted\" \\ multi\nline");
}

TEST(UlmAsciiTest, EmptyValueQuoted) {
  Record rec = SampleRecord();
  rec.SetField("EMPTY", "");
  auto parsed = Record::FromAscii(rec.ToAscii());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->GetField("EMPTY"), "");
}

TEST(UlmAsciiTest, MissingRequiredFieldRejected) {
  EXPECT_FALSE(Record::FromAscii("HOST=h PROG=p LVL=Usage").ok());     // no DATE
  EXPECT_FALSE(
      Record::FromAscii("DATE=20000101000000.0 PROG=p LVL=Usage").ok());  // no HOST
  EXPECT_FALSE(
      Record::FromAscii("DATE=20000101000000.0 HOST=h LVL=Usage").ok());  // no PROG
  EXPECT_FALSE(
      Record::FromAscii("DATE=20000101000000.0 HOST=h PROG=p").ok());     // no LVL
}

TEST(UlmAsciiTest, MalformedPairsRejected) {
  EXPECT_FALSE(Record::FromAscii("DATE").ok());
  EXPECT_FALSE(Record::FromAscii("DATE=20000101000000.0 HOST=h PROG=p "
                                 "LVL=Usage MSG=\"unterminated")
                   .ok());
  EXPECT_FALSE(Record::FromAscii("=v").ok());
}

TEST(UlmAsciiTest, SetFieldOverwrites) {
  Record rec = SampleRecord();
  rec.SetField("SEND.SZ", std::int64_t{100});
  EXPECT_EQ(*rec.GetInt("SEND.SZ"), 100);
  EXPECT_EQ(rec.fields().size(), 1u);
}

TEST(UlmAsciiTest, SetFieldRoutesRequiredNames) {
  Record rec = SampleRecord();
  rec.SetField("HOST", "other.lbl.gov");
  EXPECT_EQ(rec.host(), "other.lbl.gov");
  EXPECT_TRUE(rec.fields().empty() || rec.fields()[0].first != "HOST");
  rec.SetField("NL.EVNT", "ReadData");
  EXPECT_EQ(rec.event_name(), "ReadData");
}

TEST(UlmAsciiTest, GetDoubleAndMissingField) {
  Record rec = SampleRecord();
  rec.SetField("LOAD", 0.75);
  EXPECT_NEAR(*rec.GetDouble("LOAD"), 0.75, 1e-9);
  EXPECT_FALSE(rec.GetInt("ABSENT").ok());
  EXPECT_FALSE(rec.GetField("ABSENT").has_value());
  EXPECT_TRUE(rec.HasField("LOAD"));
}

TEST(UlmAsciiTest, HugeDoubleValuesSerializeInFull) {
  // Regression (ISSUE 7 S1): SetField(double) formatted into a fixed
  // 32-byte buffer, so any %.6f rendering of 32+ characters (magnitudes
  // from ~1e26 up) was silently truncated — the stored value was a
  // chopped prefix of the real number.
  Record rec = SampleRecord();
  rec.SetField("BIG", 1e300);
  rec.SetField("NEG", -1e300);
  rec.SetField("MAX", std::numeric_limits<double>::max());
  // %.6f of ±1e300 is 301 integer digits plus ".000000".
  ASSERT_TRUE(rec.GetField("BIG").has_value());
  EXPECT_EQ(rec.GetField("BIG")->size(), 308u);
  EXPECT_EQ(rec.GetField("NEG")->size(), 309u);
  EXPECT_DOUBLE_EQ(*rec.GetDouble("BIG"), 1e300);
  EXPECT_DOUBLE_EQ(*rec.GetDouble("NEG"), -1e300);
  EXPECT_DOUBLE_EQ(*rec.GetDouble("MAX"), std::numeric_limits<double>::max());
  auto parsed = Record::FromAscii(rec.ToAscii());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rec);
}

TEST(UlmAsciiTest, ValidateRejectsTabAndNewlineInFieldNames) {
  // Regression (ISSUE 7 S2): Validate rejected space/'='/'"' in field
  // names but let '\t' and '\n' through, even though the ASCII tokenizer
  // treats them as delimiters (keys are never quoted) — a "valid" record
  // serialized into a line that parsed back differently or not at all.
  for (const char* key : {"BAD\tKEY", "BAD\nKEY", "TRAIL\t", "\nLEAD"}) {
    Record rec = SampleRecord();
    rec.SetField(key, "v");
    EXPECT_FALSE(rec.Validate().ok()) << "key accepted: " << key;
  }
}

TEST(UlmAsciiTest, TabDelimitsKeysExactlyLikeSpace) {
  // Companion to the S2 fix: the key scan now stops at '\t' as the value
  // scan always did, so a tab-truncated key is a parse error instead of
  // silently becoming a field name Validate would reject.
  EXPECT_FALSE(Record::FromAscii("DATE=20000101000000.0 HOST=h PROG=p "
                                 "LVL=Usage A\tB=v")
                   .ok());
  // Tabs between pairs are ordinary separators.
  auto rec = Record::FromAscii(
      "DATE=20000101000000.0\tHOST=h\tPROG=p\tLVL=Usage\tK=v");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec->GetField("K"), "v");
}

TEST(UlmAsciiTest, CoreFieldLookupIsUniformWhenEmpty) {
  // Regression (ISSUE 7 S3): GetField("NL.EVNT") returned nullopt when
  // the event name was empty, while HOST/PROG/LVL answered
  // present-and-empty — generic field-driven code saw the core fields
  // behave inconsistently.
  Record rec(0, "", "", "", "");
  for (auto key : {field::kHost, field::kProg, field::kLevel, field::kEvent}) {
    auto got = rec.GetField(key);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(*got, "") << key;
  }
}

TEST(UlmAsciiTest, ValidateCatchesBadRecords) {
  Record rec = SampleRecord();
  EXPECT_TRUE(rec.Validate().ok());
  Record no_host = rec;
  no_host.set_host("");
  EXPECT_FALSE(no_host.Validate().ok());
  Record neg = rec;
  neg.set_timestamp(-1);
  EXPECT_FALSE(neg.Validate().ok());
}

TEST(UlmAsciiTest, ParseLogSkipsBlanksCollectsError) {
  Status error;
  auto records = ParseLog(
      "DATE=20000101000000.0 HOST=h PROG=p LVL=Usage NL.EVNT=A\n"
      "\n"
      "garbage line\n"
      "DATE=20000101000001.0 HOST=h PROG=p LVL=Usage NL.EVNT=B\n",
      &error);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_FALSE(error.ok());
}

// ----------------------------------------------------------------- binary

TEST(UlmBinaryTest, RoundTripsSample) {
  Record rec = SampleRecord();
  std::string data = EncodeBinary(rec);
  std::size_t offset = 0;
  auto decoded = DecodeBinary(data, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(offset, data.size());
  EXPECT_EQ(*decoded, rec);
}

TEST(UlmBinaryTest, StreamsConcatenate) {
  std::string data;
  for (int i = 0; i < 10; ++i) {
    Record rec = SampleRecord();
    rec.set_timestamp(rec.timestamp() + i);
    rec.SetField("SEQ", static_cast<std::int64_t>(i));
    EncodeBinary(rec, data);
  }
  auto decoded = DecodeBinaryStream(data);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*(*decoded)[i].GetInt("SEQ"), i);
  }
}

TEST(UlmBinaryTest, RejectsCorruption) {
  std::string data = EncodeBinary(SampleRecord());
  std::size_t offset = 0;
  std::string bad_magic = data;
  bad_magic[0] = 'Z';
  EXPECT_FALSE(DecodeBinary(bad_magic, &offset).ok());

  offset = 0;
  std::string bad_version = data;
  bad_version[2] = 99;
  EXPECT_FALSE(DecodeBinary(bad_version, &offset).ok());

  offset = 0;
  std::string truncated = data.substr(0, data.size() / 2);
  EXPECT_FALSE(DecodeBinary(truncated, &offset).ok());

  offset = 0;
  EXPECT_FALSE(DecodeBinary("", &offset).ok());
}

// ISSUE 3 satellite: the length check used to be `i + len > data.size()`,
// which wraps when a hostile varint length is near SIZE_MAX — the sum
// passes the bound, substr clamps, and `i += len` rewinds the offset into
// already-consumed input (an infinite loop on a stream decode). These
// tests pin the overflow-safe comparison.

// Varint encoder mirroring the codec's wire format, for crafting hostile
// lengths the real encoder would never emit.
void PutHostileVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

// Valid record header (magic, version, zero timestamp, nfields = 4)
// ready for malicious field bytes.
std::string HostileRecordHeader() {
  std::string data;
  data.push_back('\x4C');  // magic lo ("L")
  data.push_back('\x55');  // magic hi ("U")
  data.push_back('\x01');  // version
  data.append(8, '\0');    // timestamp
  data.push_back('\x04');  // nfields = 4
  return data;
}

TEST(UlmBinaryTest, HostileVarintLengthNearSizeMaxRejected) {
  std::string data = HostileRecordHeader();
  PutHostileVarint(data, ~std::uint64_t{0});  // key length 2^64 - 1
  data += "HOST";                             // residue, far short of len
  std::size_t offset = 0;
  auto decoded = DecodeBinary(data, &offset);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(UlmBinaryTest, WrappingLengthCannotRewindStreamDecode) {
  // A valid record followed by a field whose length is exactly
  // 2^64 - (offset after the varint): with the wrapping comparison the
  // offset would land back on byte 0 and DecodeBinaryStream would decode
  // the leading record forever.
  std::string data = EncodeBinary(SampleRecord());
  data += HostileRecordHeader();
  // The wrap-to-zero length is 10 varint bytes long; aim past them.
  const std::uint64_t len =
      ~static_cast<std::uint64_t>(data.size() + 10) + 1;  // -(i) mod 2^64
  PutHostileVarint(data, len);
  data += "residue bytes";
  auto decoded = DecodeBinaryStream(data);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(UlmBinaryTest, HugeCallerOffsetRejected) {
  std::string data = EncodeBinary(SampleRecord());
  std::size_t offset = ~std::size_t{0} - 4;  // would wrap `offset + 11`
  EXPECT_FALSE(DecodeBinary(data, &offset).ok());
}

TEST(UlmBinaryTest, BinarySmallerThanAsciiForNumericHeavyRecords) {
  Record rec = SampleRecord();
  for (int i = 0; i < 20; ++i) {
    rec.SetField(std::string("F").append(std::to_string(i)),
                 static_cast<std::int64_t>(i * 1000));
  }
  EXPECT_LT(EncodeBinary(rec).size(), rec.ToAscii().size());
}

TEST(UlmBinaryTest, PropertyRandomRecordsRoundTrip) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    Record rec(rng.Uniform(0, 4102444800ll * kSecond),
               "host" + std::to_string(rng.Uniform(0, 99)), "prog",
               std::string(level::kUsage),
               trial % 3 ? "Event" + std::to_string(trial) : "");
    const int nfields = static_cast<int>(rng.Uniform(0, 8));
    for (int f = 0; f < nfields; ++f) {
      std::string value;
      const int len = static_cast<int>(rng.Uniform(0, 20));
      for (int c = 0; c < len; ++c) {
        value += static_cast<char>(rng.Uniform(32, 126));
      }
      rec.SetField(std::string("F").append(std::to_string(f)),
                   std::string_view(value));
    }
    // Binary round-trip.
    std::string data = EncodeBinary(rec);
    std::size_t offset = 0;
    auto bin = DecodeBinary(data, &offset);
    ASSERT_TRUE(bin.ok());
    EXPECT_EQ(*bin, rec);
    // ASCII round-trip.
    auto asc = Record::FromAscii(rec.ToAscii());
    ASSERT_TRUE(asc.ok()) << rec.ToAscii();
    EXPECT_EQ(*asc, rec);
  }
}

// -------------------------------------------------------------------- XML

TEST(UlmXmlTest, EmitsEventElement) {
  const std::string xml = ToXml(SampleRecord());
  EXPECT_NE(xml.find("<event date=\"20000330112320.957943\""),
            std::string::npos);
  EXPECT_NE(xml.find("host=\"dpss1.lbl.gov\""), std::string::npos);
  EXPECT_NE(xml.find("name=\"WriteData\""), std::string::npos);
  EXPECT_NE(xml.find("<field name=\"SEND.SZ\">49332</field>"),
            std::string::npos);
}

TEST(UlmXmlTest, SelfClosesWithoutFields) {
  Record rec(0, "h", "p", "Usage", "E");
  EXPECT_NE(ToXml(rec).find("/>"), std::string::npos);
}

TEST(UlmXmlTest, EscapesSpecials) {
  Record rec(0, "h", "p", "Usage", "E");
  rec.SetField("MSG", "a<b&c>\"d'");
  const std::string xml = ToXml(rec);
  EXPECT_NE(xml.find("a&lt;b&amp;c&gt;&quot;d&apos;"), std::string::npos);
  EXPECT_EQ(xml.find("a<b"), std::string::npos);
}

TEST(UlmXmlTest, DocumentWrapsAll) {
  std::vector<Record> records = {SampleRecord(), SampleRecord()};
  const std::string doc = ToXmlDocument(records);
  EXPECT_NE(doc.find("<?xml version=\"1.0\"?>"), std::string::npos);
  std::size_t count = 0, pos = 0;
  while ((pos = doc.find("<event ", pos)) != std::string::npos) {
    ++count;
    pos += 7;
  }
  EXPECT_EQ(count, 2u);
}

}  // namespace
}  // namespace jamm::ulm
