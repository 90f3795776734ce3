// Parameterized property sweeps (TEST_P): invariants checked across a
// grid of configurations rather than single examples.
//
//  * ULM round-trip fidelity across codecs × record shapes;
//  * TCP conservation (every byte delivered exactly once, in order,
//    completion) across bandwidth/delay/queue/loss grids;
//  * gateway filter-mode semantics across modes;
//  * directory search-scope counting across tree shapes;
//  * NTP convergence across drift/offset grids.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>

#include "archive/archive.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/time_util.hpp"
#include "directory/schema.hpp"
#include "directory/server.hpp"
#include "federation/republisher.hpp"
#include "gateway/filter.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "gateway/summary.hpp"
#include "transport/inproc.hpp"
#include "netsim/tcp.hpp"
#include "ntp/ntp.hpp"
#include "ulm/binary.hpp"
#include "ulm/flat.hpp"
#include "ulm/record.hpp"
#include "ulm/xml.hpp"

namespace jamm {
namespace {

// ------------------------------------------------------- ULM round-trips

struct UlmShape {
  int field_count;
  bool nasty_values;  // quotes/backslashes/newlines/spaces
  bool with_event_name;
};

class UlmRoundTrip : public ::testing::TestWithParam<UlmShape> {};

ulm::Record RandomRecord(Rng& rng, const UlmShape& shape) {
  ulm::Record rec(rng.Uniform(0, 4102444800ll * kSecond),
                  "host" + std::to_string(rng.Uniform(0, 9)), "prog",
                  "Usage",
                  shape.with_event_name ? "Ev" + std::to_string(rng.Next() % 100)
                                        : "");
  for (int f = 0; f < shape.field_count; ++f) {
    std::string value;
    const int len = static_cast<int>(rng.Uniform(0, 24));
    for (int c = 0; c < len; ++c) {
      value += shape.nasty_values
                   ? static_cast<char>(rng.Uniform(32, 126))
                   : static_cast<char>(rng.Uniform('a', 'z'));
    }
    if (shape.nasty_values && rng.Chance(0.3)) value += "\"\\\n end";
    rec.SetField(std::string("F").append(std::to_string(f)),
                 std::string_view(value));
  }
  return rec;
}

TEST_P(UlmRoundTrip, AsciiAndBinaryPreserveEverything) {
  Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(GetParam().field_count));
  for (int trial = 0; trial < 100; ++trial) {
    const ulm::Record rec = RandomRecord(rng, GetParam());
    auto ascii = ulm::Record::FromAscii(rec.ToAscii());
    ASSERT_TRUE(ascii.ok()) << rec.ToAscii();
    EXPECT_EQ(*ascii, rec);
    std::size_t offset = 0;
    auto binary = ulm::DecodeBinary(ulm::EncodeBinary(rec), &offset);
    ASSERT_TRUE(binary.ok());
    EXPECT_EQ(*binary, rec);
  }
}

// ISSUE 3: the encode-once fan-out hands every subscriber format a cached
// serialization of the SAME record, so the three wire forms must agree
// byte-for-byte on what the record is: crossing codecs (ASCII → binary →
// ASCII, binary → ASCII → binary) must preserve the timestamp, required
// fields, and user-field insertion order exactly, and the XML projection
// of a round-tripped record must be byte-identical to the original's.
TEST_P(UlmRoundTrip, CrossCodecRoundTripsAreByteIdentical) {
  Rng rng(0xBEEF01 ^ static_cast<std::uint64_t>(GetParam().field_count));
  for (int trial = 0; trial < 100; ++trial) {
    const ulm::Record rec = RandomRecord(rng, GetParam());

    // ASCII → binary → ASCII, byte-identical.
    auto from_ascii = ulm::Record::FromAscii(rec.ToAscii());
    ASSERT_TRUE(from_ascii.ok());
    std::size_t offset = 0;
    auto via_binary = ulm::DecodeBinary(ulm::EncodeBinary(*from_ascii),
                                        &offset);
    ASSERT_TRUE(via_binary.ok());
    EXPECT_EQ(via_binary->ToAscii(), rec.ToAscii());

    // binary → ASCII → binary, byte-identical.
    offset = 0;
    auto from_binary = ulm::DecodeBinary(ulm::EncodeBinary(rec), &offset);
    ASSERT_TRUE(from_binary.ok());
    auto via_ascii = ulm::Record::FromAscii(from_binary->ToAscii());
    ASSERT_TRUE(via_ascii.ok());
    EXPECT_EQ(ulm::EncodeBinary(*via_ascii), ulm::EncodeBinary(rec));

    // The XML projection agrees no matter which codec carried the record.
    EXPECT_EQ(ulm::ToXml(*via_binary), ulm::ToXml(rec));
    EXPECT_EQ(ulm::ToXml(*via_ascii), ulm::ToXml(rec));

    // Fine-grained field invariants, so a failure names the culprit.
    EXPECT_EQ(via_binary->timestamp(), rec.timestamp());
    EXPECT_EQ(via_binary->host(), rec.host());
    EXPECT_EQ(via_binary->prog(), rec.prog());
    EXPECT_EQ(via_binary->lvl(), rec.lvl());
    EXPECT_EQ(via_binary->event_name(), rec.event_name());
    EXPECT_EQ(via_binary->fields(), rec.fields());  // insertion order too
  }
}

// gw.event.xml carries ToXml; FromXml must invert it exactly, whichever
// codec carried the record before, so an xml subscriber sees the same
// record an ASCII or batch subscriber does.
TEST_P(UlmRoundTrip, XmlCrossCodecRoundTripIsIdentity) {
  Rng rng(0xBEEF05 ^ static_cast<std::uint64_t>(GetParam().field_count));
  for (int trial = 0; trial < 100; ++trial) {
    const ulm::Record rec = RandomRecord(rng, GetParam());
    const std::string xml = ulm::ToXml(rec);
    auto from_xml = ulm::FromXml(xml);
    ASSERT_TRUE(from_xml.ok()) << xml << ": " << from_xml.status().ToString();
    EXPECT_EQ(*from_xml, rec);
    EXPECT_EQ(from_xml->ToAscii(), rec.ToAscii());
    EXPECT_EQ(ulm::EncodeBinary(*from_xml), ulm::EncodeBinary(rec));

    // ASCII → XML → binary and binary → XML → ASCII, byte-identical.
    auto from_ascii = ulm::Record::FromAscii(rec.ToAscii());
    ASSERT_TRUE(from_ascii.ok());
    auto via_xml = ulm::FromXml(ulm::ToXml(*from_ascii));
    ASSERT_TRUE(via_xml.ok());
    EXPECT_EQ(ulm::EncodeBinary(*via_xml), ulm::EncodeBinary(rec));
    std::size_t offset = 0;
    auto from_binary = ulm::DecodeBinary(ulm::EncodeBinary(rec), &offset);
    ASSERT_TRUE(from_binary.ok());
    via_xml = ulm::FromXml(ulm::ToXml(*from_binary));
    ASSERT_TRUE(via_xml.ok());
    EXPECT_EQ(via_xml->ToAscii(), rec.ToAscii());

    // The flat transcoder's XML decodes to the same record.
    auto from_flat = ulm::FromXml(ulm::FlatRecord::FromRecord(rec).View().ToXml());
    ASSERT_TRUE(from_flat.ok());
    EXPECT_EQ(*from_flat, rec);
  }
}

// Batch framing (gw.event.batch) is a bare concatenation of
// self-delimiting binary records: batch-encode → batch-decode must be the
// identity on random record vectors, in order and in full.
TEST_P(UlmRoundTrip, BatchEncodeDecodeIsIdentity) {
  Rng rng(0xBEEF02 ^ static_cast<std::uint64_t>(GetParam().field_count));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ulm::Record> batch;
    const int n = static_cast<int>(rng.Uniform(0, 40));
    std::string wire;
    for (int i = 0; i < n; ++i) {
      batch.push_back(RandomRecord(rng, GetParam()));
      ulm::EncodeBinary(batch.back(), wire);
    }
    auto decoded = ulm::DecodeBinaryStream(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, batch);
  }
}

// ISSUE 7: the flat core's codecs are TRANSCODERS — a RecordView must
// serialize byte-identically to the equivalent legacy Record in every
// wire format, whichever way the flat record was built (converted from a
// Record or parsed from ASCII). This is the invariant that lets flat and
// legacy components interoperate on the wire indefinitely.
TEST_P(UlmRoundTrip, FlatTranscodersAreByteIdenticalToLegacy) {
  Rng rng(0xBEEF03 ^ static_cast<std::uint64_t>(GetParam().field_count));
  for (int trial = 0; trial < 100; ++trial) {
    const ulm::Record rec = RandomRecord(rng, GetParam());

    // Built by conversion.
    const ulm::FlatRecord flat = ulm::FlatRecord::FromRecord(rec);
    const ulm::RecordView view = flat.View();
    EXPECT_EQ(view.ToAscii(), rec.ToAscii());
    EXPECT_EQ(ulm::EncodeBinary(view), ulm::EncodeBinary(rec));
    EXPECT_EQ(view.ToXml(), ulm::ToXml(rec));
    EXPECT_EQ(view.ToRecord(), rec);

    // Built by the flat ASCII parser.
    auto parsed = ulm::FlatRecord::FromAscii(rec.ToAscii());
    ASSERT_TRUE(parsed.ok()) << rec.ToAscii();
    EXPECT_EQ(parsed->View().ToAscii(), rec.ToAscii());
    EXPECT_EQ(ulm::EncodeBinary(parsed->View()), ulm::EncodeBinary(rec));
  }
}

// The batched flat decoder and the legacy stream decoder must agree on
// every stream: same records, in order, and re-encoding each decoded view
// reproduces the wire bytes exactly.
TEST_P(UlmRoundTrip, FlatBatchDecodeMatchesLegacyStreamDecode) {
  Rng rng(0xBEEF04 ^ static_cast<std::uint64_t>(GetParam().field_count));
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.Uniform(0, 40));
    std::string wire;
    for (int i = 0; i < n; ++i) {
      ulm::EncodeBinary(RandomRecord(rng, GetParam()), wire);
    }
    auto legacy = ulm::DecodeBinaryStream(wire);
    ASSERT_TRUE(legacy.ok());
    ulm::FlatBatch batch;
    ASSERT_TRUE(batch.DecodeBinaryStreamInto(wire).ok());
    ASSERT_EQ(batch.size(), legacy->size());
    std::string reencoded;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch.View(i).ToRecord(), (*legacy)[i]);
      batch.View(i).EncodeBinary(reencoded);
    }
    EXPECT_EQ(reencoded, wire);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UlmRoundTrip,
    ::testing::Values(UlmShape{0, false, true}, UlmShape{1, false, true},
                      UlmShape{4, true, true}, UlmShape{16, true, false},
                      UlmShape{64, true, true}),
    [](const ::testing::TestParamInfo<UlmShape>& info) {
      return "fields" + std::to_string(info.param.field_count) +
             (info.param.nasty_values ? "_nasty" : "_plain") +
             (info.param.with_event_name ? "_named" : "_anon");
    });

// ---------------------------------------------------- TCP conservation

struct TcpCase {
  double bandwidth_mbps;
  int delay_ms;
  int queue_packets;
  double loss;
};

class TcpConservation : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpConservation, EveryByteDeliveredExactlyOnceInOrder) {
  const TcpCase& c = GetParam();
  netsim::Simulator sim;
  netsim::Network net(sim, 0xBEEF);
  netsim::NodeId src = net.AddNode("src");
  netsim::NodeId dst = net.AddNode("dst");
  netsim::LinkConfig link;
  link.bandwidth_bps = c.bandwidth_mbps * 1e6;
  link.delay = c.delay_ms * kMillisecond;
  link.queue_packets = static_cast<std::size_t>(c.queue_packets);
  link.random_loss = c.loss;
  net.Connect(src, dst, link);

  netsim::TcpConfig config;
  config.total_bytes = 600 * 1024;
  netsim::TcpFlow flow(net, src, dst, config);
  std::uint64_t delivered = 0;
  bool monotone = true;
  flow.on_deliver = [&](std::uint64_t bytes, TimePoint) {
    monotone = monotone && bytes > 0;
    delivered += bytes;
  };
  flow.Start();
  sim.RunUntil(10 * kMinute);

  ASSERT_TRUE(flow.complete())
      << "bw=" << c.bandwidth_mbps << " delay=" << c.delay_ms
      << " q=" << c.queue_packets << " loss=" << c.loss;
  EXPECT_EQ(delivered, config.total_bytes);          // exactly once
  EXPECT_EQ(flow.stats().bytes_acked, config.total_bytes);
  EXPECT_TRUE(monotone);
  if (c.loss > 0 || c.queue_packets <= 16) {
    EXPECT_GT(flow.stats().retransmits, 0u);  // machinery was exercised
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpConservation,
    ::testing::Values(TcpCase{100, 1, 256, 0},    // clean LAN-ish
                      TcpCase{100, 1, 8, 0},      // tiny queue
                      TcpCase{10, 30, 32, 0},     // slow WAN
                      TcpCase{100, 5, 64, 0.01},  // 1% loss
                      TcpCase{50, 30, 64, 0.03},  // lossy WAN
                      TcpCase{622, 30, 512, 0},   // OC-12-like
                      TcpCase{1, 1, 16, 0.05}),   // awful path
    [](const ::testing::TestParamInfo<TcpCase>& info) {
      const TcpCase& c = info.param;
      return "bw" + std::to_string(static_cast<int>(c.bandwidth_mbps)) +
             "_d" + std::to_string(c.delay_ms) + "_q" +
             std::to_string(c.queue_packets) + "_l" +
             std::to_string(static_cast<int>(c.loss * 100));
    });

// ------------------------------------------------- gateway filter modes

struct FilterCase {
  const char* spec;
  // Deliveries expected for the value sequence below.
  std::vector<int> delivered_indices;
};

const double kValueSequence[] = {40, 40, 55, 55, 45, 80, 80, 30};

class FilterModes : public ::testing::TestWithParam<FilterCase> {};

TEST_P(FilterModes, DeliveryPatternMatchesSemantics) {
  auto spec = gateway::FilterSpec::Parse(GetParam().spec);
  ASSERT_TRUE(spec.ok());
  gateway::EventFilter filter(*spec);
  std::vector<int> delivered;
  for (int i = 0; i < static_cast<int>(std::size(kValueSequence)); ++i) {
    ulm::Record rec(i, "h", "p", "Usage", "CPU");
    rec.SetField("VAL", kValueSequence[i]);
    if (filter.ShouldDeliver(rec)) delivered.push_back(i);
  }
  EXPECT_EQ(delivered, GetParam().delivered_indices) << GetParam().spec;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FilterModes,
    ::testing::Values(
        // all: everything.
        FilterCase{"all", {0, 1, 2, 3, 4, 5, 6, 7}},
        // on-change: first sample + every change.
        FilterCase{"on-change", {0, 2, 4, 5, 7}},
        // threshold 50: crossings (up at 2, down at 4, up at 5, down at 7).
        FilterCase{"threshold:50", {2, 4, 5, 7}},
        // delta 25%: 40→55 (+37%), 55→80 (+45%), 80→30 (-62%).
        FilterCase{"delta:25", {0, 2, 5, 7}}),
    [](const ::testing::TestParamInfo<FilterCase>& info) {
      std::string name = info.param.spec;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --------------------------------------------------- directory scopes

struct ScopeCase {
  directory::SearchScope scope;
  int hosts;
  int sensors_per_host;
  std::size_t expected;  // entries matched from the suffix base
};

class DirectoryScopes : public ::testing::TestWithParam<ScopeCase> {};

TEST_P(DirectoryScopes, SubtreeCountsMatch) {
  const ScopeCase& c = GetParam();
  auto suffix = *directory::Dn::Parse("ou=sensors, o=jamm");
  directory::DirectoryServer server(suffix, "bench");
  for (int h = 0; h < c.hosts; ++h) {
    const std::string host = "h" + std::to_string(h);
    (void)server.Upsert(directory::schema::MakeHostEntry(suffix, host));
    for (int s = 0; s < c.sensors_per_host; ++s) {
      (void)server.Upsert(directory::schema::MakeSensorEntry(
          suffix, host, std::string("s").append(std::to_string(s)), "cpu",
          "gw", 1000, 0));
    }
  }
  auto result = server.Search(suffix, c.scope, directory::Filter::MatchAll());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->entries.size(), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Scopes, DirectoryScopes,
    ::testing::Values(
        ScopeCase{directory::SearchScope::kBase, 3, 4, 0},  // suffix has no entry
        ScopeCase{directory::SearchScope::kOneLevel, 3, 4, 3},
        ScopeCase{directory::SearchScope::kSubtree, 3, 4, 15},
        ScopeCase{directory::SearchScope::kSubtree, 10, 0, 10},
        ScopeCase{directory::SearchScope::kOneLevel, 0, 0, 0}),
    [](const ::testing::TestParamInfo<ScopeCase>& info) {
      const char* scope = info.param.scope == directory::SearchScope::kBase
                              ? "base"
                          : info.param.scope ==
                                  directory::SearchScope::kOneLevel
                              ? "onelevel"
                              : "subtree";
      return std::string(scope) + "_h" + std::to_string(info.param.hosts) +
             "_s" + std::to_string(info.param.sensors_per_host);
    });

// ------------------------------------------------------ NTP convergence

struct NtpCase {
  int offset_ms;   // initial clock error (may be negative)
  int drift_ppm;
};

class NtpConvergence : public ::testing::TestWithParam<NtpCase> {};

TEST_P(NtpConvergence, DaemonConvergesAndHolds) {
  const NtpCase& c = GetParam();
  netsim::Simulator sim;
  netsim::Network net(sim, 5);
  netsim::NodeId server_node = net.AddNode("server");
  netsim::NodeId client_node = net.AddNode("client");
  netsim::LinkConfig link;
  link.bandwidth_bps = 100e6;
  link.delay = 500;
  link.jitter = 100;
  net.Connect(server_node, client_node, link);

  ntp::HostClock clock(sim.clock(), c.offset_ms * kMillisecond,
                       c.drift_ppm);
  ntp::SntpServer server(net, server_node);
  ntp::SntpClient client(net, client_node, clock, server);
  ntp::NtpDaemon daemon(sim, client, 32 * kSecond);
  daemon.Start();
  sim.RunFor(5 * kMinute);  // converge
  // Hold phase: error must stay bounded for another 10 minutes.
  Duration worst = 0;
  for (int s = 0; s < 600; ++s) {
    sim.RunFor(kSecond);
    worst = std::max<Duration>(worst, std::abs(clock.ErrorVsTrue()));
  }
  EXPECT_LT(worst, 2 * kMillisecond)
      << "offset=" << c.offset_ms << "ms drift=" << c.drift_ppm << "ppm";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NtpConvergence,
    ::testing::Values(NtpCase{0, 0}, NtpCase{500, 50}, NtpCase{-2000, 100},
                      NtpCase{10000, -150}, NtpCase{-60000, 300}),
    [](const ::testing::TestParamInfo<NtpCase>& info) {
      auto absname = [](int v) {
        return v < 0 ? "neg" + std::to_string(-v) : std::to_string(v);
      };
      return "off" + absname(info.param.offset_ms) + "ms_drift" +
             absname(info.param.drift_ppm) + "ppm";
    });

// -------------------------------------------- segmented archive (ISSUE 5)

struct ArchiveShape {
  std::size_t stripes;
  std::size_t max_records;
  double normal_fraction;
};

class ArchiveQueries : public ::testing::TestWithParam<ArchiveShape> {};

std::vector<std::string> ArchiveAscii(const std::vector<ulm::Record>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& rec : rows) out.push_back(rec.ToAscii());
  return out;
}

// Any query equals a brute-force filter of the full kept-record set: the
// per-segment pruning indexes may only skip work, never records. The full
// QueryRange order is deterministic (time, then segment id, then arrival),
// so a narrower query must be an exact ordered subsequence of it.
TEST_P(ArchiveQueries, EqualBruteForceFilterOverKeptRecords) {
  const ArchiveShape& shape = GetParam();
  archive::SegmentConfig config;
  config.stripes = shape.stripes;
  config.max_records = shape.max_records;
  archive::EventArchive ar("prop", 11, config);
  ar.SetSamplingPolicy(shape.normal_fraction);

  Rng rng(0xA7C4 ^ shape.max_records);
  for (int i = 0; i < 600; ++i) {
    ulm::Record rec(rng.Uniform(0, 1000) * kSecond,
                    "host" + std::to_string(rng.Uniform(0, 3)), "prog",
                    rng.Chance(0.1) ? "Error" : "Usage",
                    "Ev" + std::to_string(rng.Uniform(0, 9)));
    rec.SetField("VAL", static_cast<std::int64_t>(i));
    ar.Ingest(rec);
  }
  const auto kept = ar.QueryRange(0, 2000 * kSecond);
  EXPECT_EQ(kept.size(), ar.size());

  auto expect_filtered =
      [&](const std::vector<ulm::Record>& got, TimePoint t0, TimePoint t1,
          const std::function<bool(const ulm::Record&)>& pred) {
        std::vector<ulm::Record> want;
        for (const auto& rec : kept) {
          if (rec.timestamp() >= t0 && rec.timestamp() < t1 && pred(rec)) {
            want.push_back(rec);
          }
        }
        EXPECT_EQ(ArchiveAscii(got), ArchiveAscii(want));
      };

  for (int trial = 0; trial < 40; ++trial) {
    const TimePoint t0 = rng.Uniform(0, 1000) * kSecond;
    const TimePoint t1 = t0 + rng.Uniform(0, 400) * kSecond;
    expect_filtered(ar.QueryRange(t0, t1), t0, t1,
                    [](const ulm::Record&) { return true; });
    const std::string glob = rng.Chance(0.5)
                                 ? "Ev" + std::to_string(rng.Uniform(0, 9))
                                 : "Ev*";
    expect_filtered(ar.QueryEvents(glob, t0, t1), t0, t1,
                    [&](const ulm::Record& rec) {
                      return GlobMatch(glob, rec.event_name());
                    });
    const std::string host = "host" + std::to_string(rng.Uniform(0, 4));
    expect_filtered(ar.QueryHost(host, t0, t1), t0, t1,
                    [&](const ulm::Record& rec) { return rec.host() == host; });
  }
}

// Save → Load preserves everything observable: every query answers
// byte-identically, and compaction — whose keep decision hashes record
// bytes with the sampling seed — removes exactly the same records whether
// it runs before the round trip or after.
TEST_P(ArchiveQueries, SaveLoadRoundTripIsObservationallyIdentical) {
  const ArchiveShape& shape = GetParam();
  archive::SegmentConfig config;
  config.stripes = shape.stripes;
  config.max_records = shape.max_records;
  archive::EventArchive ar("prop", 23, config);
  ar.SetSamplingPolicy(shape.normal_fraction);

  Rng rng(0xF00D ^ shape.stripes);
  for (int i = 0; i < 500; ++i) {
    ulm::Record rec(rng.Uniform(0, 800) * kSecond,
                    "host" + std::to_string(rng.Uniform(0, 3)), "prog",
                    rng.Chance(0.1) ? "Warning" : "Usage",
                    "Ev" + std::to_string(rng.Uniform(0, 6)));
    rec.SetField("VAL", static_cast<std::int64_t>(i));
    ar.Ingest(rec);
  }
  // Loading seals everything, so seal here too: the compaction comparison
  // below needs both archives to see the same sealed segments.
  ar.SealActive();
  auto loaded = archive::EventArchive::LoadFromBytes("prop", ar.SaveToBytes(),
                                                     23, config);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->load_stats().ok());
  EXPECT_EQ(loaded->size(), ar.size());

  for (int trial = 0; trial < 20; ++trial) {
    const TimePoint t0 = rng.Uniform(0, 800) * kSecond;
    const TimePoint t1 = t0 + rng.Uniform(0, 300) * kSecond;
    EXPECT_EQ(ArchiveAscii(ar.QueryRange(t0, t1)),
              ArchiveAscii(loaded->QueryRange(t0, t1)));
  }

  archive::CompactionPolicy policy;
  policy.tiers = {{kHour, 0.2}};
  ar.SetCompactionPolicy(policy);
  loaded->SetCompactionPolicy(policy);
  const TimePoint when = ar.TimeSpan().second + 2 * kHour;
  EXPECT_EQ(ar.Compact(when), loaded->Compact(when));
  EXPECT_EQ(ArchiveAscii(ar.QueryRange(0, 2000 * kSecond)),
            ArchiveAscii(loaded->QueryRange(0, 2000 * kSecond)));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ArchiveQueries,
    ::testing::Values(ArchiveShape{1, 32, 1.0}, ArchiveShape{1, 8, 0.5},
                      ArchiveShape{4, 64, 1.0}, ArchiveShape{8, 16, 0.3},
                      ArchiveShape{2, 512, 0.8}),
    [](const ::testing::TestParamInfo<ArchiveShape>& info) {
      return "s" + std::to_string(info.param.stripes) + "_r" +
             std::to_string(info.param.max_records) + "_f" +
             std::to_string(static_cast<int>(info.param.normal_fraction * 10));
    });

// --------------------------------------- federation pushdown equivalence

// ISSUE 6: where a filter spec is evaluated must be invisible to the
// subscriber. For every filter mode, a republisher whose downstream
// accepts pushdown (spec evaluated at the leaf gateway) and a republisher
// that falls back to local evaluation (spec evaluated against the leaf's
// base stream) must deliver byte-identical ASCII, record for record, over
// a seeded random stream.
struct FederationSpec {
  const char* spec;
  std::uint64_t seed;
};

class FederationEquivalence
    : public ::testing::TestWithParam<FederationSpec> {};

TEST_P(FederationEquivalence, PushdownAndLocalEvalAreByteIdentical) {
  SimClock clock;
  transport::InProcNetwork net;

  // Two independent leaf→site stacks; only `supports_pushdown` differs.
  gateway::EventGateway leaf_p("p-leaf", clock), leaf_f("f-leaf", clock);
  auto listener_p = net.Listen("p-leaf");
  auto listener_f = net.Listen("f-leaf");
  ASSERT_TRUE(listener_p.ok());
  ASSERT_TRUE(listener_f.ok());
  gateway::GatewayService service_p(leaf_p, std::move(*listener_p));
  gateway::GatewayService service_f(leaf_f, std::move(*listener_f));
  federation::RepublisherGateway site_p("p-site", clock);
  federation::RepublisherGateway site_f("f-site", clock);
  ASSERT_TRUE(site_p.AddDownstream(
                        {.name = "p-leaf",
                         .dialer = [&net] { return net.Dial("p-leaf"); },
                         .supports_pushdown = true,
                         .auth_payload = ""})
                  .ok());
  ASSERT_TRUE(site_f.AddDownstream(
                        {.name = "f-leaf",
                         .dialer = [&net] { return net.Dial("f-leaf"); },
                         .supports_pushdown = false,
                         .auth_payload = ""})
                  .ok());

  auto spec = gateway::FilterSpec::Parse(GetParam().spec);
  ASSERT_TRUE(spec.ok()) << GetParam().spec;
  std::vector<std::string> out_p, out_f;
  ASSERT_TRUE(site_p
                  .SubscribeEncoded("c", *spec,
                                    [&](const ulm::EncodedRecord& enc) {
                                      out_p.push_back(enc.Ascii());
                                    })
                  .ok());
  ASSERT_TRUE(site_f
                  .SubscribeEncoded("c", *spec,
                                    [&](const ulm::EncodedRecord& enc) {
                                      out_f.push_back(enc.Ascii());
                                    })
                  .ok());
  // Let the pushdown subscription (and the fallback base feed) reach the
  // leaves before data flows.
  site_p.Pump();
  site_f.Pump();
  service_p.PollOnce();
  service_f.PollOnce();

  Rng rng(GetParam().seed);
  const char* events[] = {"CPU0", "CPU9", "MEM"};  // MEM never matches
  TimePoint ts = kSecond;
  for (int i = 0; i < 200; ++i) {
    // Strictly increasing timestamps keep publish order == merge order,
    // so both stateful filter instances see the same sequence.
    ts += rng.Uniform(1, 2 * kSecond);
    ulm::Record rec(ts, "h" + std::to_string(rng.Uniform(0, 3)), "sensor",
                    "Usage", events[rng.Uniform(0, 2)]);
    rec.SetField("VAL", static_cast<double>(rng.Uniform(0, 100)));
    leaf_p.Publish(rec);
    leaf_f.Publish(rec);
    if (i % 10 == 9) {
      clock.Advance(100 * kMillisecond);  // past batch_max_age: flush
      service_p.PollOnce();
      service_f.PollOnce();
      site_p.Pump();
      site_f.Pump();
    }
  }
  for (int i = 0; i < 3; ++i) {  // drain stragglers
    clock.Advance(100 * kMillisecond);
    service_p.PollOnce();
    service_f.PollOnce();
    site_p.Pump();
    site_f.Pump();
  }

  EXPECT_FALSE(out_p.empty()) << GetParam().spec;
  EXPECT_EQ(out_p, out_f);
  // And the two paths really were different paths.
  EXPECT_GT(site_p.stats().pushdown_records, 0u);
  EXPECT_EQ(site_f.stats().pushdown_records, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, FederationEquivalence,
    ::testing::Values(FederationSpec{"all|CPU*", 0xF0A},
                      FederationSpec{"on-change|CPU*", 0xF0B},
                      FederationSpec{"threshold:50|CPU*", 0xF0C},
                      FederationSpec{"delta:20|CPU*", 0xF0D}),
    [](const ::testing::TestParamInfo<FederationSpec>& info) {
      std::string name(info.param.spec);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// The summary side of pushdown: merging per-leaf window summaries
// (weighted by sample count) must agree with one window that saw every
// sample, no matter how samples are partitioned across leaves.
TEST(FederationSummaryProperty, MergedLeafWindowsMatchGlobalWindow) {
  Rng rng(0x5CA1E);
  for (int trial = 0; trial < 20; ++trial) {
    const int leaves = static_cast<int>(rng.Uniform(1, 5));
    std::vector<gateway::SummaryWindow> windows(leaves);
    gateway::SummaryWindow global;
    TimePoint ts = kSecond;
    const int samples = static_cast<int>(rng.Uniform(10, 200));
    for (int i = 0; i < samples; ++i) {
      ts += rng.Uniform(1, 3 * kSecond);
      const double value = rng.UniformReal(0, 100);
      windows[rng.Uniform(0, leaves - 1)].Add(ts, value);
      global.Add(ts, value);
    }
    const TimePoint now = ts;

    SimClock clock(now);
    transport::InProcNetwork net;
    auto sink = net.Listen("x");  // dialable endpoint; never polled
    ASSERT_TRUE(sink.ok());
    federation::RepublisherGateway::Options options;
    options.summary_fetcher =
        [&](const std::string& child, gateway::GatewayClient&,
            const std::string&) -> Result<gateway::SummaryData> {
      auto index = ParseInt(child.substr(child.find('-') + 1));
      EXPECT_TRUE(index.ok());
      return windows[*index].Compute(now);
    };
    federation::RepublisherGateway site("site", clock, options);
    for (int leaf = 0; leaf < leaves; ++leaf) {
      const std::string name = "leaf-" + std::to_string(leaf);
      ASSERT_TRUE(
          site.AddDownstream({.name = name,
                              .dialer = [&net] { return net.Dial("x"); },
                              .auth_payload = ""})
              .ok());
    }

    auto merged = site.GetSummary("CPU");
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    const gateway::SummaryData expect = global.Compute(now);
    EXPECT_EQ(merged->count_1m, expect.count_1m);
    EXPECT_EQ(merged->count_10m, expect.count_10m);
    EXPECT_EQ(merged->count_60m, expect.count_60m);
    EXPECT_NEAR(merged->avg_1m, expect.avg_1m, 1e-9);
    EXPECT_NEAR(merged->avg_10m, expect.avg_10m, 1e-9);
    EXPECT_NEAR(merged->avg_60m, expect.avg_60m, 1e-9);
  }
}

}  // namespace
}  // namespace jamm
