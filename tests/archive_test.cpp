// Tests for the segmented event archive (ISSUE 5): sealing bounds, query
// pruning against the per-segment indexes, age-tiered compaction,
// checksummed persistence with corrupt-segment skipping, concurrent
// ingest/query exactness (the `archive` label runs under TSan), the
// ArchiveQueryService/ArchiveClient rpc pair, and the seeded end-to-end
// gateway → archiver → archive → client round trip with a mid-ingest
// gateway crash.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "archive/query.hpp"
#include "archive/segment.hpp"
#include "consumers/archiver.hpp"
#include "directory/replication.hpp"
#include "directory/schema.hpp"
#include "gateway/gateway.hpp"
#include "gateway/service.hpp"
#include "rpc/registry.hpp"
#include "rpc/wire.hpp"
#include "transport/inproc.hpp"

namespace jamm::archive {
namespace {

using directory::Dn;

ulm::Record Event(TimePoint ts, const std::string& name, double value,
                  const std::string& host = "h1",
                  const std::string& lvl = "Usage") {
  ulm::Record rec(ts, host, "sensor", lvl, name);
  rec.SetField("VAL", value);
  return rec;
}

std::vector<std::string> Ascii(const std::vector<ulm::Record>& records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (const auto& rec : records) out.push_back(rec.ToAscii());
  return out;
}

std::set<double> Vals(const std::vector<ulm::Record>& records) {
  std::set<double> out;
  for (const auto& rec : records) {
    auto val = rec.GetDouble("VAL");
    EXPECT_TRUE(val.ok());
    out.insert(*val);
  }
  // A set the same size as its source has no duplicates.
  EXPECT_EQ(out.size(), records.size());
  return out;
}

// ------------------------------------------------------------------ sealing

TEST(SegmentedArchiveTest, SealsAtRecordBound) {
  SegmentConfig config;
  config.max_records = 10;
  config.stripes = 1;
  EventArchive ar("a", 1, config);
  for (int i = 0; i < 25; ++i) {
    ar.Ingest(Event(i * kSecond, "E", i));
  }
  EXPECT_EQ(ar.size(), 25u);
  EXPECT_EQ(ar.seal_count(), 2u);    // two full segments sealed
  EXPECT_EQ(ar.segment_count(), 3u); // plus the active remainder
  EXPECT_EQ(ar.SealActive(), 1u);
  EXPECT_EQ(ar.seal_count(), 3u);
}

TEST(SegmentedArchiveTest, SealsAtSpanBound) {
  SegmentConfig config;
  config.max_records = 1000000;
  config.max_span = 10 * kSecond;
  config.stripes = 1;
  EventArchive ar("a", 1, config);
  for (int i = 0; i <= 30; ++i) {
    ar.Ingest(Event(i * kSecond, "E", i));
  }
  // Spans of 10 s force a seal roughly every 11 records.
  EXPECT_GE(ar.seal_count(), 2u);
  EXPECT_EQ(ar.size(), 31u);
  auto [min_ts, max_ts] = ar.TimeSpan();
  EXPECT_EQ(min_ts, 0);
  EXPECT_EQ(max_ts, 30 * kSecond);
}

// ------------------------------------------------------------------ pruning

class PrunedQueryTest : public ::testing::Test {
 protected:
  PrunedQueryTest() : ar_("a", 1, OneStripe()) {
    // Three sealed segments in disjoint hour-apart windows, each with its
    // own event name and host.
    for (int s = 0; s < 3; ++s) {
      for (int i = 0; i < 10; ++i) {
        ar_.Ingest(Event(s * kHour + i * kSecond, "EVT_" + std::string(1, 'A' + s),
                         s * 100 + i, "host" + std::to_string(s)));
      }
      ar_.SealActive();
    }
  }

  static SegmentConfig OneStripe() {
    SegmentConfig config;
    config.stripes = 1;
    return config;
  }

  EventArchive ar_;
};

TEST_F(PrunedQueryTest, TimeRangePrunesNonCoveringSegments) {
  QueryStats stats;
  auto rows = ar_.QueryRange(kHour, kHour + 5 * kSecond, &stats);
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_EQ(stats.segments_total, 3u);
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(stats.segments_pruned, 2u);
  EXPECT_EQ(stats.records_returned, 5u);
}

TEST_F(PrunedQueryTest, EventGlobPrunesViaEventIndex) {
  QueryStats stats;
  auto rows = ar_.QueryEvents("EVT_B", 0, 10 * kHour, &stats);
  EXPECT_EQ(rows.size(), 10u);
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(stats.segments_pruned, 2u);
  // A glob that spans two segments scans exactly those two.
  auto both = ar_.QueryEvents("EVT_[AB]", 0, 10 * kHour, &stats);
  EXPECT_EQ(both.size(), 0u);  // '[' is not a glob metacharacter here
  auto star = ar_.QueryEvents("EVT_*", 0, 10 * kHour, &stats);
  EXPECT_EQ(star.size(), 30u);
  EXPECT_EQ(stats.segments_scanned, 3u);
}

TEST_F(PrunedQueryTest, HostPrunesViaHostIndex) {
  QueryStats stats;
  auto rows = ar_.QueryHost("host2", 0, 10 * kHour, &stats);
  EXPECT_EQ(rows.size(), 10u);
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(stats.segments_pruned, 2u);
  EXPECT_TRUE(ar_.QueryHost("nowhere", 0, 10 * kHour, &stats).empty());
  EXPECT_EQ(stats.segments_scanned, 0u);
}

TEST_F(PrunedQueryTest, RangeIsHalfOpenAndTimeOrdered) {
  auto rows = ar_.QueryRange(5 * kSecond, kHour + kSecond);
  // [5 s, 1 h) takes records 5..9 of segment 0, plus second 0 of segment 1.
  ASSERT_EQ(rows.size(), 6u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].timestamp(), rows[i].timestamp());
  }
  EXPECT_EQ(rows.back().timestamp(), kHour);
}

// --------------------------------------------------------------- compaction

TEST(CompactionTest, TiersKeepAbnormalAndNest) {
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 1000000;
  EventArchive ar("a", 42, config);
  for (int i = 0; i < 400; ++i) {
    ar.Ingest(Event(i * kSecond, "N", i));
  }
  for (int i = 0; i < 10; ++i) {
    ar.Ingest(Event(i * kSecond, "BAD", 1000 + i, "h1", "Error"));
  }
  ar.SealActive();
  CompactionPolicy policy;
  policy.tiers = {{kHour, 0.3}, {24 * kHour, 0.1}};
  ar.SetCompactionPolicy(policy);

  const TimePoint newest = ar.TimeSpan().second;
  const std::size_t removed1 = ar.Compact(newest + 2 * kHour);
  EXPECT_GT(removed1, 0u);
  auto tier1 = ar.QueryRange(0, 10 * kHour);
  // Every abnormal record survives; normals thin to roughly 30 %.
  EXPECT_EQ(ar.QueryEvents("BAD", 0, 10 * kHour).size(), 10u);
  const std::size_t tier1_normals = tier1.size() - 10;
  EXPECT_GT(tier1_normals, 60u);
  EXPECT_LT(tier1_normals, 180u);

  // Re-running at the same age is a no-op (decisions are deterministic).
  EXPECT_EQ(ar.Compact(newest + 2 * kHour), 0u);

  // The deeper tier keeps a subset of the shallower one.
  ar.Compact(newest + 48 * kHour);
  auto tier2 = ar.QueryRange(0, 10 * kHour);
  EXPECT_EQ(ar.QueryEvents("BAD", 0, 10 * kHour).size(), 10u);
  EXPECT_LT(tier2.size(), tier1.size());
  auto tier1_vals = Vals(tier1);
  for (double v : Vals(tier2)) {
    EXPECT_TRUE(tier1_vals.count(v)) << "tier 2 kept a record tier 1 dropped";
  }
}

TEST(CompactionTest, DecisionsSurviveSaveLoadRoundTrip) {
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 64;
  EventArchive ar("a", 7, config);
  for (int i = 0; i < 300; ++i) {
    ar.Ingest(Event(i * kSecond, std::string("E").append(std::to_string(i % 5)),
                    i));
  }
  ar.SealActive();
  CompactionPolicy policy;
  policy.tiers = {{kHour, 0.25}};
  ar.SetCompactionPolicy(policy);

  // Compact a loaded copy and the original at the same instant: the
  // hash-based keep decision must pick exactly the same records.
  auto loaded = EventArchive::LoadFromBytes("a", ar.SaveToBytes(), 7, config);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->load_stats().ok());
  loaded->SetCompactionPolicy(policy);

  const TimePoint when = ar.TimeSpan().second + 2 * kHour;
  ar.Compact(when);
  loaded->Compact(when);
  EXPECT_EQ(Ascii(ar.QueryRange(0, 10 * kHour)),
            Ascii(loaded->QueryRange(0, 10 * kHour)));
}

// -------------------------------------------------------------- persistence

TEST(SegmentedPersistenceTest, SaveLoadSaveIsByteIdentical) {
  SegmentConfig config;
  config.stripes = 2;
  config.max_records = 16;
  EventArchive ar("a", 3, config);
  for (int i = 0; i < 100; ++i) {
    ar.Ingest(Event(i * kSecond, std::string("E").append(std::to_string(i % 3)),
                    i, std::string("host").append(std::to_string(i % 2))));
  }
  const std::string bytes = ar.SaveToBytes();
  auto loaded = EventArchive::LoadFromBytes("a", bytes, 3, config);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->load_stats().ok());
  EXPECT_EQ(loaded->size(), ar.size());
  EXPECT_EQ(loaded->SaveToBytes(), bytes);
  EXPECT_EQ(Ascii(loaded->QueryRange(0, kHour)), Ascii(ar.QueryRange(0, kHour)));
}

TEST(SegmentedPersistenceTest, CorruptSegmentIsSkippedNotFatal) {
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 10;
  EventArchive ar("a", 1, config);
  for (int i = 0; i < 30; ++i) {
    ar.Ingest(Event(i * kSecond, "E", i));
  }
  std::string bytes = ar.SaveToBytes();
  // The file ends inside the last segment's payload; flipping its final
  // byte corrupts that one payload and nothing else.
  bytes.back() ^= 0x01;
  auto loaded = EventArchive::LoadFromBytes("a", bytes, 1, config);
  ASSERT_TRUE(loaded.ok()) << "one bad segment must not fail the load";
  EXPECT_EQ(loaded->load_stats().segments_loaded, 2u);
  EXPECT_EQ(loaded->load_stats().segments_skipped, 1u);
  EXPECT_FALSE(loaded->load_stats().ok());
  // The two intact segments answer queries normally.
  EXPECT_EQ(loaded->QueryRange(0, kHour).size(), 20u);
}

TEST(SegmentedPersistenceTest, TruncationIsReportedNeverSilent) {
  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 10;
  EventArchive ar("a", 1, config);
  for (int i = 0; i < 30; ++i) {
    ar.Ingest(Event(i * kSecond, "E", i));
  }
  const std::string bytes = ar.SaveToBytes();

  // Cut mid-payload: the last block's header promises bytes that are gone.
  auto cut = EventArchive::LoadFromBytes("a", bytes.substr(0, bytes.size() - 5));
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut->load_stats().truncated);
  EXPECT_FALSE(cut->load_stats().ok());

  // A file that is only a header still reports its missing segments.
  auto header_only = EventArchive::LoadFromBytes("a", bytes.substr(0, 16));
  ASSERT_TRUE(header_only.ok());
  EXPECT_TRUE(header_only->load_stats().truncated);

  // No readable header at all is an outright error.
  EXPECT_FALSE(EventArchive::LoadFromBytes("a", "garbage").ok());
  EXPECT_FALSE(EventArchive::LoadFromBytes("a", "").ok());
}

// -------------------------------------------------------------- concurrency

TEST(ArchiveConcurrencyTest, ParallelIngestLosesNothing) {
  SegmentConfig config;
  config.max_records = 256;
  config.stripes = 8;
  EventArchive ar("a", 1, config);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ar, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ar.Ingest(Event((t * kPerThread + i) * kMillisecond, "E",
                        t * 1000000 + i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(ar.ingested(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(ar.size(), static_cast<std::size_t>(kThreads * kPerThread));
  auto rows = ar.QueryRange(0, kHour);
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(Vals(rows).size(), rows.size());  // every VAL exactly once
}

TEST(ArchiveConcurrencyTest, QueriesDuringIngestNeverDuplicate) {
  SegmentConfig config;
  config.max_records = 64;  // frequent seals while queries run
  config.stripes = 4;
  EventArchive ar("a", 1, config);
  constexpr int kThreads = 3;
  constexpr int kPerThread = 3000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::thread reader([&] {
    while (!done.load()) {
      auto rows = ar.QueryRange(0, kHour);
      // A query racing seals may see a prefix of the data, but never a
      // duplicate and never out of order.
      std::set<double> seen;
      TimePoint prev = 0;
      for (const auto& rec : rows) {
        auto val = rec.GetDouble("VAL");
        ASSERT_TRUE(val.ok());
        ASSERT_TRUE(seen.insert(*val).second) << "duplicate VAL " << *val;
        ASSERT_GE(rec.timestamp(), prev);
        prev = rec.timestamp();
      }
      queries.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ar, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ar.Ingest(Event((t * kPerThread + i) * kMillisecond, "E",
                        t * 1000000 + i));
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(ar.QueryRange(0, kHour).size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

// ------------------------------------------------------- rpc query service

TEST(ArchiveQueryServiceTest, RejectsMalformedCalls) {
  EventArchive ar("a");
  ArchiveQueryService service(ar);
  EXPECT_FALSE(service.Invoke("no.such.method", {}).ok());
  EXPECT_FALSE(service.Invoke(kQueryMethod, {"range"}).ok());
  EXPECT_FALSE(service.Invoke(kQueryMethod, {"range", "x", "0", ""}).ok());
  EXPECT_FALSE(
      service.Invoke(kQueryMethod, {"sideways", "0", "10", ""}).ok());
  EXPECT_FALSE(
      service.Invoke(kQueryMethod, {"range", "0", "10", "", "-3"}).ok());
  EXPECT_TRUE(service.Invoke(kQueryMethod, {"range", "0", "10", ""}).ok());
}

class ArchiveRpcTest : public ::testing::Test {
 protected:
  ArchiveRpcTest() : clock_(0), registry_(clock_), ar_("main", 1, Config()) {
    for (int i = 0; i < 100; ++i) {
      ar_.Ingest(Event(i * kSecond, "EVT_" + std::to_string(i % 4), i,
                       "host" + std::to_string(i % 2)));
    }
    EXPECT_TRUE(RegisterArchiveService(registry_, ar_).ok());
    auto listener = net_.Listen("arch-rpc");
    EXPECT_TRUE(listener.ok());
    server_ = std::make_unique<rpc::RpcServer>(registry_, std::move(*listener));
    pump_ = std::thread([this] {
      while (!stop_.load()) {
        server_->PollOnce();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  ~ArchiveRpcTest() override {
    stop_.store(true);
    pump_.join();
  }

  static SegmentConfig Config() {
    SegmentConfig config;
    config.stripes = 1;
    config.max_records = 16;
    return config;
  }

  ArchiveClient MakeClient() {
    return ArchiveClient([this] { return net_.Dial("arch-rpc"); },
                         ArchiveObjectName("main"));
  }

  SimClock clock_;
  rpc::Registry registry_;
  transport::InProcNetwork net_;
  EventArchive ar_;
  std::unique_ptr<rpc::RpcServer> server_;
  std::atomic<bool> stop_{false};
  std::thread pump_;
};

TEST_F(ArchiveRpcTest, PaginatedQueryEqualsLocalQuery) {
  ArchiveClient client = MakeClient();
  client.set_page_records(7);  // forces many pages for 100 records
  auto remote = client.QueryRange(0, kHour);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(Ascii(*remote), Ascii(ar_.QueryRange(0, kHour)));
  EXPECT_GT(client.pages_fetched(), 10u);

  auto events = client.QueryEvents("EVT_2", 0, kHour);
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(Ascii(*events), Ascii(ar_.QueryEvents("EVT_2", 0, kHour)));

  auto host = client.QueryHost("host1", 10 * kSecond, 50 * kSecond);
  ASSERT_TRUE(host.ok());
  EXPECT_EQ(Ascii(*host),
            Ascii(ar_.QueryHost("host1", 10 * kSecond, 50 * kSecond)));
}

TEST_F(ArchiveRpcTest, StatsReflectTheArchive) {
  ArchiveClient client = MakeClient();
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->name, "main");
  EXPECT_EQ(stats->size, ar_.size());
  EXPECT_EQ(stats->segments, ar_.segment_count());
  EXPECT_EQ(stats->ingested, ar_.ingested());
  EXPECT_EQ(stats->span_min, 0);
  EXPECT_EQ(stats->span_max, 99 * kSecond);
  EXPECT_NE(stats->contents.find("EVT_0(25)"), std::string::npos);
}

// ------------------------------------------------- end-to-end (integration)

// Seeded round trip: gateway feeds a batched ArchiverAgent; the gateway
// crashes mid-ingest and is revived; afterwards an ArchiveClient reads the
// archive back over rpc. Exact accounting: every delivered event is
// archived exactly once, crash or not.
TEST(ArchiveIntegrationTest, GatewayCrashToClientQueryExactAccounting) {
  SimClock clock;
  transport::InProcNetwork net;

  auto gw = std::make_unique<gateway::EventGateway>("gw", clock);
  auto listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  auto service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));

  SegmentConfig config;
  config.max_records = 8;  // several seals across the run
  config.stripes = 2;
  EventArchive archive("e2e", 1, config);
  consumers::ArchiverAgent archiver("e2e", archive, "inproc:arch-rpc");
  ASSERT_TRUE(archiver
                  .AttachRemote(std::make_unique<gateway::GatewayClient>(
                                    [&net] { return net.Dial("gw"); }),
                                {}, /*batch_records=*/4)
                  .ok());
  service->PollOnce();

  std::set<double> delivered;
  auto publish = [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      gw->Publish(Event(i * kSecond,
                        std::string("E").append(std::to_string(i % 3)), i));
      delivered.insert(i);
    }
  };
  publish(0, 40);
  EXPECT_EQ(archiver.PumpRemote(), 40u);

  // Crash the gateway mid-ingest...
  service.reset();
  gw.reset();
  EXPECT_EQ(archiver.PumpRemote(), 0u);

  // ...revive it; the embedded client re-dials and replays its batched
  // subscription, and the feed resumes.
  gw = std::make_unique<gateway::EventGateway>("gw", clock);
  listener = net.Listen("gw");
  ASSERT_TRUE(listener.ok());
  service =
      std::make_unique<gateway::GatewayService>(*gw, std::move(*listener));
  EXPECT_EQ(archiver.PumpRemote(), 0u);  // reconnect + resubscribe
  service->PollOnce();
  publish(40, 75);
  // 35 records = 8 full frames + 3 pending; age-flush the partial batch.
  std::size_t pumped = archiver.PumpRemote();
  clock.Advance(kSecond);
  service->PollOnce();
  pumped += archiver.PumpRemote();
  EXPECT_EQ(pumped, 35u);
  EXPECT_EQ(archiver.remote_dropped(), 0u);
  EXPECT_GT(archive.seal_count(), 0u);

  // Serve the archive over rpc and read it back with the client.
  rpc::Registry registry(clock);
  ASSERT_TRUE(RegisterArchiveService(registry, archive).ok());
  auto rpc_listener = net.Listen("arch-rpc");
  ASSERT_TRUE(rpc_listener.ok());
  rpc::RpcServer rpc_server(registry, std::move(*rpc_listener));
  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) {
      rpc_server.PollOnce();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ArchiveClient client([&net] { return net.Dial("arch-rpc"); },
                       ArchiveObjectName("e2e"));
  client.set_page_records(9);
  auto remote = client.QueryRange(0, kHour);
  stop.store(true);
  pump.join();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  // Exactly the delivered set: nothing lost across the crash, nothing
  // archived twice after the resubscribe.
  EXPECT_EQ(Vals(*remote), delivered);
}

// ----------------------------------------------- directory entry refresh

TEST(ArchiverDirectoryTest, EntryRefreshesOnSeal) {
  SimClock clock(0);
  gateway::EventGateway gw("gw", clock);
  Dn suffix = *Dn::Parse("ou=sensors, o=jamm");
  auto server = std::make_shared<directory::DirectoryServer>(suffix, "ldap://p");
  directory::DirectoryPool pool;
  pool.AddServer(server);

  SegmentConfig config;
  config.stripes = 1;
  config.max_records = 5;
  EventArchive archive("arch", 1, config);
  consumers::ArchiverAgent agent("arch", archive, "inproc:arch");
  ASSERT_TRUE(agent.SubscribeTo(gw).ok());
  ASSERT_TRUE(agent.PublishTo(pool, suffix).ok());

  const Dn dn = directory::schema::ArchiveDn(suffix, "arch");
  auto entry = pool.Lookup(dn);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(directory::schema::kAttrSegments), "0");
  EXPECT_FALSE(entry->Has(directory::schema::kAttrSpanMin));

  // Four events: no seal yet, so the published entry stays as-is.
  for (int i = 0; i < 4; ++i) gw.Publish(Event(i * kSecond, "E", i));
  entry = pool.Lookup(dn);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(directory::schema::kAttrSegments), "0");

  // The fifth event seals the segment, and the agent refreshes the entry
  // with the new segment count, contents, and time span on its own.
  gw.Publish(Event(4 * kSecond, "E", 4));
  ASSERT_EQ(archive.seal_count(), 1u);
  entry = pool.Lookup(dn);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(directory::schema::kAttrSegments), "1");
  EXPECT_TRUE(entry->Has(directory::schema::kAttrSpanMin));
  EXPECT_TRUE(entry->Has(directory::schema::kAttrSpanMax));
  EXPECT_NE(entry->Get(directory::schema::kAttrContents).find("E(5)"),
            std::string::npos);
}

}  // namespace
}  // namespace jamm::archive
