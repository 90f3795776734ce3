// E9 (§2.2, directory service): "Current implementations of LDAP servers
// are optimized for read access, and do not work well in an environment
// with many updates." ISSUE 9 rebuilt the store so that claim no longer
// binds: RCU snapshot reads never take the write lock, and heartbeat
// renewals are lease-cell stores plus a compact WAL record. This bench
// proves it at fleet scale:
//
//   * 1M live leased entries, populated through UpsertBatch;
//   * heartbeat renewal throughput (target: >= 100k renewals/second);
//   * lookup throughput while the write path saturates (renewal batches
//     plus structural churn interleaved with every read chunk — on a
//     single-core host concurrency is modeled as per-op cost under
//     interleaving, not threaded wall-clock) vs idle: the snapshot read
//     path must stay within 10% of idle;
//   * WAL crash recovery: Crash() + Restart() replay of the full log,
//     compared against the initial populate rate (a machine-independent
//     ratio — recovery applies the same changes minus the re-encode and
//     per-batch publication, so it must not be slower);
//   * the E9 cost asymmetry at 10k entries: a subtree search on its own
//     vs the same search after a structural write (the write clones a
//     bucket, reindexes it, commits the WAL and swaps the snapshot), and
//     a discovery by object class and host, which the per-bucket equality
//     index answers without visiting the other hosts' entries.
//
// Emits BENCH_directory.json (path = argv[1], default ./BENCH_directory
// .json) and enforces the hard floors itself (non-zero exit).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "directory/schema.hpp"
#include "directory/server.hpp"
#include "directory/wal.hpp"

using namespace jamm;             // NOLINT: bench brevity
using namespace jamm::directory;  // NOLINT

namespace {

constexpr int kEntries = 1'000'000;
constexpr int kSensorsPerHost = 100;
constexpr int kBatch = 50'000;        // UpsertBatch chunk during populate
constexpr int kRenewBatch = 100'000;  // one heartbeat storm slice
constexpr int kRenewPasses = 7;
constexpr int kReadPasses = 7;
constexpr int kLookups = 50'000;      // lookups per read pass
constexpr TimePoint kFarFuture = 1000 * kMinute;

Dn Suffix() { return *Dn::Parse("ou=sensors, o=jamm"); }

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Fleet {
  std::shared_ptr<WalStorage> storage;
  std::unique_ptr<DirectoryServer> server;
  std::vector<Dn> dns;  // every leased sensor entry
  double populate_per_s = 0;
};

/// 1M lean leased entries (kSensorsPerHost per host), loaded parents-first
/// through UpsertBatch in kBatch chunks.
Fleet Populate() {
  Fleet fleet;
  fleet.storage = std::make_shared<WalStorage>();
  fleet.server =
      std::make_unique<DirectoryServer>(Suffix(), "ldap://bench",
                                        fleet.storage);
  fleet.dns.reserve(kEntries);
  std::vector<Entry> batch;
  batch.reserve(kBatch + kBatch / kSensorsPerHost + 1);
  const auto t0 = std::chrono::steady_clock::now();
  auto flush = [&] {
    if (batch.empty()) return;
    if (!fleet.server->UpsertBatch(batch).ok()) {
      std::fprintf(stderr, "populate batch failed\n");
      std::exit(1);
    }
    batch.clear();
  };
  for (int h = 0; h * kSensorsPerHost < kEntries; ++h) {
    const std::string host = std::string("h").append(std::to_string(h));
    batch.push_back(schema::MakeHostEntry(Suffix(), host));
    const Dn host_dn = schema::HostDn(Suffix(), host);
    for (int s = 0; s < kSensorsPerHost; ++s) {
      // Lean entries: objectclass + lease only, so the bench measures the
      // store, not attribute-string shoveling.
      Entry entry(
          host_dn.Child("cn", std::string("s").append(std::to_string(s))));
      entry.Set(schema::kAttrObjectClass, "jammSensor");
      schema::StampLease(entry, kFarFuture);
      fleet.dns.push_back(entry.dn());
      batch.push_back(std::move(entry));
    }
    if (static_cast<int>(batch.size()) >= kBatch) flush();
  }
  flush();
  fleet.populate_per_s = kEntries / SecondsSince(t0);
  return fleet;
}

/// Median renewal throughput over rotating kRenewBatch slices.
double RenewalsPerSecond(Fleet& fleet) {
  std::vector<double> per_s;
  for (int pass = 0; pass < kRenewPasses; ++pass) {
    const std::size_t start =
        (static_cast<std::size_t>(pass) * kRenewBatch) % fleet.dns.size();
    std::vector<Dn> slice;
    slice.reserve(kRenewBatch);
    for (int i = 0; i < kRenewBatch; ++i) {
      slice.push_back(fleet.dns[(start + i) % fleet.dns.size()]);
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto renewed = fleet.server->RenewLeases(slice, kFarFuture + pass + 1);
    const double secs = SecondsSince(t0);
    if (!renewed.ok() || static_cast<int>(*renewed) != kRenewBatch) {
      std::fprintf(stderr, "renewal lost entries\n");
      std::exit(1);
    }
    per_s.push_back(kRenewBatch / secs);
  }
  return Median(per_s);
}

/// Lookup throughput for one pass. When `saturate` is set, every chunk of
/// reads is interleaved with a 10k renewal batch and a structural write
/// (cache invalidation + snapshot swap) — the paper's "many updates"
/// regime. Only the lookups are inside the timed region either way.
double LookupPass(Fleet& fleet, bool saturate, int pass) {
  constexpr int kChunk = 5'000;
  static int churn = 0;
  double read_secs = 0;
  std::size_t cursor =
      (static_cast<std::size_t>(pass) * 7919) % fleet.dns.size();
  for (int done = 0; done < kLookups; done += kChunk) {
    if (saturate) {
      std::vector<Dn> slice;
      slice.reserve(10'000);
      for (int i = 0; i < 10'000; ++i) {
        slice.push_back(fleet.dns[(cursor + i * 101) % fleet.dns.size()]);
      }
      (void)fleet.server->RenewLeases(slice, kFarFuture + 2);
      auto host = schema::MakeHostEntry(Suffix(),
                                        "churn" + std::to_string(churn++ % 16));
      (void)fleet.server->Upsert(host);  // bucket reindex + snapshot swap
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kChunk; ++i) {
      auto entry =
          fleet.server->Lookup(fleet.dns[cursor % fleet.dns.size()]);
      if (!entry.ok()) {
        std::fprintf(stderr, "lookup failed mid-bench\n");
        std::exit(1);
      }
      cursor += 6151;  // prime stride: spread across buckets
    }
    read_secs += SecondsSince(t0);
  }
  return kLookups / read_secs;
}

struct ReadSaturation {
  double idle_per_s = 0;
  double saturated_per_s = 0;
  double ratio = 0;
};

/// Idle and saturated passes run back-to-back in pairs and the gated
/// ratio is the median of the per-pass ratios, so slow machine-state
/// drift (another process winding down, thermal throttling) cancels
/// instead of landing entirely on one side of the division.
ReadSaturation MeasureReadSaturation(Fleet& fleet) {
  std::vector<double> idle, saturated, ratios;
  for (int pass = 0; pass < kReadPasses; ++pass) {
    idle.push_back(LookupPass(fleet, /*saturate=*/false, pass));
    saturated.push_back(LookupPass(fleet, /*saturate=*/true, pass));
    ratios.push_back(saturated.back() / idle.back());
  }
  return {Median(idle), Median(saturated), Median(ratios)};
}

struct Recovery {
  double seconds = 0;
  double records = 0;
  double replay_per_s = 0;
};

/// Hard-crash the fleet and replay the full WAL (adds + every renewal
/// record appended so far) back to the last acked write.
Recovery CrashAndRecover(Fleet& fleet) {
  fleet.server->Crash();
  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = fleet.server->Restart();
  Recovery out;
  out.seconds = SecondsSince(t0);
  out.records = static_cast<double>(stats.records_replayed);
  out.replay_per_s = out.records / out.seconds;
  if (stats.entries < kEntries) {
    std::fprintf(stderr, "recovery lost entries: %llu\n",
                 static_cast<unsigned long long>(stats.entries));
    std::exit(1);
  }
  return out;
}

/// E9 at 10k entries: repeated subtree searches, the same searches each
/// preceded by a structural write, the structural writes alone, and
/// discoveries of one host's sensors. Reads keep no result cache, so a
/// write adds only its own cost to a search.
struct SearchStory {
  double search_per_s = 0;
  double search_after_write_per_s = 0;
  double write_per_s = 0;
  double discover_per_s = 0;
};

SearchStory SearchAndWriteCost() {
  auto server = std::make_unique<DirectoryServer>(Suffix(), "ldap://e9");
  for (int h = 0; h < 100; ++h) {
    const std::string host = "host" + std::to_string(h);
    (void)server->Upsert(schema::MakeHostEntry(Suffix(), host));
    std::vector<Entry> batch;
    for (int s = 0; s < 100; ++s) {
      Entry entry(schema::HostDn(Suffix(), host)
                      .Child("cn", std::string("s").append(std::to_string(s))));
      entry.Set(schema::kAttrObjectClass, "jammSensor");
      entry.Set(schema::kAttrHost, host);
      batch.push_back(std::move(entry));
    }
    (void)server->UpsertBatch(batch);
  }
  const Filter filter = *Filter::Parse("(objectclass=jammSensor)");
  const auto search = [&] {
    if (!server->Search(Suffix(), SearchScope::kSubtree, filter).ok()) {
      std::exit(1);
    }
  };
  auto touch = schema::MakeHostEntry(Suffix(), "host0");
  int writes = 0;
  const auto write = [&] {
    touch.Set("heartbeat", std::to_string(writes++));
    if (!server->Upsert(touch).ok()) std::exit(1);
  };
  SearchStory out;
  // The two search arms alternate in rounds, so allocator and cache
  // warm-up fall on both alike.
  constexpr int kRounds = 10;
  constexpr int kPerRound = 20;
  double search_s = 0;
  double after_write_s = 0;
  search();  // warm
  for (int round = 0; round < kRounds; ++round) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kPerRound; ++i) search();
    search_s += SecondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kPerRound; ++i) {
      write();
      search();
    }
    after_write_s += SecondsSince(t0);
  }
  out.search_per_s = kRounds * kPerRound / search_s;
  out.search_after_write_per_s = kRounds * kPerRound / after_write_s;
  constexpr int kWrites = 5000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kWrites; ++i) write();
  out.write_per_s = kWrites / SecondsSince(t0);

  // Discovery: one host's sensors by class and host, rotating hosts.
  std::vector<Filter> discoveries;
  for (int h = 0; h < 100; ++h) {
    discoveries.push_back(*Filter::Parse(
        "(&(objectclass=jammSensor)(host=host" + std::to_string(h) + "))"));
  }
  constexpr int kDiscoveries = 20'000;
  const auto d0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kDiscoveries; ++i) {
    auto found = server->Search(Suffix(), SearchScope::kSubtree,
                                discoveries[i % discoveries.size()]);
    if (!found.ok() || found->entries.size() != 100) std::exit(1);
  }
  out.discover_per_s = kDiscoveries / SecondsSince(d0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_directory.json";
  std::printf("E9 / ISSUE 9 — directory at 1M leased entries: renewals, "
              "snapshot reads under saturation, WAL recovery\n");

  Fleet fleet = Populate();
  std::printf("populated %d entries at %.0f/s\n", kEntries,
              fleet.populate_per_s);

  const double renew_per_s = RenewalsPerSecond(fleet);
  std::printf("heartbeat renewals: %.0f/s (batch %d)\n", renew_per_s,
              kRenewBatch);

  const ReadSaturation reads = MeasureReadSaturation(fleet);
  std::printf("lookups: idle %.0f/s, under write saturation %.0f/s "
              "(paired-pass ratio %.3f)\n",
              reads.idle_per_s, reads.saturated_per_s, reads.ratio);

  const Recovery recovery = CrashAndRecover(fleet);
  const double recovery_speedup = recovery.replay_per_s / fleet.populate_per_s;
  std::printf("recovery: %.0f WAL records replayed in %.2fs (%.0f/s, "
              "%.2fx the populate rate)\n",
              recovery.records, recovery.seconds, recovery.replay_per_s,
              recovery_speedup);

  const SearchStory story = SearchAndWriteCost();
  std::printf("E9 at 10k entries: subtree search %.0f/s, search after a "
              "structural write %.0f/s, structural write alone %.0f/s, "
              "discovery of one host's sensors %.0f/s\n",
              story.search_per_s, story.search_after_write_per_s,
              story.write_per_s, story.discover_per_s);

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"bench_directory\",\n");
  std::fprintf(json,
               "  \"workload\": \"1M lean leased entries via UpsertBatch; "
               "100k-entry heartbeat renewal slices; lookups idle vs "
               "interleaved with renewal batches and structural churn; "
               "Crash()+Restart() full-WAL replay; subtree search, search "
               "after a structural write, structural writes alone, and "
               "(&(objectclass=jammSensor)(host=hostN)) discovery over "
               "rotating hosts at 10k\",\n");
  std::fprintf(json,
               "  \"method\": \"median of %d renewal / %d paired idle+saturated read passes "
               "(ratio = median of per-pass ratios); "
               "single-core host, saturation modeled as interleaved per-op "
               "cost; ratios are machine-independent\",\n",
               kRenewPasses, kReadPasses);
  std::fprintf(json, "  \"results\": {\n");
  std::fprintf(json, "    \"entries\": %d,\n", kEntries);
  std::fprintf(json, "    \"populate_per_s\": %.0f,\n", fleet.populate_per_s);
  std::fprintf(json, "    \"renew_batch\": %d,\n", kRenewBatch);
  std::fprintf(json, "    \"renew_per_s\": %.0f,\n", renew_per_s);
  std::fprintf(json, "    \"idle_lookup_per_s\": %.0f,\n",
               reads.idle_per_s);
  std::fprintf(json, "    \"saturated_lookup_per_s\": %.0f,\n",
               reads.saturated_per_s);
  std::fprintf(json, "    \"read_saturation_ratio\": %.3f,\n",
               reads.ratio);
  std::fprintf(json, "    \"recovery_records\": %.0f,\n", recovery.records);
  std::fprintf(json, "    \"recovery_s\": %.3f,\n", recovery.seconds);
  std::fprintf(json, "    \"recovery_replay_per_s\": %.0f,\n",
               recovery.replay_per_s);
  std::fprintf(json, "    \"recovery_vs_populate_speedup\": %.2f,\n",
               recovery_speedup);
  std::fprintf(json, "    \"search_per_s\": %.0f,\n", story.search_per_s);
  std::fprintf(json, "    \"search_after_write_per_s\": %.0f,\n",
               story.search_after_write_per_s);
  std::fprintf(json, "    \"structural_write_per_s\": %.0f,\n",
               story.write_per_s);
  std::fprintf(json, "    \"discover_per_s\": %.0f\n",
               story.discover_per_s);
  std::fprintf(json, "  }\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());

  // Hard acceptance floors (ISSUE 9).
  int failures = 0;
  if (renew_per_s < 100'000) {
    std::fprintf(stderr, "FAIL: %.0f renewals/s < 100k floor\n", renew_per_s);
    ++failures;
  }
  if (reads.ratio < 0.9) {
    std::fprintf(stderr,
                 "FAIL: saturated reads at %.3f of idle (< 0.9 floor)\n",
                 reads.ratio);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
