#include "workloads.hpp"

#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "archive/archive.hpp"
#include "archive/query.hpp"
#include "bench.hpp"
#include "common/config.hpp"
#include "consumers/archiver.hpp"
#include "directory/filter.hpp"
#include "directory/replication.hpp"
#include "directory/schema.hpp"
#include "directory/server.hpp"
#include "federation/republisher.hpp"
#include "gateway/service.hpp"
#include "manager/sensor_manager.hpp"
#include "netlogger/logger.hpp"
#include "oracle.hpp"
#include "rpc/registry.hpp"
#include "rpc/wire.hpp"
#include "sensors/app_sensor.hpp"
#include "sysmon/simhost.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "transport/inproc.hpp"
#include "transport/tcp.hpp"
#include "ulm/flat.hpp"

namespace perfbench {

namespace {

using namespace jamm;  // NOLINT: the pipeline's types, used throughout

void Require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("set-up failed: " + what);
}
void Require(const Status& s, const std::string& what) {
  Require(s.ok(), what + ": " + s.ToString());
}

constexpr char kSensorConfig[] =
    "[sensor]\nname = app\nkind = application\ninterval_ms = 1\n"
    "mode = always\n";
constexpr char kArchiveName[] = "history";
constexpr std::uint64_t kScanWindow = 16384;  // µs of event time per read

double Us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// ------------------------------------------------------------- workloads

enum QueryKind { kLifeline = 0, kAgg = 1, kLoadline = 2 };
constexpr const char* kQueryKindNames[] = {"lifeline", "agg", "loadline"};
constexpr const char* kLoadlineGlobs[] = {"CPU_*", "MEM_*", "NET_*",
                                          "DISK_*", "XFER_*", "APP_*"};

/// What the closed-loop query consumer (T3) asks: one directory discovery,
/// then one arch.query whose kind is drawn from the seed.
struct QueryPlan {
  std::uint32_t discover_hosts = 1;  // hosts with a sensor entry
  double lifeline_share = 1.0;       // the rest is agg, then loadline
  double agg_share = 0.0;            // shares are multiples of 1/20
  std::uint64_t lifeline_window = 512;  // µs of event time (= inputs)
  /// Queries read event seqs below this bound; 0 = below the ingest
  /// watermark (only fully archived inputs).
  std::uint64_t fixed_span = 0;
  int think_us = 0;
};

/// A workload is one shape of the same pipeline.
struct Shape {
  std::uint32_t hosts = 1;   // simulated hosts: manager + app sensor each
  std::uint32_t block = 1;   // consecutive events per host turn
  std::uint32_t leaves = 1;  // leaf gateways, each served in-proc
  bool republisher = false;  // archiver reads from a republisher tier
  bool tcp_consumers = false;     // 4 TCP loopback consumers on leaf 0
  std::string archive_glob;       // archiver's subscription ("" = all)
  std::size_t segment_records = 8192;  // archive seals at this many
  std::uint64_t preload = 0;      // events ingested at set-up
  std::uint32_t directory_hosts = 0;  // pre-filled sensor entries
  bool closed_loop = false;  // else open loop at `rate`
  double rate = 0;           // events/s
  QueryPlan plan;
  std::string describe;
};

Shape MakeShape(const std::string& name) {
  Shape s;
  if (name == "fanin_archive") {
    s.hosts = 64;
    s.block = 16;
    s.leaves = 8;
    s.republisher = true;
    s.closed_loop = true;
    s.plan.discover_hosts = 64;
    s.plan.lifeline_window = 128;
    s.plan.think_us = 10000;
    s.describe =
        "closed loop: bursts of 64 hosts x 16 events; 8 leaf gateways -> 1 "
        "republisher -> archiver, in-proc; T1 pipeline, T2 rpc server, T3 "
        "lifeline queries with 10 ms think time";
  } else if (name == "fanout_tcp") {
    s.leaves = 1;
    s.tcp_consumers = true;
    s.archive_glob = "XFER_*";
    // The XFER_* slice is one input in eight: small segments keep the
    // archive sealing all through the run, so queries always see the
    // same mix of sealed and active segments.
    s.segment_records = 1024;
    s.rate = 5000;
    s.plan.discover_hosts = 1;
    s.plan.lifeline_window = 2048;
    s.plan.think_us = 10000;
    s.describe =
        "open loop at 5000 events/s: 1 host, 1 leaf gateway served over "
        "TCP loopback to 4 consumer connections (9 subscriptions); in-proc "
        "archiver of XFER_* only; T1 pipeline, T2 consumers + rpc server, "
        "T3 lifeline queries with 10 ms think time";
  } else if (name == "query_during_ingest") {
    s.hosts = 64;
    s.leaves = 1;
    s.preload = 2'000'000;
    s.directory_hosts = 3000;
    s.rate = 5000;
    s.plan.discover_hosts = 3000;
    s.plan.lifeline_share = 0.8;
    s.plan.agg_share = 0.15;
    s.plan.fixed_span = s.preload;
    s.describe =
        "2M events preloaded (sealed, compressed), 3000 hosts in the "
        "directory; T1 ingests open loop at 5000 events/s via 64 managers -> "
        "1 leaf gateway -> archiver; T2 rpc server; T3 closed-loop discovery "
        "+ lifeline/agg/loadline (80/15/5)";
  } else {
    throw std::runtime_error("unknown workload " + name);
  }
  return s;
}

// ------------------------------------------------------------ components

/// One simulated host: an application logging through the NetLogger API
/// into the app sensor of the host's SensorManager.
struct AppHost {
  AppHost(std::uint32_t index, SimClock& pipe_clock, const Clock& input_clock,
          gateway::EventGateway& gw, directory::DirectoryPool& directory,
          const directory::Dn& suffix, const std::string& gateway_address)
      : machine(HostName(index), pipe_clock) {
    manager::SensorManager::Options o;
    o.clock = &pipe_clock;
    o.host = &machine;
    o.gateway = &gw;
    o.directory = &directory;
    o.directory_suffix = suffix;
    o.gateway_address = gateway_address;
    o.config_refresh = 0;
    manager = std::make_unique<manager::SensorManager>(std::move(o));
    auto config = Config::ParseString(kSensorConfig);
    Require(config.ok(), "sensor config");
    Require(manager->ApplyConfig(*config), "ApplyConfig");
    auto* bridge =
        dynamic_cast<sensors::AppSensorBridge*>(manager->FindSensor("app"));
    Require(bridge != nullptr, "app sensor");
    logger = std::make_unique<netlogger::NetLogger>(kProg, input_clock,
                                                    HostName(index), 1 << 16);
    logger->OpenSink(bridge->sink());
  }

  /// Logs `e` through the NetLogger API; the event time comes from the
  /// input clock, which the caller has set to EventTs(e.seq).
  void Log(const Event& e) {
    char val[16], seq[24], obj[16];
    const auto v = std::to_chars(val, val + sizeof(val), e.val);
    const auto s = std::to_chars(seq, seq + sizeof(seq), e.seq);
    const std::string_view vs(val, static_cast<std::size_t>(v.ptr - val));
    const std::string_view ss(seq, static_cast<std::size_t>(s.ptr - seq));
    // A failed write shows up as a missing event in the oracle's tally.
    if (e.obj != 0) {
      obj[0] = 'o';
      const auto o = std::to_chars(obj + 1, obj + sizeof(obj), e.obj);
      const std::string_view os(obj, static_cast<std::size_t>(o.ptr - obj));
      (void)logger->Write(KindName(e.kind),
                          {{kValField, vs}, {kSeqField, ss}, {kObjField, os}});
    } else {
      (void)logger->Write(KindName(e.kind),
                          {{kValField, vs}, {kSeqField, ss}});
    }
  }

  sysmon::SimHost machine;
  std::unique_ptr<manager::SensorManager> manager;
  std::unique_ptr<netlogger::NetLogger> logger;
};

std::unique_ptr<gateway::GatewayService> MakeService(
    gateway::GatewaySurface& surface,
    Result<std::unique_ptr<transport::Listener>> listener) {
  Require(listener.ok(), "gateway listen");
  auto service = std::make_unique<gateway::GatewayService>(
      surface, std::make_unique<CountingListener>(std::move(*listener)));
  // Flush partial batches on every poll: the pipeline thread polls once per
  // pipeline round, so batching never holds an event past its round.
  service->set_batch_max_age(0);
  return service;
}

/// GatewayClient::DrainEvents decodes ulm.event and gw.event.batch frames
/// but skips gw.event.xml ones (the repository has no XML decoder), so
/// this tap takes a consumer's xml events off its wire, stamps their
/// arrival, and keeps the text for the oracle; other frames pass through.
struct TappedXml {
  std::string payload;
  std::int64_t at_ns = 0;
};

class XmlTap final : public transport::Channel {
 public:
  XmlTap(std::unique_ptr<transport::Channel> inner,
         std::shared_ptr<std::vector<TappedXml>> sink)
      : inner_(std::move(inner)), sink_(std::move(sink)) {}
  Status Send(const transport::Message& msg) override {
    return inner_->Send(msg);
  }
  Result<bool> TrySend(const transport::Message& msg) override {
    return inner_->TrySend(msg);
  }
  Result<transport::Message> Receive(Duration timeout) override {
    for (;;) {
      auto msg = inner_->Receive(timeout);
      if (!msg.ok() || !Take(*msg)) return msg;
    }
  }
  std::optional<transport::Message> TryReceive() override {
    while (auto msg = inner_->TryReceive()) {
      if (!Take(*msg)) return msg;
    }
    return std::nullopt;
  }
  void Close() override { inner_->Close(); }
  void CloseSend() override { inner_->CloseSend(); }
  bool IsOpen() const override { return inner_->IsOpen(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  bool Take(transport::Message& msg) {
    if (msg.type != "gw.event.xml") return false;
    sink_->push_back({std::move(msg.payload), NowNs()});
    return true;
  }
  std::unique_ptr<transport::Channel> inner_;
  std::shared_ptr<std::vector<TappedXml>> sink_;
};

/// One TCP consumer connection and what arrived on it.
struct TcpConsumer {
  struct Sub {
    FilterRef filter;
    std::size_t batch = 0;  // 0 = one message per event
    bool xml = false;
  };
  struct Received {
    std::uint64_t seq = 0, hash = 0;
    std::int64_t at_ns = 0;
  };
  std::vector<Sub> subs;
  std::unique_ptr<gateway::GatewayClient> client;
  std::vector<Received> received;
  std::shared_ptr<std::vector<TappedXml>> xml =
      std::make_shared<std::vector<TappedXml>>();
};

/// The fixed subscription mix of fanout_tcp: all, on-change, threshold,
/// delta and glob filters in ASCII, xml and batch formats.
std::vector<std::vector<TcpConsumer::Sub>> TcpSubscriptionMix() {
  using M = FilterRef::Mode;
  return {
      {{{M::kAll, "", 0}, 0, false}, {{M::kOnChange, "CPU_*", 0}, 0, true}},
      {{{M::kThreshold, "MEM_*", 500}, 0, false}, {{M::kDelta, "", 20}, 16, false}},
      {{{M::kAll, "NET_*", 0}, 32, false}, {{M::kOnChange, "", 0}, 0, false}},
      {{{M::kAll, "", 0}, 64, false},
       {{M::kThreshold, "*_READ", 700}, 0, true},
       {{M::kDelta, "XFER_*", 50}, 0, false}},
  };
}

// ------------------------------------------------------- query consumer

struct QueryRecord {
  int kind = kLifeline;
  std::string glob;
  std::int64_t t0 = 0, t1 = 0, bucket = 0;
  std::int64_t start_ns = 0;
  double discover_us = 0, query_us = 0;
  bool discovered = false;  // discovery returned exactly the right entries
  bool answered = false;    // the rpc returned OK
  std::size_t bytes_scanned = 0, segments_total = 0, segments_pruned = 0;
  std::vector<RefLifeline> lifelines;
  std::vector<RefBucket> buckets;
  std::vector<RefAggRow> rows;
};

/// The query consumer's end of the rpc connection when no other thread
/// serves the archive: while the consumer waits for its reply it polls the
/// archive's RpcServer itself, so the request still goes through rpc
/// framing and the query service, on the consumer's thread.
class ServedChannel final : public transport::Channel {
 public:
  ServedChannel(std::unique_ptr<transport::Channel> inner,
                rpc::RpcServer& server)
      : inner_(std::move(inner)), server_(server) {}
  Status Send(const transport::Message& msg) override {
    return inner_->Send(msg);
  }
  Result<transport::Message> Receive(Duration timeout) override {
    const std::int64_t deadline = NowNs() + timeout * 1000;
    for (;;) {
      if (auto msg = inner_->TryReceive()) return std::move(*msg);
      if (NowNs() > deadline) return Status::Timeout("no rpc reply");
      ScopedSpan span(Layer::kRpcServerPoll);
      if (server_.PollOnce() == 0) span.Discard();
    }
  }
  std::optional<transport::Message> TryReceive() override {
    return inner_->TryReceive();
  }
  void Close() override { inner_->Close(); }
  bool IsOpen() const override { return inner_->IsOpen(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  std::unique_ptr<transport::Channel> inner_;
  rpc::RpcServer& server_;
};

class QueryConsumer {
 public:
  /// `serve` non-null: this consumer polls that rpc server itself.
  QueryConsumer(QueryPlan plan, std::uint64_t seed,
                std::shared_ptr<directory::DirectoryServer> dir,
                const directory::Dn& suffix, transport::InProcNetwork& net,
                const std::atomic<std::uint64_t>& watermark,
                rpc::RpcServer* serve)
      : plan_(plan),
        rng_(seed ^ 0x51ab1e5eedULL),
        suffix_(suffix),
        watermark_(watermark),
        client_(
            [&net, serve]() -> Result<std::unique_ptr<transport::Channel>> {
              auto ch = net.Dial("archive-rpc");
              if (!ch.ok() || serve == nullptr) return ch;
              return std::unique_ptr<transport::Channel>(
                  new ServedChannel(std::move(*ch), *serve));
            },
            archive::ArchiveObjectName(kArchiveName)) {
    pool_.AddServer(std::move(dir));
    records_.reserve(1 << 16);
  }

  void Run(const std::atomic<bool>& stop) {
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t bound =
          plan_.fixed_span != 0 ? plan_.fixed_span
                                : watermark_.load(std::memory_order_acquire);
      if (bound < 2 * plan_.lifeline_window) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      records_.push_back(Request(bound));
      if (plan_.think_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(plan_.think_us));
      }
    }
  }

  const std::vector<QueryRecord>& records() const { return records_; }

 private:
  QueryRecord Request(std::uint64_t bound) {
    QueryRecord q;
    q.start_ns = NowNs();
    const std::uint64_t group = ++requests_;
    const auto host =
        static_cast<std::uint32_t>(rng_.Below(plan_.discover_hosts));
    q.kind = NextKind();
    auto filter = directory::Filter::Parse(
        std::string("(|(objectclass=") + directory::schema::kArchiveClass +
        ")(&(objectclass=" + directory::schema::kSensorClass + ")(host=" +
        HostName(host) + ")))");
    Require(filter.ok(), "discovery filter");
    std::int64_t t = NowNs();
    Result<directory::SearchResult> found = Status::Internal("unset");
    {
      ScopedSpan span(Layer::kDirectorySearch, group);
      found = pool_.Search(suffix_, directory::SearchScope::kSubtree, *filter);
    }
    q.discover_us = Us(NowNs() - t);
    q.discovered = found.ok() && DiscoveryRight(*found, HostName(host));

    archive::AnalysisSpec spec;
    if (q.kind == kLifeline) {
      const std::uint64_t first = rng_.Below(bound - plan_.lifeline_window);
      q.glob = "XFER_*";
      q.t0 = EventTs(first);
      q.t1 = EventTs(first + plan_.lifeline_window);
      spec.event_glob = q.glob;
      spec.id_fields = {kObjField};
    } else if (q.kind == kAgg) {
      // Mid window: an eighth of the span at one of eight offsets.
      const std::uint64_t first = rng_.Below(8) * (bound / 16);
      q.t0 = EventTs(first);
      q.t1 = EventTs(first + bound / 8);
      spec.value_field = kValField;
    } else {
      q.glob = kLoadlineGlobs[rng_.Below(std::size(kLoadlineGlobs))];
      q.t0 = EventTs(0);
      q.t1 = EventTs(bound);
      q.bucket = static_cast<std::int64_t>(bound / 64);
      spec.event_glob = q.glob;
      spec.value_field = kValField;
      spec.bucket = q.bucket;
    }
    t = NowNs();
    {
      ScopedSpan span(Layer::kRpcQuery, group);
      q.answered = Ask(q, spec);
    }
    q.query_us = Us(NowNs() - t);
    const auto& st = client_.last_query_stats();
    q.bytes_scanned = st.bytes_scanned;
    q.segments_total = st.segments_total;
    q.segments_pruned = st.segments_pruned;
    return q;
  }

  /// Kinds come from seed-shuffled decks of 20 holding the plan's shares
  /// exactly, so every stretch of requests has the same mix.
  int NextKind() {
    if (deck_.empty()) {
      const auto lifelines = static_cast<int>(plan_.lifeline_share * 20 + 0.5);
      const auto aggs = static_cast<int>(plan_.agg_share * 20 + 0.5);
      for (int i = 0; i < 20; ++i) {
        deck_.push_back(i < lifelines ? kLifeline
                        : i < lifelines + aggs ? kAgg
                                               : kLoadline);
      }
      for (std::size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.Below(i + 1)]);
      }
    }
    const int kind = deck_.back();
    deck_.pop_back();
    return kind;
  }

  bool Ask(QueryRecord& q, const archive::AnalysisSpec& spec) {
    if (q.kind == kLifeline) {
      auto r = client_.QueryLifelines(spec, q.t0, q.t1);
      if (!r.ok()) return false;
      for (const auto& line : *r) {
        RefLifeline out{line.object_id, {}};
        for (const auto& h : line.hops) {
          out.hops.push_back({h.ts, h.event, h.host, h.prog});
        }
        q.lifelines.push_back(std::move(out));
      }
    } else if (q.kind == kAgg) {
      auto r = client_.QueryAggregate(spec, q.t0, q.t1);
      if (!r.ok()) return false;
      for (const auto& a : *r) {
        q.rows.push_back({a.event, a.count, a.value_count, a.sum, a.mean,
                          a.min, a.max, a.p50, a.p95});
      }
    } else {
      auto r = client_.QueryLoadline(spec, q.t0, q.t1);
      if (!r.ok()) return false;
      for (const auto& b : *r) {
        q.buckets.push_back({b.bucket_start, b.count, b.value_count, b.mean,
                             b.min, b.max, b.pct});
      }
    }
    return true;
  }

  static bool HasClass(const directory::Entry& e, const char* cls) {
    const auto* values = e.GetAll(directory::schema::kAttrObjectClass);
    return values != nullptr &&
           std::find(values->begin(), values->end(), cls) != values->end();
  }
  /// Exactly the archive's entry plus the host's one sensor entry.
  static bool DiscoveryRight(const directory::SearchResult& r,
                             const std::string& host) {
    if (r.entries.size() != 2) return false;
    int archives = 0, sensors = 0;
    for (const auto& e : r.entries) {
      if (HasClass(e, directory::schema::kArchiveClass)) ++archives;
      if (HasClass(e, directory::schema::kSensorClass) &&
          e.Get(directory::schema::kAttrHost) == host) {
        ++sensors;
      }
    }
    return archives == 1 && sensors == 1;
  }

  QueryPlan plan_;
  Rng rng_;
  directory::Dn suffix_;
  const std::atomic<std::uint64_t>& watermark_;
  directory::DirectoryPool pool_;  // this thread's own pool
  archive::ArchiveClient client_;
  std::vector<QueryRecord> records_;
  std::vector<int> deck_;
  std::uint64_t requests_ = 0;
};

/// Counts the recorded answers that differ from the reference computed
/// over `ref`; agg and loadline questions repeat, so their references are
/// computed once per distinct question.
std::uint64_t WrongAnswers(const std::vector<QueryRecord>& records,
                           const ArchiveRef& ref) {
  std::map<std::string, std::vector<RefAggRow>> aggs;
  std::map<std::string, std::vector<RefBucket>> loads;
  std::uint64_t wrong = 0;
  for (const auto& q : records) {
    if (!q.discovered) ++wrong;
    if (!q.answered) {
      ++wrong;
      continue;
    }
    const std::string key = q.glob + "|" + std::to_string(q.t0) + "|" +
                            std::to_string(q.t1);
    bool right = false;
    if (q.kind == kLifeline) {
      right = q.lifelines == ref.Lifelines(q.glob, q.t0, q.t1);
    } else if (q.kind == kAgg) {
      auto it = aggs.find(key);
      if (it == aggs.end()) {
        it = aggs.emplace(key, ref.Aggregate(q.glob, q.t0, q.t1)).first;
      }
      right = q.rows == it->second;
    } else {
      auto it = loads.find(key);
      if (it == loads.end()) {
        it = loads.emplace(key, ref.Loadline(q.glob, "", q.bucket, 95, q.t0,
                                             q.t1)).first;
      }
      right = q.buckets == it->second;
    }
    if (!right) ++wrong;
  }
  return wrong;
}

// ------------------------------------------------------------ accounting

/// Cumulative pipeline counters; per-layer metrics report the traced
/// phase's differences.
struct Counters {
  double forwarded = 0, renewals = 0, delivered = 0, filtered = 0,
         encode_hits = 0, encode_misses = 0, sent_records = 0,
         sent_messages = 0, service_dropped = 0,
         fed_in = 0, fed_dups = 0, fed_stale = 0, remote_dropped = 0,
         seals = 0, segments = 0, ingested = 0;
};

struct Phase {
  bool traced = false;
  std::int64_t begin_ns = 0, end_ns = 0;
  std::uint64_t seq_begin = 0, seq_end = 0;  // events logged in the phase
  std::uint64_t writes = 0;                  // NetLogger::Write calls
  std::uint64_t wire_bytes = 0;
  std::vector<double> late_us;  // generator lateness
  std::int64_t wait_ns = 0;     // open loop: time spent waiting for inputs
  Counters before, after;
  double queue_max_depth = 0;
  double wall_s() const {
    return static_cast<double>(end_ns - begin_ns) / 1e9;
  }
  double events() const { return static_cast<double>(seq_end - seq_begin); }
  /// Share of the phase the pipeline thread spent working, not waiting.
  double busy() const {
    return 1.0 - static_cast<double>(wait_ns) /
                     static_cast<double>(end_ns - begin_ns);
  }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t ContentHashOf(const ulm::Record& rec) {
  std::vector<std::pair<std::string_view, std::string_view>> fields;
  fields.reserve(rec.fields().size());
  for (const auto& [k, v] : rec.fields()) fields.emplace_back(k, v);
  return ContentHash(rec.host(), rec.prog(), rec.lvl(), rec.event_name(),
                     rec.timestamp(), std::move(fields));
}

std::uint64_t SeqOf(const ulm::Record& rec) {
  auto seq = rec.GetInt(kSeqField);
  return seq.ok() && *seq >= 0 ? static_cast<std::uint64_t>(*seq)
                               : UINT64_MAX;
}

// ---------------------------------------------------------------- E2E run

struct Verdict {
  Tally tally;
  std::uint64_t queries = 0;
  std::uint64_t wrong_answers = 0;
  Digest inputs, outputs;
};

/// The pipeline for one workload shape, its pipeline thread (T1) and helper
/// threads (T2 serves rpc and, with TCP consumers, drains them; T3 is the
/// query consumer).
class E2E {
 public:
  E2E(Shape shape, std::uint64_t seed) : shape_(std::move(shape)), seed_(seed) {}
  ~E2E() { StopHelpers(); }
  E2E(const E2E&) = delete;
  E2E& operator=(const E2E&) = delete;

  void Setup();
  void StartHelpers();
  void Drive(Phase& phase);
  /// After the last phase: stop queries, let in-flight events land, stop.
  void Finish();
  Counters Read() const;
  Verdict Verify();
  /// One delivery or archived event: when it was logged (or due), and
  /// how long it took to arrive.
  struct Latency {
    std::int64_t from_ns = 0;
    double us = 0;
  };
  std::vector<Latency> Latencies(const Phase& phase) const;
  double ArchiveBytesPerEvent() const {
    return static_cast<double>(archive_->StorageBytes()) /
           static_cast<double>(std::max<std::size_t>(1, archive_->size()));
  }
  std::uint64_t DirectoryEntries() const;
  /// Events the TCP consumers' clients shed over the whole run (read
  /// after Finish: T2 owns the clients while it runs).
  std::uint64_t PendingDropped() const {
    std::uint64_t n = 0;
    for (const auto& t : tcp_consumers_) n += t.client->pending_dropped();
    return n;
  }
  const std::vector<QueryRecord>& queries() const {
    return consumer_->records();
  }
  std::vector<ThreadTrace*> traces() {
    return {&pipeline_trace_, &server_trace_, &consumer_trace_};
  }

 private:
  void FillDirectory();
  void Preload();
  void ConnectTcpConsumers();
  /// One pipeline round, upstream to downstream. `all_hosts` ticks every
  /// manager; otherwise only those that logged since the last round.
  void Round(std::uint64_t group, bool all_hosts);
  void DriveClosed(Phase& phase);
  void DriveOpen(Phase& phase);
  void Serve();
  void StopHelpers();
  void SampleQueues(Phase& phase) const;
  std::vector<gateway::GatewayService*> Services() const;

  Shape shape_;
  std::uint64_t seed_;
  std::unique_ptr<Generator> gen_;
  SimClock pipe_clock_{0};   // the pipeline's own time: +1 ms per round
  SimClock input_clock_{0};  // event time of the input being logged
  SimClock pump_clock_{0};   // the archiver's hop clock: the pump number
  std::unique_ptr<transport::InProcNetwork> net_;
  directory::Dn suffix_;
  std::shared_ptr<directory::DirectoryServer> dir_;
  directory::DirectoryPool pool_;  // T1's pool
  std::vector<std::unique_ptr<TimedGateway>> leaves_;
  std::vector<std::unique_ptr<gateway::GatewayService>> services_;
  std::vector<std::unique_ptr<AppHost>> hosts_;
  std::vector<std::uint32_t> touched_;  // hosts that logged this round
  std::vector<bool> is_touched_;
  std::unique_ptr<federation::RepublisherGateway> republisher_;
  std::unique_ptr<gateway::GatewayService> root_service_;
  std::unique_ptr<gateway::GatewayService> tcp_service_;
  std::vector<TcpConsumer> tcp_consumers_;
  std::unique_ptr<archive::EventArchive> archive_;
  std::unique_ptr<consumers::ArchiverAgent> archiver_;
  std::unique_ptr<rpc::Registry> registry_;
  std::unique_ptr<rpc::RpcServer> rpc_server_;
  std::unique_ptr<QueryConsumer> consumer_;

  std::uint64_t rounds_ = 0;
  std::vector<std::int64_t> log_ns_;       // [seq - preload] logged / due
  std::vector<std::int64_t> pump_end_ns_;  // [pump] when PumpRemote returned
  std::vector<std::uint32_t> arrival_;     // [seq - preload] storing pump
  std::atomic<std::uint64_t> watermark_{0};  // seqs below are archived
  std::atomic<std::int64_t> last_rx_ns_{0};  // T2's last TCP receipt

  ThreadTrace pipeline_trace_{"T1.pipeline"}, server_trace_{"T2.server"},
      consumer_trace_{"T3.consumer"};
  std::atomic<bool> stop_server_{false}, stop_consumer_{false};
  std::thread server_thread_, consumer_thread_;
};

void E2E::Setup() {
  gen_ = std::make_unique<Generator>(seed_, shape_.hosts, shape_.block);
  net_ = std::make_unique<transport::InProcNetwork>();
  suffix_ = *directory::Dn::Parse("ou=sensors, o=jamm");
  dir_ = std::make_shared<directory::DirectoryServer>(suffix_, "ldap://bench");
  pool_.AddServer(dir_);
  if (shape_.directory_hosts > 0) FillDirectory();

  for (std::uint32_t i = 0; i < shape_.leaves; ++i) {
    const std::string name = "leaf-" + std::to_string(i);
    leaves_.push_back(std::make_unique<TimedGateway>(name, pipe_clock_));
    services_.push_back(MakeService(*leaves_.back(), net_->Listen(name)));
  }
  for (std::uint32_t h = 0; h < shape_.hosts; ++h) {
    const std::uint32_t leaf = h % shape_.leaves;
    hosts_.push_back(std::make_unique<AppHost>(
        h, pipe_clock_, input_clock_, *leaves_[leaf], pool_, suffix_,
        "inproc:leaf-" + std::to_string(leaf)));
  }
  is_touched_.assign(shape_.hosts, false);

  std::string feed = "leaf-0";
  if (shape_.republisher) {
    republisher_ =
        std::make_unique<federation::RepublisherGateway>("root", pipe_clock_);
    for (std::uint32_t i = 0; i < shape_.leaves; ++i) {
      const std::string name = "leaf-" + std::to_string(i);
      auto* net = net_.get();
      federation::RepublisherGateway::DownstreamSpec child;
      child.name = name;
      child.dialer = [net, name]() { return net->Dial(name); };
      Require(republisher_->AddDownstream(std::move(child)),
              "republisher downstream");
    }
    root_service_ = MakeService(*republisher_, net_->Listen("root"));
    feed = "root";
  }

  archive::SegmentConfig config;
  config.max_records = shape_.segment_records;
  config.compress_sealed = true;
  archive_ = std::make_unique<archive::EventArchive>(kArchiveName, 1, config);
  archiver_ = std::make_unique<consumers::ArchiverAgent>(
      kArchiveName, *archive_, "inproc:archive-rpc", &pump_clock_);
  auto* net = net_.get();
  gateway::FilterSpec spec;
  spec.event_glob = shape_.archive_glob;
  Require(archiver_->AttachRemote(
              std::make_unique<gateway::GatewayClient>(
                  [net, feed]() { return net->Dial(feed); }),
              spec, 64),
          "archiver attach");
  Require(archiver_->PublishTo(pool_, suffix_), "archive publish");
  registry_ = std::make_unique<rpc::Registry>(SystemClock::Instance());
  Require(archive::RegisterArchiveService(*registry_, *archive_),
          "archive service");
  auto rpc_listener = net_->Listen("archive-rpc");
  Require(rpc_listener.ok(), "rpc listen");
  rpc_server_ =
      std::make_unique<rpc::RpcServer>(*registry_, std::move(*rpc_listener));
  pump_end_ns_.push_back(0);  // pump numbers start at 1

  if (shape_.preload > 0) Preload();
  if (shape_.tcp_consumers) ConnectTcpConsumers();
  // Let every subscription settle before anything is logged.
  for (int i = 0; i < 20; ++i) Round(0, true);
  log_ns_.reserve(1 << 22);
  arrival_.reserve(1 << 22);
}

void E2E::FillDirectory() {
  std::vector<directory::Entry> hosts, sensors;
  for (std::uint32_t h = 0; h < shape_.directory_hosts; ++h) {
    hosts.push_back(directory::schema::MakeHostEntry(suffix_, HostName(h)));
    sensors.push_back(directory::schema::MakeSensorEntry(
        suffix_, HostName(h), "app", "application", "inproc:leaf-0", 1, 0));
  }
  Require(pool_.UpsertBatch(hosts), "directory hosts");
  Require(pool_.UpsertBatch(sensors), "directory sensors");
}

/// Ingests the first `preload` inputs straight into the archive, shaped
/// as the pipeline stores them (trace id and the four hop stamps), then
/// seals (and so compresses) every segment.
void E2E::Preload() {
  std::vector<ulm::Symbol> hosts, kinds;
  for (std::uint32_t h = 0; h < shape_.hosts; ++h) {
    hosts.push_back(ulm::InternSymbol(HostName(h)));
  }
  for (int k = 0; k < kKinds; ++k) kinds.push_back(ulm::InternSymbol(KindName(k)));
  const ulm::Symbol prog = ulm::InternSymbol(kProg), lvl = ulm::InternSymbol(kLvl);
  const ulm::Symbol val = ulm::InternSymbol(kValField),
                    seq = ulm::InternSymbol(kSeqField),
                    obj = ulm::InternSymbol(kObjField);
  ulm::FlatRecord rec;
  ulm::FlatBatch batch;
  for (std::uint64_t i = 0; i < shape_.preload; ++i) {
    const Event e = gen_->Next();
    const TimePoint ts = EventTs(e.seq);
    rec.Clear();
    rec.set_timestamp(ts);
    rec.set_host_sym(hosts[e.host]);
    rec.set_prog_sym(prog);
    rec.set_lvl_sym(lvl);
    rec.set_event_sym(kinds[e.kind]);
    rec.SetField(val, static_cast<std::int64_t>(e.val));
    rec.SetField(seq, static_cast<std::int64_t>(e.seq));
    if (e.obj != 0) rec.SetField(obj, ObjectId(e.obj));
    telemetry::EnsureTrace(rec);
    for (const char* hop : {"sensor", "manager", "gateway", "archiver"}) {
      telemetry::StampHop(rec, hop, ts);
    }
    Require(batch.Append(rec.View()), "preload batch");
    if (batch.size() == 8192) {
      archive_->IngestBatch(std::move(batch));
      batch = ulm::FlatBatch();
    }
  }
  if (!batch.empty()) archive_->IngestBatch(std::move(batch));
  archive_->SealActive();
}

void E2E::ConnectTcpConsumers() {
  auto listener = transport::TcpListener::Create(0);
  Require(listener.ok(), "tcp listen");
  const std::uint16_t port = (*listener)->port();
  tcp_service_ = MakeService(
      *leaves_[0], std::unique_ptr<transport::Listener>(std::move(*listener)));
  const auto mix = TcpSubscriptionMix();
  for (std::size_t c = 0; c < mix.size(); ++c) {
    TcpConsumer consumer;
    consumer.subs = mix[c];
    consumer.client = std::make_unique<gateway::GatewayClient>(
        [port, xml = consumer.xml]() -> Result<std::unique_ptr<transport::Channel>> {
          auto ch = transport::TcpDial("127.0.0.1", port);
          if (!ch.ok()) return ch.status();
          return std::unique_ptr<transport::Channel>(
              new XmlTap(std::move(*ch), xml));
        });
    consumer.xml->reserve(1 << 18);
    consumer.client->set_pending_capacity(1 << 16);
    for (const auto& sub : consumer.subs) {
      auto spec = gateway::FilterSpec::Parse(sub.filter.Spec());
      Require(spec.ok(), "filter spec " + sub.filter.Spec());
      const std::string name = "consumer-" + std::to_string(c);
      Require(sub.batch > 0 ? consumer.client->SubscribeBatchedAsync(
                                  name, *spec, sub.batch)
                            : consumer.client->SubscribeAsync(name, *spec,
                                                              sub.xml),
              "tcp subscribe");
    }
    consumer.received.reserve(1 << 20);
    tcp_consumers_.push_back(std::move(consumer));
  }
  const std::int64_t deadline = NowNs() + 5'000'000'000;
  for (bool ready = false; !ready;) {
    Require(NowNs() < deadline, "tcp subscriptions never confirmed");
    tcp_service_->PollOnce();
    ready = true;
    for (auto& c : tcp_consumers_) {
      Require(c.client->DrainEvents().empty(), "event before any input");
      for (std::size_t i = 0; i < c.subs.size(); ++i) {
        if (c.client->subscription_id(i).empty()) ready = false;
      }
    }
  }
}

std::vector<gateway::GatewayService*> E2E::Services() const {
  std::vector<gateway::GatewayService*> out;
  for (const auto& s : services_) out.push_back(s.get());
  if (root_service_) out.push_back(root_service_.get());
  if (tcp_service_) out.push_back(tcp_service_.get());
  return out;
}

void E2E::Round(std::uint64_t group, bool all_hosts) {
  pipe_clock_.Advance(kMillisecond);
  if (all_hosts) {
    for (auto& h : hosts_) {
      ScopedSpan span(Layer::kManagerTick, group);
      h->manager->Tick();
    }
  } else {
    for (std::uint32_t h : touched_) {
      ScopedSpan span(Layer::kManagerTick, group);
      hosts_[h]->manager->Tick();
    }
  }
  for (std::uint32_t h : touched_) is_touched_[h] = false;
  touched_.clear();
  if (tcp_service_) {
    ScopedSpan span(Layer::kServicePoll, group);
    tcp_service_->PollOnce();
  }
  for (auto& s : services_) {
    ScopedSpan span(Layer::kServicePoll, group);
    s->PollOnce();
  }
  if (republisher_) {
    {
      ScopedSpan span(Layer::kFederationPump, group);
      republisher_->Pump();
    }
    ScopedSpan span(Layer::kServicePoll, group);
    root_service_->PollOnce();
  }
  pump_clock_.Set(static_cast<TimePoint>(pump_end_ns_.size()));
  {
    ScopedSpan span(Layer::kArchiverPump, group);
    archiver_->PumpRemote();
  }
  pump_end_ns_.push_back(NowNs());
}

void E2E::Drive(Phase& phase) {
  pipeline_trace_.begin_ns = phase.begin_ns;
  phase.seq_begin = gen_->count();
  if (shape_.closed_loop) {
    DriveClosed(phase);
  } else {
    DriveOpen(phase);
  }
  phase.seq_end = gen_->count();
  pipeline_trace_.end_ns = phase.end_ns = NowNs();
}

void E2E::DriveClosed(Phase& phase) {
  const std::uint64_t burst_size = std::uint64_t{shape_.hosts} * shape_.block;
  std::vector<Event> burst;
  std::int64_t last_done = NowNs();
  while (NowNs() < phase.end_ns) {
    const std::uint64_t group = ++rounds_;
    burst.clear();
    for (std::uint64_t i = 0; i < burst_size; ++i) burst.push_back(gen_->Next());
    phase.late_us.push_back(Us(NowNs() - last_done));
    for (std::size_t i = 0; i < burst.size(); i += shape_.block) {
      AppHost& host = *hosts_[burst[i].host];
      {
        ScopedSpan span(Layer::kNetloggerWrite, group);
        for (std::size_t j = i; j < i + shape_.block; ++j) {
          input_clock_.Set(EventTs(burst[j].seq));
          host.Log(burst[j]);
          log_ns_.push_back(NowNs());
        }
      }
      ScopedSpan span(Layer::kNetloggerFlush, group);
      (void)host.logger->Flush();
    }
    phase.writes += burst_size;
    const std::uint64_t target = archive_->ingested();
    const std::uint64_t want = target + burst_size;
    for (int round = 0; archive_->ingested() < want && round < 100; ++round) {
      Round(group, true);
      if (phase.traced && round == 0 && group % 16 == 0) SampleQueues(phase);
    }
    if (archive_->ingested() < want) break;  // stalled: the oracle reports it
    watermark_.store(gen_->count(), std::memory_order_release);
    last_done = NowNs();
  }
}

void E2E::DriveOpen(Phase& phase) {
  const double period_ns = 1e9 / shape_.rate;
  const std::int64_t start = NowNs();
  std::uint64_t i = 0;  // events of this phase logged so far
  phase.late_us.reserve(
      static_cast<std::size_t>(shape_.rate * phase.wall_s() * 1.2) + 16);
  for (;;) {
    std::int64_t now = NowNs();
    if (now >= phase.end_ns) break;
    const auto due = static_cast<std::uint64_t>(
        static_cast<double>(now - start) / period_ns) + 1;
    if (i >= due) {
      ScopedSpan span(Layer::kGeneratorWait);
      const auto next =
          start + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      while (NowNs() < next && NowNs() < phase.end_ns) {
      }
      phase.wait_ns += NowNs() - now;
      continue;
    }
    const std::uint64_t group = ++rounds_;
    {
      ScopedSpan span(Layer::kNetloggerWrite, group);
      for (int k = 0; i < due && k < 64; ++i, ++k) {
        const Event e = gen_->Next();
        const auto due_ns = start + static_cast<std::int64_t>(
                                        static_cast<double>(i) * period_ns);
        input_clock_.Set(EventTs(e.seq));
        hosts_[e.host]->Log(e);
        log_ns_.push_back(due_ns);
        phase.late_us.push_back(Us(NowNs() - due_ns));
        ++phase.writes;
        if (!is_touched_[e.host]) {
          is_touched_[e.host] = true;
          touched_.push_back(e.host);
        }
      }
    }
    {
      ScopedSpan span(Layer::kNetloggerFlush, group);
      for (std::uint32_t h : touched_) (void)hosts_[h]->logger->Flush();
    }
    const std::uint64_t logged = gen_->count();
    Round(group, false);
    if (phase.traced && group % 64 == 0) SampleQueues(phase);
    watermark_.store(logged, std::memory_order_release);
  }
}

void E2E::SampleQueues(Phase& phase) const {
  for (auto* s : Services()) {
    for (const auto& q : s->QueueStats()) {
      phase.queue_max_depth =
          std::max(phase.queue_max_depth, static_cast<double>(q.queued_messages));
    }
  }
}

void E2E::Serve() {
  CurrentTrace() = &server_trace_;
  while (!stop_server_.load(std::memory_order_acquire)) {
    bool idle = true;
    for (auto& c : tcp_consumers_) {
      std::vector<ulm::Record> records;
      const std::size_t xml_before = c.xml->size();
      {
        ScopedSpan span(Layer::kClientDrain);
        records = c.client->DrainEvents();
        if (records.empty() && c.xml->size() == xml_before) span.Discard();
      }
      if (c.xml->size() != xml_before) {
        idle = false;
        last_rx_ns_.store(NowNs(), std::memory_order_release);
      }
      if (records.empty()) continue;
      idle = false;
      const std::int64_t at = NowNs();
      for (const auto& rec : records) {
        c.received.push_back({SeqOf(rec), ContentHashOf(rec), at});
      }
      last_rx_ns_.store(at, std::memory_order_release);
    }
    if (tcp_consumers_.empty()) {
      ScopedSpan span(Layer::kRpcServerPoll);
      if (rpc_server_->PollOnce() == 0) {
        span.Discard();
      } else {
        idle = false;
      }
    }
    if (idle) std::this_thread::yield();
  }
}

void E2E::StartHelpers() {
  // With TCP consumers on T2, the query consumer serves its own rpc
  // requests so live delivery never waits behind a query.
  consumer_ = std::make_unique<QueryConsumer>(
      shape_.plan, seed_, dir_, suffix_, *net_, watermark_,
      shape_.tcp_consumers ? rpc_server_.get() : nullptr);
  if (shape_.plan.fixed_span != 0) watermark_.store(shape_.plan.fixed_span);
  server_thread_ = std::thread([this] { Serve(); });
  consumer_thread_ = std::thread([this] {
    CurrentTrace() = &consumer_trace_;
    consumer_->Run(stop_consumer_);
  });
}

void E2E::StopHelpers() {
  stop_consumer_.store(true);
  if (consumer_thread_.joinable()) consumer_thread_.join();
  stop_server_.store(true);
  if (server_thread_.joinable()) server_thread_.join();
}

void E2E::Finish() {
  stop_consumer_.store(true);
  if (consumer_thread_.joinable()) consumer_thread_.join();
  // Rounds with no new input until the consumers have heard nothing for
  // 100 ms (or 2 s have passed): everything in flight lands.
  const std::int64_t deadline = NowNs() + 2'000'000'000;
  for (int i = 0; NowNs() < deadline; ++i) {
    Round(0, true);
    if (i >= 20 && NowNs() - last_rx_ns_.load() > 100'000'000) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  StopHelpers();
}

Counters E2E::Read() const {
  Counters c;
  for (const auto& h : hosts_) {
    c.forwarded += static_cast<double>(h->manager->stats().events_forwarded);
    c.renewals += static_cast<double>(h->manager->stats().lease_renewals);
  }
  for (const auto& g : leaves_) {
    c.delivered += static_cast<double>(g->stats().events_delivered);
    c.filtered += static_cast<double>(g->stats().events_filtered);
  }
  auto& m = telemetry::Metrics();
  c.encode_hits = static_cast<double>(m.counter("gateway.encode_cache.hits").Value());
  c.encode_misses =
      static_cast<double>(m.counter("gateway.encode_cache.misses").Value());
  for (auto* s : Services()) {
    for (const auto& q : s->QueueStats()) {
      c.sent_records += static_cast<double>(q.sent_records);
      c.sent_messages += static_cast<double>(q.sent_messages);
      c.service_dropped += static_cast<double>(q.dropped_records);
    }
  }
  if (republisher_) {
    const auto fed = republisher_->stats();
    c.fed_in = static_cast<double>(fed.records_in);
    c.fed_dups = static_cast<double>(fed.duplicates_dropped);
    c.fed_stale = static_cast<double>(fed.stale_dropped);
  }
  c.remote_dropped = static_cast<double>(archiver_->remote_dropped());
  c.seals = static_cast<double>(archive_->seal_count());
  c.segments = static_cast<double>(archive_->segment_count());
  c.ingested = static_cast<double>(archive_->ingested());
  return c;
}

std::uint64_t E2E::DirectoryEntries() const {
  auto filter = directory::Filter::Parse("(objectclass=*)");
  if (!filter.ok()) return 0;
  directory::DirectoryPool pool;
  pool.AddServer(dir_);
  auto r = pool.Search(suffix_, directory::SearchScope::kSubtree, *filter);
  return r.ok() ? r->entries.size() : 0;
}

Verdict E2E::Verify() {
  Verdict v;
  const std::uint64_t n = gen_->count();
  const std::uint64_t lo = shape_.preload;  // pipeline-logged seqs start here
  Generator replay(seed_, shape_.hosts, shape_.block);
  std::vector<Event> archived;  // what the archive should hold
  std::vector<Observed> expect_archive;
  std::vector<std::vector<Observed>> expect_tcp(tcp_consumers_.size());
  std::vector<std::vector<RefFilter>> filters;
  for (const auto& c : tcp_consumers_) {
    filters.emplace_back();
    for (const auto& sub : c.subs) filters.back().emplace_back(sub.filter);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const Event e = replay.Next();
    const std::uint64_t hash = ContentHash(e);
    v.inputs.Add(hash);
    if (shape_.archive_glob.empty() || Glob(shape_.archive_glob, KindName(e.kind))) {
      archived.push_back(e);
      if (e.seq >= lo) expect_archive.push_back({e.seq, hash});
    }
    for (std::size_t c = 0; c < filters.size(); ++c) {
      for (auto& f : filters[c]) {
        if (f.Pass(e)) expect_tcp[c].push_back({e.seq, hash});
      }
    }
  }

  // Read back everything the pipeline stored (the preload is checked by
  // count here and by every query answer).
  std::vector<Observed> observed;
  arrival_.assign(n - lo, 0);
  const auto [span_min, span_max] = archive_->TimeSpan();
  (void)span_min;
  for (TimePoint t = EventTs(lo); t <= span_max;
       t += static_cast<TimePoint>(kScanWindow)) {
    for (const auto& rec : archive_->QueryRange(t, t + kScanWindow)) {
      const std::uint64_t hash = ContentHashOf(rec);
      const std::uint64_t seq = SeqOf(rec);
      observed.push_back({seq, hash});
      v.outputs.Add(hash);
      auto pump = rec.GetInt("HOP.ARCHIVER");
      if (seq >= lo && seq < n && pump.ok() && arrival_[seq - lo] == 0) {
        arrival_[seq - lo] = static_cast<std::uint32_t>(*pump);
      }
    }
  }
  v.tally = Reconcile(std::move(expect_archive), std::move(observed));
  const std::uint64_t want_total = archived.size();
  const std::uint64_t have_total = archive_->size();
  if (have_total != want_total) {
    v.tally.missing += want_total > have_total ? want_total - have_total : 0;
    v.tally.duplicated += have_total > want_total ? have_total - want_total : 0;
  }
  for (std::size_t c = 0; c < tcp_consumers_.size(); ++c) {
    std::vector<Observed> got;
    got.reserve(tcp_consumers_[c].received.size());
    for (const auto& r : tcp_consumers_[c].received) got.push_back({r.seq, r.hash});
    for (const auto& x : *tcp_consumers_[c].xml) {
      Observed o{UINT64_MAX, 0};
      (void)ObserveXmlEvent(x.payload, o.seq, o.hash);
      got.push_back(o);
    }
    const Tally t = Reconcile(std::move(expect_tcp[c]), std::move(got));
    std::printf("  consumer-%zu: %llu expected, %llu missing, %llu duplicated, "
                "%llu wrong\n",
                c, static_cast<unsigned long long>(t.expected),
                static_cast<unsigned long long>(t.missing),
                static_cast<unsigned long long>(t.duplicated),
                static_cast<unsigned long long>(t.wrong));
    v.tally += t;
  }
  v.queries = consumer_->records().size();
  v.wrong_answers = WrongAnswers(consumer_->records(), ArchiveRef(std::move(archived)));
  return v;
}

std::vector<E2E::Latency> E2E::Latencies(const Phase& phase) const {
  std::vector<Latency> out;
  const std::uint64_t lo = shape_.preload;
  auto add = [&](std::uint64_t seq, std::int64_t at_ns) {
    if (seq >= phase.seq_begin && seq < phase.seq_end) {
      const std::int64_t from = log_ns_[seq - lo];
      out.push_back({from, Us(at_ns - from)});
    }
  };
  if (!tcp_consumers_.empty()) {
    for (const auto& c : tcp_consumers_) {
      for (const auto& r : c.received) add(r.seq, r.at_ns);
      for (const auto& x : *c.xml) {
        std::uint64_t seq = UINT64_MAX, hash = 0;
        if (ObserveXmlEvent(x.payload, seq, hash)) add(seq, x.at_ns);
      }
    }
    return out;
  }
  for (std::uint64_t seq = phase.seq_begin; seq < phase.seq_end; ++seq) {
    const std::uint32_t pump = arrival_[seq - lo];
    if (pump == 0 || pump >= pump_end_ns_.size()) continue;  // not archived
    add(seq, pump_end_ns_[pump]);
  }
  return out;
}

// ----------------------------------------------------------------- report

void Add(Report& r, const std::string& name, double value,
         const std::string& unit) {
  r.metrics.push_back({name, value, unit});
}

double Mean(const LayerTotals& t) {
  return t.calls == 0 ? 0 : static_cast<double>(t.total_ns) /
                                static_cast<double>(t.calls);
}

std::vector<double> QuerySamples(const std::vector<QueryRecord>& qs,
                                 const Phase& p, int kind, bool discover) {
  std::vector<double> out;
  for (const auto& q : qs) {
    if (q.start_ns < p.begin_ns || q.start_ns >= p.end_ns) continue;
    if (kind >= 0 && q.kind != kind) continue;
    out.push_back(discover ? q.discover_us : q.query_us);
  }
  return out;
}

/// p90 of each one-second window (by when the event was logged or due)
/// of the phase. Their median is the reported tail: a host stall that
/// hits a few windows moves a whole-run percentile but not this.
std::vector<double> WindowP90(const std::vector<E2E::Latency>& samples,
                              const Phase& p) {
  std::vector<std::vector<double>> windows(
      static_cast<std::size_t>(p.wall_s()) + 1);
  for (const auto& l : samples) {
    const auto w = static_cast<std::size_t>((l.from_ns - p.begin_ns) / 1'000'000'000);
    if (w < windows.size()) windows[w].push_back(l.us);
  }
  std::vector<double> out;
  for (const auto& w : windows) {
    if (w.size() >= 100) out.push_back(Percentile(w, 90));
  }
  return out;
}

void PrintSamples(const char* what, const std::vector<double>& v) {
  std::printf("  %-16s n=%zu p50=%.1f p90=%.1f p95=%.1f p99=%.1f p99.9=%.1f max=%.1f\n",
              what, v.size(), Percentile(v, 50), Percentile(v, 90), Percentile(v, 95),
              Percentile(v, 99), Percentile(v, 99.9), Percentile(v, 100));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "fanin_archive", "fanout_tcp", "query_during_ingest"};
  return names;
}

Report RunWorkload(const RunOptions& options) {
  const Shape shape = MakeShape(options.workload);
  std::printf("workload %s seed %llu: %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              shape.describe.c_str());

  // Set-up three times (each torn down before the next); setup_s is the
  // median, so one slow build does not move it.
  std::vector<double> setups;
  std::unique_ptr<E2E> run;
  for (int i = 0; i < 3; ++i) {
    run.reset();
    run = std::make_unique<E2E>(shape, options.seed);
    const std::int64_t t = NowNs();
    run->Setup();
    setups.push_back(static_cast<double>(NowNs() - t) / 1e9);
  }
  const double setup_s = Percentile(setups, 50);
  std::printf("  set-up %.3f s (median of %.3f %.3f %.3f)\n", setup_s,
              setups[0], setups[1], setups[2]);

  run->StartHelpers();
  std::uint64_t allocs = 0;
  std::vector<Phase> phases(options.trace ? 2 : 1);
  const double per_phase = options.seconds / static_cast<double>(phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    Phase& p = phases[i];
    p.traced = i == 1;
    p.before = run->Read();
    p.begin_ns = NowNs();
    p.end_ns = p.begin_ns + static_cast<std::int64_t>(per_phase * 1e9);
    const std::uint64_t wire0 = g_wire_bytes.load();
    if (p.traced) {
      for (ThreadTrace* t : run->traces()) t->begin_ns = p.begin_ns;
      CurrentTrace() = run->traces()[0];
      g_tracing.store(true);
    } else {
      g_count_allocs.store(true);
    }
    run->Drive(p);
    g_tracing.store(false);
    g_count_allocs.store(false);
    // Allocations of the pipeline thread only: the event path from the
    // NetLogger call to the archive and the wire. Helper threads poll
    // while idle, and the program's idle polls allocate, so their counts
    // follow the spin rate rather than the work.
    if (!p.traced) allocs = TakeThreadAllocs();
    for (ThreadTrace* t : run->traces()) t->end_ns = p.end_ns;
    p.wire_bytes = g_wire_bytes.load() - wire0;
    p.after = run->Read();
  }
  run->Finish();

  const Verdict v = run->Verify();
  const auto& qs = run->queries();
  Report r;
  r.attempted = v.tally.expected + 2 * v.queries;
  r.failed = v.tally.failed() + v.wrong_answers;
  r.correct = r.failed == 0;
  std::printf(
      "  inputs: %llu events, digest %016llx; archive read back %llu "
      "records, digest %016llx\n",
      static_cast<unsigned long long>(v.inputs.count),
      static_cast<unsigned long long>(v.inputs.sum),
      static_cast<unsigned long long>(v.outputs.count),
      static_cast<unsigned long long>(v.outputs.sum));
  std::printf(
      "  oracle: %llu deliveries expected, %llu matched, %llu missing, %llu "
      "duplicated, %llu wrong; %llu requests, %llu wrong answers; "
      "failed_fraction %.6f\n",
      static_cast<unsigned long long>(v.tally.expected),
      static_cast<unsigned long long>(v.tally.matched),
      static_cast<unsigned long long>(v.tally.missing),
      static_cast<unsigned long long>(v.tally.duplicated),
      static_cast<unsigned long long>(v.tally.wrong),
      static_cast<unsigned long long>(v.queries),
      static_cast<unsigned long long>(v.wrong_answers),
      r.attempted ? static_cast<double>(r.failed) /
                        static_cast<double>(r.attempted)
                  : 0.0);

  const Phase& p0 = phases[0];
  const auto samples = run->Latencies(p0);
  std::vector<double> lat;
  for (const auto& l : samples) lat.push_back(l.us);
  const double events_per_s = p0.events() / p0.wall_s();
  if (!options.trace) {
    const auto qlat = QuerySamples(qs, p0, -1, false);
    const auto dlat = QuerySamples(qs, p0, -1, true);
    PrintSamples("latency_us", lat);
    PrintSamples("query_us", qlat);
    PrintSamples("discover_us", dlat);
    Add(r, "events_per_s", events_per_s, "1/s");
    Add(r, "latency_p50_us", Percentile(lat, 50), "us");
    const std::vector<double> window_p90 = WindowP90(samples, p0);
    std::printf("  latency p90 of each 1 s window: median %.1f over %zu windows\n",
                Percentile(window_p90, 50), window_p90.size());
    Add(r, "latency_p90_us", Percentile(window_p90, 50), "us");
    Add(r, "query_p50_us", Percentile(qlat, 50), "us");
    Add(r, "queries_per_s", static_cast<double>(qlat.size()) / p0.wall_s(),
        "1/s");
    Add(r, "discover_p50_us", Percentile(dlat, 50), "us");
    Add(r, "wire_bytes_per_event",
        static_cast<double>(p0.wire_bytes) / p0.events(), "B");
    Add(r, "heap_allocs_per_event", static_cast<double>(allocs) / p0.events(),
        "count");
    Add(r, "archive_bytes_per_event", run->ArchiveBytesPerEvent(), "B");
    Add(r, "peak_rss_mb", PeakRssMb(), "MB");
    Add(r, "setup_s", setup_s, "s");
    return r;
  }

  // Traced run: per-layer numbers from the traced half, overhead against
  // the untraced half.
  const Phase& p1 = phases[1];
  std::vector<const ThreadTrace*> traces;
  for (ThreadTrace* t : run->traces()) traces.push_back(t);
  const TraceSummary sum = Summarize(traces);
  if (!options.span_dir.empty()) {
    WriteSpans(options.span_dir + "/" + options.workload + "-seed" +
                   std::to_string(options.seed) + ".spans.tsv",
               traces);
  }
  const auto& L = sum.layers;
  auto layer = [&](Layer l) -> const LayerTotals& {
    return L[static_cast<int>(l)];
  };
  const Counters d = [&] {
    Counters c;
    const Counters& a = p1.after;
    const Counters& b = p1.before;
    c.forwarded = a.forwarded - b.forwarded;
    c.renewals = a.renewals - b.renewals;
    c.delivered = a.delivered - b.delivered;
    c.filtered = a.filtered - b.filtered;
    c.encode_hits = a.encode_hits - b.encode_hits;
    c.encode_misses = a.encode_misses - b.encode_misses;
    c.sent_records = a.sent_records - b.sent_records;
    c.sent_messages = a.sent_messages - b.sent_messages;
    c.service_dropped = a.service_dropped - b.service_dropped;
    c.fed_in = a.fed_in - b.fed_in;
    c.fed_dups = a.fed_dups - b.fed_dups;
    c.fed_stale = a.fed_stale - b.fed_stale;
    c.remote_dropped = a.remote_dropped - b.remote_dropped;
    c.seals = a.seals - b.seals;
    c.segments = a.segments;
    c.ingested = a.ingested - b.ingested;
    return c;
  }();
  const double traced_rate = p1.events() / p1.wall_s();
  const auto tick = layer(Layer::kManagerTick).durations_ns;
  Add(r, "netlogger.write_ns",
      p1.writes ? static_cast<double>(layer(Layer::kNetloggerWrite).total_ns) /
                      static_cast<double>(p1.writes)
                : 0,
      "ns");
  Add(r, "manager.tick_ns.p50", Percentile(tick, 50), "ns");
  Add(r, "manager.tick_ns.p99", Percentile(tick, 99), "ns");
  Add(r, "manager.events_forwarded", d.forwarded, "count");
  Add(r, "manager.lease_renewals", d.renewals, "count");
  Add(r, "gateway.events_delivered", d.delivered, "count");
  Add(r, "gateway.events_filtered", d.filtered, "count");
  Add(r, "gateway.encode_cache.hit_ratio",
      d.encode_hits + d.encode_misses > 0
          ? d.encode_hits / (d.encode_hits + d.encode_misses)
          : 0,
      "ratio");
  Add(r, "gateway_service.poll_ns", Mean(layer(Layer::kServicePoll)), "ns");
  Add(r, "gateway_service.records_per_frame",
      d.sent_messages > 0 ? d.sent_records / d.sent_messages : 0, "count");
  Add(r, "gateway_service.queue_max_depth", p1.queue_max_depth, "count");
  Add(r, "gateway_service.dropped_records", d.service_dropped, "count");
  Add(r, "gateway_client.drain_ns", Mean(layer(Layer::kClientDrain)), "ns");
  Add(r, "gateway_client.pending_dropped",
      static_cast<double>(run->PendingDropped()), "count");
  Add(r, "federation.pump_ns", Mean(layer(Layer::kFederationPump)), "ns");
  Add(r, "federation.records_in", d.fed_in, "count");
  Add(r, "federation.duplicates_dropped", d.fed_dups, "count");
  Add(r, "federation.stale_dropped", d.fed_stale, "count");
  Add(r, "consumers.archiver_pump_ns", Mean(layer(Layer::kArchiverPump)), "ns");
  Add(r, "consumers.remote_dropped", d.remote_dropped, "count");
  Add(r, "archive.seals", d.seals, "count");
  Add(r, "archive.segments", d.segments, "count");
  Add(r, "archive.ingested", d.ingested, "count");
  Add(r, "rpc.server_poll_ns", Mean(layer(Layer::kRpcServerPoll)), "ns");
  double bytes = 0, pruned = 0, total = 0, nq = 0;
  for (int kind : {kLifeline, kLoadline, kAgg}) {
    const auto s = QuerySamples(qs, p1, kind, false);
    double mean = 0;
    for (double x : s) mean += x;
    Add(r, std::string("rpc.query_ns.") + kQueryKindNames[kind],
        s.empty() ? 0 : mean * 1e3 / static_cast<double>(s.size()), "ns");
  }
  for (const auto& q : qs) {
    if (q.start_ns < p1.begin_ns || q.start_ns >= p1.end_ns) continue;
    bytes += static_cast<double>(q.bytes_scanned);
    pruned += static_cast<double>(q.segments_pruned);
    total += static_cast<double>(q.segments_total);
    ++nq;
  }
  Add(r, "archive.query.bytes_scanned", nq > 0 ? bytes / nq : 0, "B");
  Add(r, "archive.query.pruned_ratio", total > 0 ? pruned / total : 0, "ratio");
  Add(r, "directory.search_ns", Mean(layer(Layer::kDirectorySearch)), "ns");
  Add(r, "directory.entries", static_cast<double>(run->DirectoryEntries()),
      "count");
  Add(r, "generator.late_p99_us", Percentile(p1.late_us, 99), "us");

  std::printf("  traced half: self time by layer (share of its thread's wall)\n");
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    const LayerTotals& t = L[l];
    const auto layer_id = static_cast<Layer>(l);
    // A layer runs on one thread: its share is of that thread's wall.
    std::size_t on = 0;
    for (std::size_t i = 1; i < sum.threads.size(); ++i) {
      if (sum.threads[i].self_ns[l] > sum.threads[on].self_ns[l]) on = i;
    }
    const auto& thread = sum.threads[on];
    const double pct = thread.wall_ns > 0
                           ? 100.0 * static_cast<double>(t.self_ns) /
                                 static_cast<double>(thread.wall_ns)
                           : 0;
    std::printf("    %-26s calls=%-9llu self=%8.1f ms  %5.1f%% of %s\n",
                LayerName(layer_id), static_cast<unsigned long long>(t.calls),
                static_cast<double>(t.self_ns) / 1e6, pct, thread.name.c_str());
    Add(r, std::string(LayerName(layer_id)) + ".self_pct", pct, "%");
  }
  for (const auto& t : sum.threads) {
    std::printf("    %-12s wall %.3f s, covered by layer spans %.1f%%\n",
                t.name.c_str(), static_cast<double>(t.wall_ns) / 1e9,
                t.wall_ns ? 100.0 * static_cast<double>(t.covered_ns) /
                                static_cast<double>(t.wall_ns)
                          : 0.0);
  }
  const auto& pipeline = sum.threads[0];
  Add(r, "trace.pipeline_coverage_pct",
      pipeline.wall_ns ? 100.0 * static_cast<double>(pipeline.covered_ns) /
                           static_cast<double>(pipeline.wall_ns)
                     : 0,
      "%");
  Add(r, "trace.events_per_s_untraced", events_per_s, "1/s");
  Add(r, "trace.events_per_s_traced", traced_rate, "1/s");
  Add(r, "trace.rate_ratio", traced_rate / events_per_s, "ratio");
  // Open loop runs at a fixed rate, so there the overhead shows as pipeline-thread
  // busy time instead.
  Add(r, "trace.busy_ratio", p1.busy() / p0.busy(), "ratio");
  std::printf(
      "  tracing overhead: %.0f events/s traced vs %.0f untraced; pipeline "
      "busy %.1f%% traced vs %.1f%% untraced\n",
      traced_rate, events_per_s, 100 * p1.busy(), 100 * p0.busy());
  return r;
}

}  // namespace perfbench
