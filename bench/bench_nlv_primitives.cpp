// E1 (Figure 2) repointed at the server side (ISSUE 8): the three nlv
// graph primitives — lifeline, loadline, point — are no longer extracted
// client-side from a raw record dump; the archive's AnalysisEngine
// reconstructs them next to the data and ships summaries. This bench
// builds a ~10M-event archive shaped like the figure (request/reply trace
// hops, a CPU load wave, sporadic retransmit marks), compresses the
// sealed segments, and measures:
//
//   * sealed-segment compression ratio (dictionary + delta-varint blobs
//     vs the resting flat-chunk footprint);
//   * lifeline latency: a selective lifeline query (0.2% time window)
//     against the same reconstruction forced over the whole archive, with
//     QueryStats bytes_scanned as the pushdown-economy measure;
//   * the loadline/point/aggregate primitives over the same window, and
//     one rpc round through ArchiveClient to pin the wire path.
//
// Emits BENCH_analysis.json (path = argv[1], default ./BENCH_analysis.json)
// and enforces the hard acceptance floors itself:
//   * sealed compression ratio >= 1.5x;
//   * selective lifeline bytes_scanned reduction vs brute force >= 2x;
//   * the rpc client reproduces the local engine's lifelines and stats.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "archive/analysis.hpp"
#include "archive/archive.hpp"
#include "archive/query.hpp"
#include "common/clock.hpp"
#include "rpc/registry.hpp"
#include "rpc/wire.hpp"
#include "transport/inproc.hpp"
#include "ulm/flat.hpp"
#include "ulm/record.hpp"

using namespace jamm;  // NOLINT: bench brevity

namespace {

constexpr int kEvents = 10000000;
constexpr Duration kTick = kMillisecond;  // 10M events -> ~2.8 h span
constexpr TimePoint kSpan = static_cast<TimePoint>(kEvents) * kTick;
constexpr int kThreads = 4;
constexpr std::size_t kFrameRecords = 4096;
constexpr int kQueryPasses = 5;
constexpr int kBrutePasses = 3;

const char* const kHops[4] = {"REQ.SEND", "REQ.RECV", "REP.SEND",
                              "REP.RECV"};

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Figure-2-shaped event `i` of the global stream: every 8th event is one
// hop of a 4-hop request/reply trace (trace n spans events 32n..32n+24,
// hops 8 ms apart), every 97th a retransmit point mark, the rest a CPU
// load wave. Trace density ~12.5% keeps the full-archive brute-force
// lifeline join (~1.25M hops, ~312k traces) inside a sane footprint.
ulm::Record MakeEvent(int i) {
  const TimePoint ts = static_cast<TimePoint>(i) * kTick;
  const std::string host = "host" + std::to_string(i % 8);
  if (i % 8 == 0) {
    const int hop = (i / 8) % 4;
    const int trace = i / 32;
    ulm::Record rec(ts, host, "app", "Usage", kHops[hop]);
    const std::string trace_id = std::string("t").append(std::to_string(trace));
    rec.SetField("TRACE.ID", trace_id);
    rec.SetField("SPAN.ID", trace_id + "#" + std::to_string(hop));
    rec.SetField("VAL", static_cast<double>(1 + (trace % 40)));
    return rec;
  }
  if (i % 97 == 0) {
    return ulm::Record(ts, host, "netstat", "Warning", "NET.RETRANSMIT");
  }
  ulm::Record rec(ts, host, "vmstat", "Usage", "CPU.LOAD");
  rec.SetField("VAL", 50.0 + 40.0 * std::sin(i / 60000.0));
  return rec;
}

// 4 threads build flat frames of their stride-share and splice them in —
// the ISSUE-7 production ingest shape, so a 10M-event archive assembles
// in seconds.
void FillArchive(archive::EventArchive& ar) {
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ar, t] {
      ulm::FlatBatch batch;
      for (int i = t; i < kEvents; i += kThreads) {
        (void)batch.Append(MakeEvent(i));
        if (batch.size() == kFrameRecords) {
          ar.IngestBatch(std::move(batch));
          batch = {};
        }
      }
      if (batch.size() > 0) ar.IngestBatch(std::move(batch));
    });
  }
  for (auto& w : workers) w.join();
}

struct LifelineRun {
  double query_us = 0;
  std::size_t lifelines = 0;
  std::size_t hops = 0;
  archive::QueryStats stats;
};

LifelineRun RunLifelines(const archive::AnalysisEngine& engine,
                         const archive::AnalysisSpec& spec, TimePoint t0,
                         TimePoint t1, int passes) {
  LifelineRun run;
  std::vector<double> micros;
  for (int pass = 0; pass < passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    auto lifelines = engine.Lifelines(spec, t0, t1, &run.stats);
    micros.push_back(SecondsSince(start) * 1e6);
    run.lifelines = lifelines.size();
    run.hops = 0;
    for (const auto& line : lifelines) run.hops += line.hops.size();
  }
  run.query_us = Median(micros);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_analysis.json";

  std::printf("E1 / Figure 2 — nlv primitives, server side (ISSUE 8)\n");
  std::printf("paper: nlv draws lifelines (object paths), loadlines "
              "(scaled curves), and points (single occurrences); the\n"
              "archive now reconstructs all three next to the data and "
              "ships summaries, not records.\n\n");

  // ---- build + seal + compress the 10M-event archive
  archive::SegmentConfig config;
  config.max_records = 65536;
  config.max_span = 1000 * kHour;
  config.stripes = 8;
  archive::EventArchive ar("bench", 1, config);
  const auto build_start = std::chrono::steady_clock::now();
  FillArchive(ar);
  if (ar.size() != static_cast<std::size_t>(kEvents)) {
    std::fprintf(stderr, "archive lost records: %zu of %d\n", ar.size(),
                 kEvents);
    return 1;
  }
  ar.SealActive();
  const std::size_t bytes_flat = ar.StorageBytes();
  const auto compress_start = std::chrono::steady_clock::now();
  const std::size_t compressed_segments = ar.CompressSealed();
  const double compress_s = SecondsSince(compress_start);
  const std::size_t bytes_sealed = ar.StorageBytes();
  const double compression_ratio =
      static_cast<double>(bytes_flat) / static_cast<double>(bytes_sealed);
  std::printf("archive: %d events in %.1fs; %zu segments compressed in "
              "%.1fs: %.1f MB -> %.1f MB (%.2fx)\n",
              kEvents, SecondsSince(build_start), compressed_segments,
              compress_s, bytes_flat / 1e6, bytes_sealed / 1e6,
              compression_ratio);

  // ---- lifeline: selective window vs brute force over everything
  const TimePoint width = kSpan / 500;  // 0.2% of the span, ~20 s
  const TimePoint t0 = kSpan / 2 - width / 2;
  const archive::AnalysisEngine engine(ar);
  archive::AnalysisSpec trace_spec;
  trace_spec.event_glob = "RE*";  // the four hop event names
  const LifelineRun narrow =
      RunLifelines(engine, trace_spec, t0, t0 + width, kQueryPasses);
  const LifelineRun brute =
      RunLifelines(engine, trace_spec, 0, kSpan, kBrutePasses);
  const double bytes_reduction = static_cast<double>(brute.stats.bytes_scanned) /
                                 static_cast<double>(narrow.stats.bytes_scanned);
  std::printf("lifeline narrow (%.1f s window): %8.0f us, %6zu traces, "
              "%7zu hops, scanned %zu/%zu segments, %.1f MB\n",
              width / static_cast<double>(kSecond), narrow.query_us,
              narrow.lifelines, narrow.hops, narrow.stats.segments_scanned,
              narrow.stats.segments_total, narrow.stats.bytes_scanned / 1e6);
  std::printf("lifeline brute  (full span):     %8.0f us, %6zu traces, "
              "%7zu hops, scanned %zu/%zu segments, %.1f MB\n",
              brute.query_us, brute.lifelines, brute.hops,
              brute.stats.segments_scanned, brute.stats.segments_total,
              brute.stats.bytes_scanned / 1e6);
  std::printf("bytes-scanned reduction, selective vs brute: %.1fx\n",
              bytes_reduction);

  // End-to-end hop-chain latency from the server-reconstructed lifelines
  // (the Figure-2 STAGE_A -> STAGE_D measure, now computed by the engine's
  // TRACE.ID join instead of a client-side scan).
  archive::QueryStats stats;
  auto lifelines = engine.Lifelines(trace_spec, t0, t0 + width, &stats);
  double lat_sum = 0, lat_min = 1e18, lat_max = 0;
  std::size_t complete = 0;
  for (const auto& line : lifelines) {
    if (line.hops.size() != 4) continue;  // truncated at the window edge
    const double s = (line.hops.back().ts - line.hops.front().ts) /
                     static_cast<double>(kSecond);
    lat_sum += s;
    lat_min = std::min(lat_min, s);
    lat_max = std::max(lat_max, s);
    ++complete;
  }
  const double lat_mean = complete ? lat_sum / complete : 0;
  std::printf("lifeline latency (REQ.SEND -> REP.RECV): mean %.3fs over "
              "%zu complete traces (min %.3f, max %.3f)\n",
              lat_mean, complete, lat_min, lat_max);

  // ---- loadline + points + aggregate over the same window
  archive::AnalysisSpec load_spec;
  load_spec.event_glob = "CPU.LOAD";
  load_spec.value_field = "VAL";
  load_spec.bucket = kSecond;
  auto buckets = engine.Loadline(load_spec, t0, t0 + width, &stats);
  std::printf("loadline: %zu one-second buckets (first mean %.1f)\n",
              buckets.size(), buckets.empty() ? 0.0 : buckets.front().mean);

  archive::AnalysisSpec point_spec;
  point_spec.event_glob = "NET.RETRANSMIT";
  auto points = engine.Points(point_spec, t0, t0 + width, &stats);
  std::printf("points: %zu retransmit marks in the window\n", points.size());

  auto rows = engine.Aggregate(trace_spec, 0, kSpan, &stats);
  std::size_t agg_records = 0;
  for (const auto& row : rows) agg_records += row.count;
  std::printf("aggregate pushdown: %zu hop records -> %zu summary rows "
              "over the full span\n\n",
              agg_records, rows.size());

  // ---- one rpc round: the client must reproduce the local engine
  SimClock clock(0);
  rpc::Registry registry(clock);
  transport::InProcNetwork net;
  if (!archive::RegisterArchiveService(registry, ar).ok()) {
    std::fprintf(stderr, "FAIL: archive service registration\n");
    return 1;
  }
  auto listener = net.Listen("bench-arch");
  if (!listener.ok()) {
    std::fprintf(stderr, "FAIL: inproc listen\n");
    return 1;
  }
  rpc::RpcServer server(registry, std::move(*listener));
  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) {
      server.PollOnce();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  archive::ArchiveClient client([&net] { return net.Dial("bench-arch"); },
                                archive::ArchiveObjectName("bench"));
  auto remote = client.QueryLifelines(trace_spec, t0, t0 + width);
  stop.store(true);
  pump.join();
  const bool rpc_ok =
      remote.ok() && remote->size() == narrow.lifelines &&
      client.last_query_stats().bytes_scanned == narrow.stats.bytes_scanned;
  std::printf("rpc round trip: %zu lifelines, server reported %.1f MB "
              "scanned — %s\n",
              remote.ok() ? remote->size() : 0,
              client.last_query_stats().bytes_scanned / 1e6,
              rpc_ok ? "matches local engine" : "MISMATCH");

  // ---- hard acceptance floors
  if (compression_ratio < 1.5) {
    std::fprintf(stderr,
                 "FAIL: sealed compression ratio %.2fx (floor: 1.5x)\n",
                 compression_ratio);
    return 1;
  }
  if (bytes_reduction < 2.0) {
    std::fprintf(stderr,
                 "FAIL: selective lifeline scanned only %.2fx fewer bytes "
                 "than brute force (floor: 2x)\n",
                 bytes_reduction);
    return 1;
  }
  if (brute.lifelines != static_cast<std::size_t>(kEvents) / 32 ||
      brute.hops != static_cast<std::size_t>(kEvents) / 8) {
    std::fprintf(stderr,
                 "FAIL: brute lifeline join returned %zu traces / %zu hops "
                 "(want %d / %d)\n",
                 brute.lifelines, brute.hops, kEvents / 32, kEvents / 8);
    return 1;
  }
  if (rows.size() != 4 || agg_records != static_cast<std::size_t>(kEvents) / 8) {
    std::fprintf(stderr, "FAIL: aggregate saw %zu rows / %zu records\n",
                 rows.size(), agg_records);
    return 1;
  }
  if (!rpc_ok) {
    std::fprintf(stderr, "FAIL: rpc client disagrees with the local engine\n");
    return 1;
  }

  std::FILE* json = std::fopen(json_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"bench_nlv_primitives\",\n");
  std::fprintf(json,
               "  \"workload\": \"10M events (~12.5%% four-hop traces, CPU "
               "load wave, retransmit marks) in a sealed+compressed "
               "segmented archive; server-side lifeline/loadline/point/agg "
               "via AnalysisEngine; selective 0.2%%-window lifeline vs the "
               "same join over the full span; one ArchiveClient rpc round "
               "for wire parity\",\n");
  std::fprintf(json,
               "  \"method\": \"median of %d selective / %d brute query "
               "passes; byte and compression ratios are deterministic, "
               "machine-independent\",\n",
               kQueryPasses, kBrutePasses);
  std::fprintf(json, "  \"results\": {\n");
  std::fprintf(json, "    \"sealed_compression_ratio\": %.2f,\n",
               compression_ratio);
  std::fprintf(json, "    \"lifeline_bytes_reduction\": %.2f,\n",
               bytes_reduction);
  std::fprintf(json, "    \"storage_flat_mb\": %.1f,\n", bytes_flat / 1e6);
  std::fprintf(json, "    \"storage_compressed_mb\": %.1f,\n",
               bytes_sealed / 1e6);
  std::fprintf(json, "    \"lifeline_narrow_query_us\": %.0f,\n",
               narrow.query_us);
  std::fprintf(json, "    \"lifeline_brute_query_us\": %.0f,\n",
               brute.query_us);
  std::fprintf(json, "    \"lifeline_narrow_bytes_mb\": %.1f,\n",
               narrow.stats.bytes_scanned / 1e6);
  std::fprintf(json, "    \"lifeline_brute_bytes_mb\": %.1f,\n",
               brute.stats.bytes_scanned / 1e6);
  std::fprintf(json, "    \"lifeline_narrow_traces\": %zu,\n",
               narrow.lifelines);
  std::fprintf(json, "    \"lifeline_latency_mean_s\": %.3f,\n", lat_mean);
  std::fprintf(json, "    \"loadline_buckets\": %zu,\n", buckets.size());
  std::fprintf(json, "    \"point_marks\": %zu,\n", points.size());
  std::fprintf(json, "    \"agg_rows\": %zu,\n", rows.size());
  std::fprintf(json, "    \"agg_records_summarized\": %zu\n", agg_records);
  std::fprintf(json, "  }\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
