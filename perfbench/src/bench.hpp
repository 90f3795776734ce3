// Shared pieces of the end-to-end benchmark: the run clock, seeded
// randomness, order statistics, the span tracer, the allocation counter's
// switch, and the wrappers that time or count calls into the pipeline's
// public surfaces from outside (a gateway subclass, a byte-counting
// transport decorator).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gateway/gateway.hpp"
#include "transport/message.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock); every latency is taken on it.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the only source of randomness in generated inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// Nearest-rank percentile of unsorted samples (sorts a copy); 0 if empty.
double Percentile(std::vector<double> samples, double pct);

// ------------------------------------------------------------ allocations

/// Global operator new counts calls only while this is set: the timed
/// phase. Each thread counts its own; TakeThreadAllocs() returns the
/// calling thread's count so far and resets it.
extern std::atomic<bool> g_count_allocs;
std::uint64_t TakeThreadAllocs();

// ------------------------------------------------------------------ spans

/// Layers, named after the repository's modules. Each is a public call the
/// pipeline thread makes into the pipeline; spans nest when one wrapped call runs
/// inside another (a manager Tick publishes into a wrapped gateway).
enum class Layer : std::uint8_t {
  kNetloggerWrite,     // netlogger::NetLogger::Write
  kNetloggerFlush,     // NetLogger::Flush into the app sensor's sink
  kManagerTick,        // manager::SensorManager::Tick
  kGatewayPublish,     // gateway::EventGateway::PublishFlat
  kServicePoll,        // gateway::GatewayService::PollOnce
  kClientDrain,        // gateway::GatewayClient::DrainEvents
  kFederationPump,     // federation::RepublisherGateway::Pump
  kArchiverPump,       // consumers::ArchiverAgent::PumpRemote
  kRpcServerPoll,      // rpc::RpcServer::PollOnce
  kRpcQuery,           // archive::ArchiveClient::Query*
  kDirectorySearch,    // directory::DirectoryPool::Search
  kGeneratorWait,      // open loop: waiting for the next event to fall due
  kCount,
};
const char* LayerName(Layer layer);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t group = 0;   // shared by the spans of one burst or request
  std::int32_t parent = -1;  // index into the same thread's spans
  Layer layer = Layer::kCount;
};

/// One thread's spans, recorded only while tracing is on. Spans stay in
/// memory until the run ends, then are summarized and written out.
class ThreadTrace {
 public:
  explicit ThreadTrace(std::string name) : name_(std::move(name)) {}
  const std::string& name() const { return name_; }
  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<std::int32_t>& stack() { return stack_; }
  /// Wall interval the thread's spans are measured against.
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;

 private:
  std::string name_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

extern std::atomic<bool> g_tracing;
/// The calling thread's trace (null = not recording).
ThreadTrace*& CurrentTrace();

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, std::uint64_t group = 0) {
    if (!g_tracing.load(std::memory_order_relaxed)) return;
    trace_ = CurrentTrace();
    if (trace_ == nullptr) return;
    auto& spans = trace_->spans();
    index_ = static_cast<std::int32_t>(spans.size());
    Span span;
    span.layer = layer;
    span.group = group;
    span.parent = trace_->stack().empty() ? -1 : trace_->stack().back();
    span.start_ns = NowNs();
    spans.push_back(span);
    trace_->stack().push_back(index_);
  }
  ~ScopedSpan() {
    if (trace_ == nullptr) return;
    trace_->spans()[static_cast<std::size_t>(index_)].end_ns = NowNs();
    trace_->stack().pop_back();
  }
  /// Drops this span (an idle poll that did no work) if nothing was
  /// recorded after it.
  void Discard() {
    if (trace_ == nullptr) return;
    trace_->stack().pop_back();
    if (static_cast<std::size_t>(index_) + 1 == trace_->spans().size()) {
      trace_->spans().pop_back();
    } else {
      trace_->spans()[static_cast<std::size_t>(index_)].end_ns = NowNs();
    }
    trace_ = nullptr;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_ = nullptr;
  std::int32_t index_ = -1;
};

/// Per-layer totals over a set of thread traces.
struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  // inclusive
  std::int64_t self_ns = 0;   // minus direct children
  std::vector<double> durations_ns;
};
struct TraceSummary {
  LayerTotals layers[static_cast<int>(Layer::kCount)];
  /// Per thread: name, wall ns, ns covered by top-level spans.
  struct ThreadCover {
    std::string name;
    std::int64_t wall_ns = 0;
    std::int64_t covered_ns = 0;
    std::int64_t self_ns[static_cast<int>(Layer::kCount)] = {};
  };
  std::vector<ThreadCover> threads;
};
TraceSummary Summarize(const std::vector<const ThreadTrace*>& traces);
/// Writes every span as TSV (thread, id, parent, group, layer, start, end).
void WriteSpans(const std::string& path,
                const std::vector<const ThreadTrace*>& traces);

// ---------------------------------------------------------------- wrappers

/// Gateway whose publish entry is timed from outside: the manager holds a
/// gateway::EventGateway* and calls the virtual PublishFlat.
class TimedGateway final : public jamm::gateway::EventGateway {
 public:
  using EventGateway::EventGateway;
  void PublishFlat(jamm::ulm::FlatRecord& rec) override {
    ScopedSpan span(Layer::kGatewayPublish);
    EventGateway::PublishFlat(rec);
  }
};

/// Counts the bytes (message type + payload) a channel sends; the gateway
/// services' accepted channels are wrapped, so this is the event path's
/// wire volume.
extern std::atomic<std::uint64_t> g_wire_bytes;

class CountingChannel final : public jamm::transport::Channel {
 public:
  explicit CountingChannel(std::unique_ptr<jamm::transport::Channel> inner)
      : inner_(std::move(inner)) {}
  jamm::Status Send(const jamm::transport::Message& msg) override {
    auto s = inner_->Send(msg);
    if (s.ok()) Count(msg);
    return s;
  }
  jamm::Result<bool> TrySend(const jamm::transport::Message& msg) override {
    auto r = inner_->TrySend(msg);
    if (r.ok() && *r) Count(msg);
    return r;
  }
  jamm::Result<jamm::transport::Message> Receive(
      jamm::Duration timeout) override {
    return inner_->Receive(timeout);
  }
  std::optional<jamm::transport::Message> TryReceive() override {
    return inner_->TryReceive();
  }
  void Close() override { inner_->Close(); }
  void CloseSend() override { inner_->CloseSend(); }
  bool IsOpen() const override { return inner_->IsOpen(); }
  std::string peer() const override { return inner_->peer(); }

 private:
  static void Count(const jamm::transport::Message& msg) {
    g_wire_bytes.fetch_add(msg.type.size() + msg.payload.size(),
                           std::memory_order_relaxed);
  }
  std::unique_ptr<jamm::transport::Channel> inner_;
};

class CountingListener final : public jamm::transport::Listener {
 public:
  explicit CountingListener(std::unique_ptr<jamm::transport::Listener> inner)
      : inner_(std::move(inner)) {}
  jamm::Result<std::unique_ptr<jamm::transport::Channel>> Accept(
      jamm::Duration timeout) override {
    auto ch = inner_->Accept(timeout);
    if (!ch.ok()) return ch.status();
    return std::unique_ptr<jamm::transport::Channel>(
        new CountingChannel(std::move(*ch)));
  }
  void Close() override { inner_->Close(); }
  std::string address() const override { return inner_->address(); }

 private:
  std::unique_ptr<jamm::transport::Listener> inner_;
};

}  // namespace perfbench
