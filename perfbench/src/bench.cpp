#include "bench.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>

namespace perfbench {

std::atomic<bool> g_count_allocs{false};
std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_wire_bytes{0};

namespace {
thread_local std::uint64_t t_allocs = 0;

constexpr const char* kLayerNames[] = {
    "netlogger.write",      "netlogger.flush",   "manager.tick",
    "gateway.publish",      "gateway_service.poll", "gateway_client.drain",
    "federation.pump",      "consumers.archiver_pump", "rpc.server_poll",
    "rpc.query",            "directory.search",  "generator.wait"};
static_assert(std::size(kLayerNames) == static_cast<int>(Layer::kCount));
}  // namespace

std::uint64_t TakeThreadAllocs() {
  const std::uint64_t n = t_allocs;
  t_allocs = 0;
  return n;
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(pct / 100.0 *
                                       static_cast<double>(samples.size()) +
                                       0.999999);
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

const char* LayerName(Layer layer) {
  return kLayerNames[static_cast<int>(layer)];
}

ThreadTrace*& CurrentTrace() {
  thread_local ThreadTrace* trace = nullptr;
  return trace;
}

TraceSummary Summarize(const std::vector<const ThreadTrace*>& traces) {
  TraceSummary out;
  for (const ThreadTrace* trace : traces) {
    const auto& spans = trace->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    TraceSummary::ThreadCover cover;
    cover.name = trace->name();
    cover.wall_ns = trace->end_ns - trace->begin_ns;
    for (const Span& s : spans) {
      const std::int64_t d = s.end_ns - s.start_ns;
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += d;
      } else {
        cover.covered_ns += d;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      LayerTotals& t = out.layers[static_cast<int>(s.layer)];
      const std::int64_t d = s.end_ns - s.start_ns;
      ++t.calls;
      t.total_ns += d;
      t.self_ns += d - child_ns[i];
      t.durations_ns.push_back(static_cast<double>(d));
      cover.self_ns[static_cast<int>(s.layer)] += d - child_ns[i];
    }
    out.threads.push_back(cover);
  }
  return out;
}

void WriteSpans(const std::string& path,
                const std::vector<const ThreadTrace*>& traces) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "thread\tid\tparent\tgroup\tlayer\tstart_ns\tend_ns\n");
  for (const ThreadTrace* trace : traces) {
    const auto& spans = trace->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s\t%zu\t%d\t%llu\t%s\t%lld\t%lld\n",
                   trace->name().c_str(), i, s.parent,
                   static_cast<unsigned long long>(s.group),
                   LayerName(s.layer),
                   static_cast<long long>(s.start_ns - trace->begin_ns),
                   static_cast<long long>(s.end_ns - trace->begin_ns));
    }
  }
  std::fclose(f);
}

}  // namespace perfbench

// ------------------------------------------------- counting operator new
//
// Replaces the global allocation functions for the whole benchmark binary
// (pipeline libraries included). Only calls made while g_count_allocs is
// set are counted, so set-up and verification stay out of the figure.

namespace {
void* CountedAlloc(std::size_t n) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    ++perfbench::t_allocs;
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    ++perfbench::t_allocs;
  }
  const auto align = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
