#include "archive/archive.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/strings.hpp"
#include "telemetry/metrics.hpp"
#include "ulm/binary.hpp"

namespace jamm::archive {

namespace {

struct ArchiveTelemetry {
  telemetry::Counter& ingested;
  telemetry::Counter& dropped;
  telemetry::Counter& seals;
  telemetry::Counter& compactions;
  telemetry::Counter& compact_removed;
  telemetry::Counter& query_calls;
  telemetry::Counter& segments_scanned;
  telemetry::Counter& segments_pruned;
  telemetry::Counter& bytes_scanned;
  telemetry::Counter& compressed_segments;
  telemetry::Counter& load_skipped;
  telemetry::Counter& saves;
  telemetry::Histogram& seal_records;  // records per sealed segment
  telemetry::Histogram& query_us;
  telemetry::Histogram& save_us;
};

ArchiveTelemetry& Instruments() {
  auto& m = telemetry::Metrics();
  static ArchiveTelemetry t{m.counter("archive.ingested"),
                            m.counter("archive.dropped"),
                            m.counter("archive.seals"),
                            m.counter("archive.compactions"),
                            m.counter("archive.compact.removed"),
                            m.counter("archive.query.calls"),
                            m.counter("archive.query.segments_scanned"),
                            m.counter("archive.query.segments_pruned"),
                            m.counter("archive.query.bytes_scanned"),
                            m.counter("archive.compress.segments"),
                            m.counter("archive.load.segments_skipped"),
                            m.counter("archive.saves"),
                            m.histogram("archive.seal.records"),
                            m.histogram("archive.query_us"),
                            m.histogram("archive.save_us")};
  return t;
}

/// Process-wide round-robin thread index: thread k (in first-use order)
/// always maps to stripe k % stripes, so single-threaded runs are fully
/// deterministic (everything lands on stripe 0) and N ingest threads
/// spread evenly.
std::size_t ThreadOrdinal() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

EventArchive::EventArchive(std::string name, std::uint64_t sampling_seed,
                           SegmentConfig config)
    : name_(std::move(name)),
      sampling_seed_(sampling_seed),
      config_(config),
      shared_(std::make_unique<Shared>()) {
  if (config_.stripes == 0) config_.stripes = 1;
  if (config_.max_records == 0) config_.max_records = 1;
  stripes_.reserve(config_.stripes);
  for (std::size_t i = 0; i < config_.stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
    // Distinct per-stripe streams, deterministic for a given seed.
    stripes_.back()->rng.Seed(sampling_seed + 0x9E3779B97F4A7C15ull * i);
  }
}

void EventArchive::SetSamplingPolicy(double normal_fraction,
                                     bool keep_abnormal) {
  normal_fraction_ = std::min(1.0, std::max(0.0, normal_fraction));
  keep_abnormal_ = keep_abnormal;
}

void EventArchive::SetCompactionPolicy(CompactionPolicy policy) {
  compaction_ = std::move(policy);
}

bool EventArchive::IsAbnormal(const ulm::Record& rec) {
  const std::string& lvl = rec.lvl();
  return lvl == ulm::level::kError || lvl == ulm::level::kWarning ||
         lvl == ulm::level::kAlert || lvl == ulm::level::kEmergency;
}

bool EventArchive::IsAbnormal(ulm::Symbol lvl) {
  static const std::array<ulm::Symbol, 4> kAbnormal = {
      ulm::InternSymbol(ulm::level::kError),
      ulm::InternSymbol(ulm::level::kWarning),
      ulm::InternSymbol(ulm::level::kAlert),
      ulm::InternSymbol(ulm::level::kEmergency)};
  return lvl == kAbnormal[0] || lvl == kAbnormal[1] || lvl == kAbnormal[2] ||
         lvl == kAbnormal[3];
}

EventArchive::Stripe& EventArchive::StripeForThisThread() const {
  return *stripes_[ThreadOrdinal() % stripes_.size()];
}

std::shared_ptr<Segment> EventArchive::NewSegment() {
  // Caller holds a stripe lock; id assignment takes shared_->mu (the
  // stripe-before-shared lock order used everywhere).
  auto segment = std::make_shared<Segment>();
  // Pre-sizes the tail chunk's field vector and value arena so the
  // per-record Append path settles into append-only writes.
  segment->append_reserve = std::min<std::size_t>(config_.max_records, 65536);
  std::lock_guard lock(shared_->mu);
  segment->id = shared_->next_segment_id++;
  return segment;
}

void EventArchive::SealLocked(Stripe& stripe) {
  auto& tm = Instruments();
  tm.seals.Increment();
  tm.seal_records.Record(stripe.active->size());
  // Compress-on-seal happens here, while the stripe lock still makes the
  // segment private — queries only see it once it lands in the sealed
  // list below.
  if (config_.compress_sealed) {
    stripe.active->Compress();
    tm.compressed_segments.Increment();
  }
  std::lock_guard lock(shared_->mu);
  shared_->sealed.push_back(std::move(stripe.active));
  ++shared_->seal_count;
  stripe.active.reset();
}

void EventArchive::Ingest(const ulm::RecordView& view) {
  auto& tm = Instruments();
  tm.ingested.Increment();
  Stripe& stripe = StripeForThisThread();
  std::lock_guard lock(stripe.mu);
  ++stripe.ingested;
  // Same clause order as the legacy Ingest below, so both paths draw
  // identical per-stripe rng streams for the same records.
  const bool keep = normal_fraction_ >= 1.0 ||
                    (keep_abnormal_ && IsAbnormal(view.lvl_sym())) ||
                    stripe.rng.Chance(normal_fraction_);
  if (!keep) {
    ++stripe.dropped;
    tm.dropped.Increment();
    return;
  }
  if (!stripe.active) stripe.active = NewSegment();
  stripe.active->Append(view);
  if (stripe.active->size() >= config_.max_records ||
      stripe.active->Span() >= config_.max_span) {
    SealLocked(stripe);
  }
}

void EventArchive::Ingest(const ulm::Record& rec) {
  auto& tm = Instruments();
  tm.ingested.Increment();
  Stripe& stripe = StripeForThisThread();
  std::lock_guard lock(stripe.mu);
  ++stripe.ingested;
  // Order matters twice over: with sampling off (the common case) the
  // first clause short-circuits past the IsAbnormal level compares, and
  // with sampling on, IsAbnormal-then-Chance preserves the per-stripe rng
  // stream the seed sampling tests pin down.
  const bool keep = normal_fraction_ >= 1.0 ||
                    (keep_abnormal_ && IsAbnormal(rec)) ||
                    stripe.rng.Chance(normal_fraction_);
  if (!keep) {
    ++stripe.dropped;
    tm.dropped.Increment();
    return;
  }
  if (!stripe.active) stripe.active = NewSegment();
  stripe.active->Append(rec);
  if (stripe.active->size() >= config_.max_records ||
      stripe.active->Span() >= config_.max_span) {
    SealLocked(stripe);
  }
}

void EventArchive::IngestBatch(ulm::FlatBatch&& batch) {
  if (batch.empty()) return;
  auto& tm = Instruments();
  tm.ingested.Add(batch.size());
  Stripe& stripe = StripeForThisThread();
  std::lock_guard lock(stripe.mu);
  stripe.ingested += batch.size();
  if (normal_fraction_ < 1.0) {
    // Sampling on: per-record keep decisions, in batch order so the
    // per-stripe rng stream matches record-at-a-time ingest exactly.
    ulm::FlatBatch kept;
    kept.Reserve(batch.size(), batch.value_bytes());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const ulm::RecordView view = batch.View(i);
      const bool keep = (keep_abnormal_ && IsAbnormal(view.lvl_sym())) ||
                        stripe.rng.Chance(normal_fraction_);
      if (keep) {
        // Cannot overflow: the kept subset is no larger than `batch`,
        // which already fit one arena.
        (void)kept.Append(view);
      } else {
        ++stripe.dropped;
        tm.dropped.Increment();
      }
    }
    batch = std::move(kept);
    if (batch.empty()) return;
  }
  if (!stripe.active) stripe.active = NewSegment();
  stripe.active->AppendFlatFrame(std::move(batch));
  if (stripe.active->size() >= config_.max_records ||
      stripe.active->Span() >= config_.max_span) {
    SealLocked(stripe);
  }
}

void EventArchive::IngestBatch(std::vector<ulm::Record>&& batch) {
  if (batch.empty()) return;
  auto& tm = Instruments();
  tm.ingested.Add(batch.size());
  Stripe& stripe = StripeForThisThread();
  std::lock_guard lock(stripe.mu);
  stripe.ingested += batch.size();
  if (normal_fraction_ < 1.0) {
    // Sampling on: per-record keep decisions, in frame order so the
    // per-stripe rng stream matches record-at-a-time ingest exactly.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const bool keep = (keep_abnormal_ && IsAbnormal(batch[i])) ||
                        stripe.rng.Chance(normal_fraction_);
      if (keep) {
        if (kept != i) batch[kept] = std::move(batch[i]);
        ++kept;
      } else {
        ++stripe.dropped;
        tm.dropped.Increment();
      }
    }
    batch.resize(kept);
    if (batch.empty()) return;
  }
  if (!stripe.active) stripe.active = NewSegment();
  stripe.active->AppendFrame(std::move(batch));
  if (stripe.active->size() >= config_.max_records ||
      stripe.active->Span() >= config_.max_span) {
    SealLocked(stripe);
  }
}

std::size_t EventArchive::SealActive() {
  std::size_t sealed = 0;
  for (auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active && !stripe->active->empty()) {
      SealLocked(*stripe);
      ++sealed;
    }
  }
  return sealed;
}

double EventArchive::HashUnit(const ulm::RecordView& view) const {
  // FNV-1a over the record's canonical binary encoding, mixed with the
  // sampling seed: stable across processes and Save/Load round trips (the
  // flat encoding is byte-identical to the legacy one, so compaction
  // decisions survived the flat-core migration unchanged).
  const std::uint64_t h = Fnv1a(ulm::EncodeBinary(view),
                                kFnv1aBasis ^ sampling_seed_);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::size_t EventArchive::Compact(TimePoint now) {
  if (compaction_.tiers.empty()) return 0;
  auto& tm = Instruments();
  std::vector<std::shared_ptr<const Segment>> snapshot;
  {
    std::lock_guard lock(shared_->mu);
    snapshot = shared_->sealed;
  }
  std::size_t removed = 0;
  for (const auto& segment : snapshot) {
    const Duration age = now - segment->max_ts;
    std::uint32_t target = 0;
    double fraction = 1.0;
    for (std::size_t i = 0; i < compaction_.tiers.size(); ++i) {
      if (age >= compaction_.tiers[i].older_than) {
        target = static_cast<std::uint32_t>(i + 1);
        fraction = compaction_.tiers[i].keep_fraction;
      }
    }
    if (target <= segment->tier) continue;  // already at (or past) this tier
    auto compacted = std::make_shared<Segment>();
    compacted->id = segment->id;
    compacted->tier = target;
    compacted->append_reserve = segment->size();
    segment->ForEachView([&](const ulm::RecordView& view) {
      if ((keep_abnormal_ && IsAbnormal(view.lvl_sym())) ||
          HashUnit(view) < fraction) {
        compacted->Append(view);
      }
    });
    removed += segment->size() - compacted->size();
    // A compacted segment keeps its storage state: re-compress if the
    // source rested compressed (or the config compresses every seal).
    if (config_.compress_sealed || !segment->compressed.empty()) {
      compacted->Compress();
    }
    std::lock_guard lock(shared_->mu);
    for (auto& slot : shared_->sealed) {
      if (slot->id == segment->id) {
        slot = std::move(compacted);
        break;
      }
    }
  }
  tm.compactions.Increment();
  tm.compact_removed.Add(removed);
  return removed;
}

std::size_t EventArchive::CompressSealed() {
  auto& tm = Instruments();
  std::vector<std::shared_ptr<const Segment>> snapshot;
  {
    std::lock_guard lock(shared_->mu);
    snapshot = shared_->sealed;
  }
  std::size_t compressed = 0;
  for (const auto& segment : snapshot) {
    if (segment->empty() || !segment->compressed.empty()) continue;
    auto copy = std::make_shared<Segment>(*segment);
    copy->Compress();
    std::lock_guard lock(shared_->mu);
    for (auto& slot : shared_->sealed) {
      // Pointer match, not just id: if Compact swapped this segment while
      // we were compressing the old copy, installing ours would resurrect
      // the compacted-away records. Leave it — the next CompressSealed
      // pass picks up the compacted replacement.
      if (slot.get() == segment.get()) {
        slot = std::move(copy);
        ++compressed;
        tm.compressed_segments.Increment();
        break;
      }
    }
  }
  return compressed;
}

std::size_t EventArchive::StorageBytes() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active) total += stripe->active->StorageBytes();
  }
  std::lock_guard lock(shared_->mu);
  for (const auto& segment : shared_->sealed) total += segment->StorageBytes();
  return total;
}

// ---------------------------------------------------------------- queries

void EventArchive::NoteQueryStats(const QueryStats& stats) const {
  auto& tm = Instruments();
  tm.query_calls.Increment();
  tm.segments_scanned.Add(stats.segments_scanned);
  tm.segments_pruned.Add(stats.segments_pruned);
  tm.bytes_scanned.Add(stats.bytes_scanned);
}

std::vector<ulm::Record> EventArchive::Collect(
    TimePoint t0, TimePoint t1,
    const std::function<bool(const Segment&)>& covers,
    const std::function<bool(const ulm::RecordView&)>& matches,
    QueryStats* stats) const {
  telemetry::ScopedTimer timer(&Instruments().query_us);
  QueryStats local;

  // One per-segment partial = that segment's matches; ScanPartials hands
  // them back in segment-id order (and dedupes a segment sealed
  // mid-query), so concatenation + stable sort reproduces the
  // deterministic time-then-id-then-arrival order.
  using Hits = std::vector<ulm::Record>;
  std::vector<Hits> groups = ScanPartials<Hits>(
      t0, t1, covers,
      [&](const Segment& segment) {
        Hits hits;
        // Predicates run on the view (symbol compares, no allocation);
        // only matching records pay the legacy-Record materialization.
        segment.ForEachView([&](const ulm::RecordView& view) {
          if (view.timestamp() >= t0 && view.timestamp() < t1 &&
              matches(view)) {
            hits.push_back(view.ToRecord());
          }
        });
        return hits;
      },
      &local);

  std::vector<ulm::Record> out;
  for (auto& hits : groups) {
    out.insert(out.end(), std::make_move_iterator(hits.begin()),
               std::make_move_iterator(hits.end()));
  }
  // Stable: ties keep segment-id-then-arrival order, so the same query
  // yields byte-identical results before and after a Save/Load round trip.
  std::stable_sort(out.begin(), out.end(),
                   [](const ulm::Record& a, const ulm::Record& b) {
                     return a.timestamp() < b.timestamp();
                   });
  local.records_returned = out.size();
  if (stats) *stats = local;
  return out;
}

std::vector<ulm::Record> EventArchive::QueryRange(TimePoint t0, TimePoint t1,
                                                  QueryStats* stats) const {
  return Collect(
      t0, t1, [](const Segment&) { return true; },
      [](const ulm::RecordView&) { return true; }, stats);
}

std::vector<ulm::Record> EventArchive::QueryEvents(
    const std::string& event_glob, TimePoint t0, TimePoint t1,
    QueryStats* stats) const {
  return Collect(
      t0, t1,
      [&](const Segment& s) { return s.MayContainEvent(event_glob); },
      [&](const ulm::RecordView& view) {
        return event_glob.empty() || GlobMatch(event_glob, view.event_name());
      },
      stats);
}

std::vector<ulm::Record> EventArchive::QueryHost(const std::string& host,
                                                 TimePoint t0, TimePoint t1,
                                                 QueryStats* stats) const {
  // One symbol lookup (Find, not Intern: query strings must not grow the
  // table) turns the per-record host check into a 4-byte compare. A host
  // the process never interned cannot be stored in any segment.
  const auto host_sym = ulm::FindSymbol(host);
  return Collect(
      t0, t1,
      [&](const Segment& s) { return host_sym && s.ContainsHost(*host_sym); },
      [&](const ulm::RecordView& view) {
        return host_sym && view.host_sym() == *host_sym;
      },
      stats);
}

// ------------------------------------------------------------ persistence

std::string EventArchive::SaveToBytes() const {
  // Snapshot every segment: sealed as shared pointers, actives as copies
  // made under their stripe locks. Blocks are written in segment-id
  // order, which a Load preserves — so save → load → save is
  // byte-identical.
  std::vector<std::shared_ptr<const Segment>> segments;
  {
    std::lock_guard lock(shared_->mu);
    segments = shared_->sealed;
  }
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active && !stripe->active->empty()) {
      segments.push_back(std::make_shared<const Segment>(*stripe->active));
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
  std::string out;
  AppendFileHeader(out, static_cast<std::uint32_t>(segments.size()));
  for (const auto& segment : segments) AppendSegmentBlock(*segment, out);
  return out;
}

Status EventArchive::SaveTo(const std::string& path) const {
  auto& tm = Instruments();
  tm.saves.Increment();
  telemetry::ScopedTimer save_timer(&tm.save_us);
  const std::string bytes = SaveToBytes();
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return Status::Unavailable("cannot open " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::Unavailable("write failed: " + path);
  return Status::Ok();
}

Result<EventArchive> EventArchive::LoadFromBytes(std::string name,
                                                 std::string_view data,
                                                 std::uint64_t sampling_seed,
                                                 SegmentConfig config) {
  auto promised = ReadFileHeader(data);
  if (!promised.ok()) return promised.status();

  EventArchive archive(std::move(name), sampling_seed, config);
  LoadStats stats;
  std::set<std::uint64_t> seen_ids;
  std::size_t offset = kFileHeaderBytes;
  while (offset < data.size()) {
    Segment segment;
    const BlockOutcome outcome = ReadSegmentBlock(data, &offset, &segment);
    if (outcome == BlockOutcome::kTruncated) {
      stats.truncated = true;
      break;
    }
    if (outcome == BlockOutcome::kSkipped) {
      ++stats.segments_skipped;
      continue;
    }
    // Segment ids are unique by construction; a duplicate means the block
    // is a corrupt echo of another — skip it rather than shadow a
    // legitimate segment in the id-keyed query merge.
    if (!seen_ids.insert(segment.id).second) {
      ++stats.segments_skipped;
      continue;
    }
    ++stats.segments_loaded;
    auto& shared = *archive.shared_;
    shared.loaded_records += segment.size();
    shared.next_segment_id = std::max(shared.next_segment_id, segment.id + 1);
    shared.sealed.push_back(std::make_shared<const Segment>(std::move(segment)));
  }
  // The header promised a block count; fewer (or more) readable blocks
  // means the tail was lost even if every byte present parsed cleanly.
  if (stats.segments_loaded + stats.segments_skipped != *promised) {
    stats.truncated = true;
  }
  Instruments().load_skipped.Add(stats.segments_skipped);
  archive.load_stats_ = stats;
  return archive;
}

Result<EventArchive> EventArchive::LoadFrom(const std::string& name,
                                            const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("archive file not found: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadFromBytes(name, buf.str());
}

// ------------------------------------------------------------------ stats

std::size_t EventArchive::size() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active) total += stripe->active->size();
  }
  std::lock_guard lock(shared_->mu);
  for (const auto& segment : shared_->sealed) total += segment->size();
  return total;
}

std::uint64_t EventArchive::ingested() const {
  std::uint64_t total;
  {
    std::lock_guard lock(shared_->mu);
    total = shared_->loaded_records;
  }
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    total += stripe->ingested;
  }
  return total;
}

std::uint64_t EventArchive::dropped() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    total += stripe->dropped;
  }
  return total;
}

std::uint64_t EventArchive::seal_count() const {
  std::lock_guard lock(shared_->mu);
  return shared_->seal_count;
}

std::size_t EventArchive::segment_count() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active && !stripe->active->empty()) ++total;
  }
  std::lock_guard lock(shared_->mu);
  return total + shared_->sealed.size();
}

std::pair<TimePoint, TimePoint> EventArchive::TimeSpan() const {
  bool any = false;
  TimePoint lo = 0, hi = 0;
  auto fold = [&](const Segment& segment) {
    if (segment.empty()) return;
    if (!any) {
      lo = segment.min_ts;
      hi = segment.max_ts;
      any = true;
      return;
    }
    lo = std::min(lo, segment.min_ts);
    hi = std::max(hi, segment.max_ts);
  };
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active) fold(*stripe->active);
  }
  std::vector<std::shared_ptr<const Segment>> sealed;
  {
    std::lock_guard lock(shared_->mu);
    sealed = shared_->sealed;
  }
  for (const auto& segment : sealed) fold(*segment);
  return {lo, hi};
}

std::string EventArchive::ContentsSummary() const {
  // Keyed by the interned name's characters (stable for the process
  // lifetime), so the summary stays alphabetical as before.
  std::map<std::string_view, std::uint64_t> merged;
  auto fold = [&](const Segment& segment) {
    for (const auto& [sym, count] : segment.event_counts) {
      merged[ulm::SymbolName(sym)] += count;
    }
  };
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe->mu);
    if (stripe->active) fold(*stripe->active);
  }
  std::vector<std::shared_ptr<const Segment>> sealed;
  {
    std::lock_guard lock(shared_->mu);
    sealed = shared_->sealed;
  }
  for (const auto& segment : sealed) fold(*segment);
  std::string out;
  for (const auto& [event_name, count] : merged) {
    if (!out.empty()) out += ' ';
    out += event_name;
    out += '(';
    out += std::to_string(count);
    out += ')';
  }
  return out;
}

}  // namespace jamm::archive
