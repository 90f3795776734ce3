#include "consumers/archiver.hpp"

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace jamm::consumers {

namespace {

struct ArchiverTelemetry {
  telemetry::Counter& events_received;
  telemetry::Counter& entry_refreshes;
  telemetry::Histogram& ingest_us;
};

ArchiverTelemetry& Instruments() {
  auto& m = telemetry::Metrics();
  static ArchiverTelemetry t{m.counter("archiver.events_received"),
                             m.counter("archiver.entry_refreshes"),
                             m.histogram("archiver.ingest_us")};
  return t;
}

}  // namespace

ArchiverAgent::ArchiverAgent(std::string name, archive::EventArchive& archive,
                             std::string address, const Clock* clock)
    : name_(std::move(name)),
      archive_(archive),
      address_(std::move(address)),
      clock_(clock) {}

ArchiverAgent::~ArchiverAgent() { UnsubscribeAll(); }

Status ArchiverAgent::SubscribeTo(gateway::EventGateway& gw,
                                  const gateway::FilterSpec& spec,
                                  const std::string& principal) {
  auto sub = gw.Subscribe(
      name_, spec, [this](const ulm::Record& rec) { IngestRecord(rec); },
      principal);
  if (!sub.ok()) return sub.status();
  subscriptions_.emplace_back(&gw, *sub);
  return Status::Ok();
}

void ArchiverAgent::IngestRecord(const ulm::Record& record) {
  auto& tm = Instruments();
  tm.events_received.Increment();
  telemetry::ScopedTimer ingest_timer(&tm.ingest_us);
  // Traced records get their final hop stamped so the archived copy
  // shows the full sensor → manager → gateway → archiver path.
  if (telemetry::HasTrace(record)) {
    ulm::Record stamped = record;
    telemetry::StampHop(stamped, "archiver",
                        clock_ ? clock_->Now() : record.timestamp());
    archive_.Ingest(stamped);
  } else {
    archive_.Ingest(record);
  }
  // Sealing a segment changes what the directory entry advertises
  // (contents, segment count, time span), so keep it current.
  MaybeRefreshEntry();
}

Status ArchiverAgent::AttachRemote(std::unique_ptr<gateway::GatewayClient> client,
                                   const gateway::FilterSpec& spec,
                                   std::size_t batch_records) {
  if (!client) return Status::InvalidArgument("null gateway client");
  remote_ = std::move(client);
  // Async so attaching never blocks on the reply: the client records the
  // subscription spec and replays it after every reconnect, so a gateway
  // that is down right now is caught on the next PumpRemote(). A batched
  // subscription replays batched — the format rides with the recorded spec.
  if (batch_records > 0) {
    return remote_->SubscribeBatchedAsync(name_, spec, batch_records);
  }
  return remote_->SubscribeAsync(name_, spec);
}

std::size_t ArchiverAgent::PumpRemote() {
  if (!remote_) return 0;
  // Stage through the outage buffer rather than ingesting straight from
  // DrainEvents: if the archive host stalls between pumps, the bounded
  // buffer (drop-oldest) is what caps memory, not the client's queue.
  for (auto& rec : remote_->DrainEvents()) {
    remote_buffer_.Push(std::move(rec));
  }
  // The remote path converts straight into one flat batch — a shared
  // arena the archive splices into its active segment wholesale: one
  // stripe-lock acquisition per pump and no per-record heap traffic past
  // this point (ISSUE 7).
  ulm::FlatBatch batch;
  while (auto rec = remote_buffer_.Pop()) {
    if (telemetry::HasTrace(*rec)) {
      telemetry::StampHop(*rec, "archiver",
                          clock_ ? clock_->Now() : rec->timestamp());
    }
    (void)batch.Append(*rec);  // one pump never nears the 4 GiB arena cap
  }
  if (batch.empty()) return 0;
  auto& tm = Instruments();
  tm.events_received.Add(batch.size());
  telemetry::ScopedTimer ingest_timer(&tm.ingest_us);
  const std::size_t ingested = batch.size();
  archive_.IngestBatch(std::move(batch));
  MaybeRefreshEntry();
  return ingested;
}

Status ArchiverAgent::PublishTo(directory::DirectoryPool& pool,
                                const directory::Dn& suffix) {
  published_pool_ = &pool;
  published_suffix_ = suffix;
  UpsertContainer();
  return UpsertEntry();
}

void ArchiverAgent::UpsertContainer() {
  // The archives live under "ou=archives, <suffix>"; the entry needs it.
  directory::Entry container(published_suffix_.Child("ou", "archives"));
  container.Set(directory::schema::kAttrObjectClass, "organizationalUnit");
  (void)published_pool_->Upsert(container);
}

Status ArchiverAgent::UpsertEntry() {
  published_seals_ = archive_.seal_count();
  const auto [span_min, span_max] = archive_.TimeSpan();
  return published_pool_->Upsert(directory::schema::MakeArchiveEntry(
      published_suffix_, name_, address_, archive_.ContentsSummary(),
      archive_.segment_count(), span_min, span_max));
}

bool ArchiverAgent::MaybeRefreshEntry() {
  if (published_pool_ == nullptr) return false;
  const std::uint64_t seals = archive_.seal_count();
  if (seals == published_seals_) return false;
  Instruments().entry_refreshes.Increment();
  // One structural write per seal: the container already exists unless
  // someone deleted it, in which case the upsert fails NotFound.
  Status status = UpsertEntry();
  if (status.code() == StatusCode::kNotFound) {
    UpsertContainer();
    status = UpsertEntry();
  }
  return status.ok();
}

void ArchiverAgent::UnsubscribeAll() {
  for (auto& [gw, id] : subscriptions_) {
    (void)gw->Unsubscribe(id);
  }
  subscriptions_.clear();
}

}  // namespace jamm::consumers
