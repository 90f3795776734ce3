#include "gateway/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/strings.hpp"
#include "telemetry/metrics.hpp"
#include "transport/net_sink.hpp"
#include "ulm/xml.hpp"

namespace jamm::gateway {
namespace {

transport::Message ErrorMessage(const Status& status) {
  return {"gw.error", status.ToString()};
}

// Server-side batching telemetry, resolved once.
struct ServiceTelemetry {
  telemetry::Counter& batches_sent;
  telemetry::Counter& batched_records_sent;
  telemetry::Histogram& batch_records;
  telemetry::Counter& subscriber_dropped;  // records shed by overflow
  telemetry::Counter& overload_events;
  telemetry::Counter& overload_disconnects;
};

ServiceTelemetry& ServiceInstruments() {
  auto& m = telemetry::Metrics();
  static ServiceTelemetry t{m.counter("gateway.service.batches_sent"),
                            m.counter("gateway.service.batched_records_sent"),
                            m.histogram("gateway.service.batch_records"),
                            m.counter("gw.subscriber.dropped"),
                            m.counter("gateway.service.overload_events"),
                            m.counter("gateway.service.overload_disconnects")};
  return t;
}

/// Parse a subscription's format line: "" | "xml" | "batch[:N]".
/// Returns false on a malformed batch size.
bool ParseBatchFormat(const std::string& format, std::size_t* records) {
  if (format == "batch") {
    *records = GatewayService::kDefaultBatchRecords;
    return true;
  }
  if (format.rfind("batch:", 0) != 0) return false;
  auto n = ParseInt(format.substr(6));
  if (!n.ok() || *n <= 0) return false;
  *records = static_cast<std::size_t>(*n);
  return true;
}

std::string EncodeSummary(const SummaryData& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.6f,%.6f,%.6f,%zu,%zu,%zu", s.avg_1m,
                s.avg_10m, s.avg_60m, s.count_1m, s.count_10m, s.count_60m);
  return buf;
}

Result<SummaryData> DecodeSummary(const std::string& text) {
  auto parts = Split(text, ',');
  if (parts.size() != 6) return Status::ParseError("bad summary payload");
  SummaryData s;
  auto a1 = ParseDouble(parts[0]);
  auto a10 = ParseDouble(parts[1]);
  auto a60 = ParseDouble(parts[2]);
  auto c1 = ParseInt(parts[3]);
  auto c10 = ParseInt(parts[4]);
  auto c60 = ParseInt(parts[5]);
  if (!a1.ok() || !a10.ok() || !a60.ok() || !c1.ok() || !c10.ok() || !c60.ok()) {
    return Status::ParseError("bad summary payload");
  }
  s.avg_1m = *a1;
  s.avg_10m = *a10;
  s.avg_60m = *a60;
  s.count_1m = static_cast<std::size_t>(*c1);
  s.count_10m = static_cast<std::size_t>(*c10);
  s.count_60m = static_cast<std::size_t>(*c60);
  return s;
}

/// Parse "queue:<policy>[:<cap>]". Returns non-OK on malformed input.
Status ParseQueueSpec(const std::string& text, OverflowPolicy* policy,
                      std::size_t* capacity) {
  if (text.rfind("queue:", 0) != 0) {
    return Status::InvalidArgument("bad queue spec: " + text);
  }
  std::string rest = text.substr(6);
  const auto colon = rest.find(':');
  std::string policy_text =
      colon == std::string::npos ? rest : rest.substr(0, colon);
  auto parsed = ParseOverflowPolicy(policy_text);
  if (!parsed.ok()) return parsed.status();
  *policy = *parsed;
  if (colon != std::string::npos) {
    auto cap = ParseInt(rest.substr(colon + 1));
    if (!cap.ok() || *cap <= 0) {
      return Status::InvalidArgument("bad queue capacity: " + text);
    }
    *capacity = static_cast<std::size_t>(*cap);
  }
  return Status::Ok();
}

}  // namespace

Result<OverflowPolicy> ParseOverflowPolicy(std::string_view text) {
  if (text == "drop-oldest") return OverflowPolicy::kDropOldest;
  if (text == "drop-newest") return OverflowPolicy::kDropNewest;
  if (text == "disconnect") return OverflowPolicy::kDisconnect;
  return Status::InvalidArgument("unknown overflow policy '" +
                                 std::string(text) + "'");
}

std::string_view OverflowPolicyName(OverflowPolicy policy) {
  switch (policy) {
    case OverflowPolicy::kDropOldest: return "drop-oldest";
    case OverflowPolicy::kDropNewest: return "drop-newest";
    case OverflowPolicy::kDisconnect: return "disconnect";
  }
  return "unknown";
}

GatewayService::GatewayService(GatewaySurface& gateway,
                               std::unique_ptr<transport::Listener> listener)
    : gateway_(gateway),
      listener_(std::move(listener)),
      address_(listener_->address()) {}

std::size_t GatewayService::PollOnce() {
  // Accept whatever is waiting (non-blocking).
  while (true) {
    auto channel = listener_->Accept(0);
    if (!channel.ok()) break;
    Connection conn;
    conn.channel = std::shared_ptr<transport::Channel>(std::move(*channel));
    connections_.push_back(std::move(conn));
  }
  // Service pending requests; collect dead connections.
  std::size_t handled = 0;
  for (auto& conn : connections_) {
    while (auto msg = conn.channel->TryReceive()) {
      HandleMessage(conn, *msg);
      ++handled;
    }
  }
  // Age-based flush: a partial batch must not sit forever on a stream
  // that went quiet (the size trigger alone would strand it).
  const TimePoint now = gateway_.clock().Now();
  for (auto& conn : connections_) {
    for (auto& [id, batch] : conn.batches) {
      if (batch->count > 0 && now - batch->first_ts >= batch_max_age_) {
        FlushBatch(*batch);
      }
    }
  }
  DrainQueues();
  auto dead = std::partition(
      connections_.begin(), connections_.end(),
      [](const Connection& c) { return c.channel->IsOpen(); });
  for (auto it = dead; it != connections_.end(); ++it) DropConnection(*it);
  connections_.erase(dead, connections_.end());
  return handled;
}

void GatewayService::HandleMessage(Connection& conn,
                                   const transport::Message& msg) {
  if (msg.type == "gw.auth") {
    if (authenticator_) {
      auto outcome = authenticator_(msg.payload, conn.channel->peer());
      if (!outcome.ok()) {
        // A failed auth must not leave a stale principal on the
        // connection from an earlier successful line.
        conn.principal.clear();
        (void)conn.channel->Send(ErrorMessage(outcome.status()));
        return;
      }
      conn.principal = outcome->principal;
      (void)conn.channel->Send({"gw.ok", outcome->token});
      return;
    }
    conn.principal = msg.payload;
    (void)conn.channel->Send({"gw.ok", ""});
    return;
  }
  if (msg.type == "gw.subscribe") {
    auto lines = Split(msg.payload, '\n');
    const std::string consumer = lines.empty() ? "" : lines[0];
    auto spec = FilterSpec::Parse(lines.size() > 1 ? lines[1] : "all");
    if (!spec.ok()) {
      (void)conn.channel->Send(ErrorMessage(spec.status()));
      return;
    }
    const std::string format = lines.size() > 2 ? lines[2] : "";
    // Optional 4th line: slow-consumer overflow policy (ISSUE 4).
    auto queue = std::make_shared<OutQueue>();
    queue->channel = conn.channel;
    queue->consumer = consumer;
    if (lines.size() > 3 && !lines[3].empty()) {
      Status parsed =
          ParseQueueSpec(lines[3], &queue->policy, &queue->capacity);
      if (!parsed.ok()) {
        (void)conn.channel->Send(ErrorMessage(parsed));
        return;
      }
    }
    // The subscription callbacks write onto this connection's channel via
    // the bounded outbound queue: the fast path sends synchronously, a
    // consumer that stops draining sheds per its policy instead of
    // stalling the fan-out. All formats subscribe encoded: the per-publish
    // EncodedRecord means N subscribers of one format share a single
    // serialization (ISSUE 3 encode-once).
    Result<std::string> sub = Status::Ok();
    std::shared_ptr<BatchState> batch;
    std::size_t batch_records = 0;
    if (format.empty()) {
      sub = gateway_.SubscribeEncoded(
          consumer, *spec,
          [queue](const ulm::EncodedRecord& enc) {
            SendOrQueue(*queue, {transport::kEventMessageType, enc.Ascii()},
                        1);
          },
          conn.principal);
    } else if (format == "xml") {
      sub = gateway_.SubscribeEncoded(
          consumer, *spec,
          [queue](const ulm::EncodedRecord& enc) {
            SendOrQueue(*queue, {transport::kEventXmlMessageType, enc.Xml()}, 1);
          },
          conn.principal);
    } else if (ParseBatchFormat(format, &batch_records)) {
      batch = std::make_shared<BatchState>();
      batch->queue = queue;
      batch->max_records = batch_records;
      GatewaySurface* gw = &gateway_;
      sub = gateway_.SubscribeEncoded(
          consumer, *spec,
          [batch, gw](const ulm::EncodedRecord& enc) {
            if (batch->count == 0) batch->first_ts = gw->clock().Now();
            batch->buffer += enc.Binary();
            if (++batch->count >= batch->max_records) FlushBatch(*batch);
          },
          conn.principal);
    } else {
      (void)conn.channel->Send(ErrorMessage(
          Status::InvalidArgument("unknown subscription format: " + format)));
      return;
    }
    if (!sub.ok()) {
      (void)conn.channel->Send(ErrorMessage(sub.status()));
      return;
    }
    conn.subscription_ids.push_back(*sub);
    conn.out_queues.emplace(*sub, std::move(queue));
    if (batch) conn.batches.emplace(*sub, std::move(batch));
    (void)conn.channel->Send({"gw.ok", *sub});
    return;
  }
  if (msg.type == "gw.unsubscribe") {
    Status s = gateway_.Unsubscribe(msg.payload);
    std::erase(conn.subscription_ids, msg.payload);
    if (auto it = conn.batches.find(msg.payload); it != conn.batches.end()) {
      // Ship what the subscription already buffered before it disappears.
      if (it->second->count > 0) FlushBatch(*it->second);
      conn.batches.erase(it);
    }
    conn.out_queues.erase(msg.payload);
    (void)conn.channel->Send(s.ok() ? transport::Message{"gw.ok", ""}
                                    : ErrorMessage(s));
    return;
  }
  if (msg.type == "gw.query") {
    auto rec = gateway_.Query(msg.payload, conn.principal);
    if (!rec.ok()) {
      (void)conn.channel->Send(ErrorMessage(rec.status()));
      return;
    }
    // A distinct type: streamed subscription events may interleave on this
    // channel and must not be mistaken for the query reply.
    (void)conn.channel->Send({"gw.query.reply", rec->ToAscii()});
    return;
  }
  if (msg.type == "gw.query.xml") {
    auto xml = gateway_.QueryXml(msg.payload, conn.principal);
    if (!xml.ok()) {
      (void)conn.channel->Send(ErrorMessage(xml.status()));
      return;
    }
    (void)conn.channel->Send({"gw.xml", *xml});
    return;
  }
  if (msg.type == "gw.sensor.start" || msg.type == "gw.sensor.stop") {
    Status s = msg.type == "gw.sensor.start"
                   ? gateway_.StartSensor(msg.payload, conn.principal)
                   : gateway_.StopSensor(msg.payload, conn.principal);
    (void)conn.channel->Send(s.ok() ? transport::Message{"gw.ok", ""}
                                    : ErrorMessage(s));
    return;
  }
  if (msg.type == "gw.summary") {
    auto summary = gateway_.GetSummary(msg.payload, conn.principal);
    if (!summary.ok()) {
      (void)conn.channel->Send(ErrorMessage(summary.status()));
      return;
    }
    (void)conn.channel->Send({"gw.summary", EncodeSummary(*summary)});
    return;
  }
  (void)conn.channel->Send(
      ErrorMessage(Status::InvalidArgument("unknown request: " + msg.type)));
}

void GatewayService::DropConnection(Connection& conn) {
  for (const auto& id : conn.subscription_ids) {
    (void)gateway_.Unsubscribe(id);
  }
  conn.subscription_ids.clear();
  conn.batches.clear();  // channel is dead; partial batches go with it
  // Messages still queued for the dead channel will never arrive: count
  // them, keeping delivered + dropped exact.
  for (auto& [id, queue] : conn.out_queues) {
    if (queue->queued_records > 0) {
      queue->dropped_messages += queue->pending.size();
      queue->dropped_records += queue->queued_records;
      ServiceInstruments().subscriber_dropped.Add(
          static_cast<std::int64_t>(queue->queued_records));
    }
  }
  conn.out_queues.clear();
  conn.channel->Close();
}

void GatewayService::FlushBatch(BatchState& batch) {
  auto& tm = ServiceInstruments();
  tm.batches_sent.Increment();
  tm.batched_records_sent.Add(batch.count);
  tm.batch_records.Record(batch.count);
  const std::uint64_t records = batch.count;
  SendOrQueue(*batch.queue,
              {transport::kEventBatchMessageType, std::move(batch.buffer)},
              records);
  batch.buffer.clear();  // moved-from: reset to a defined empty state
  batch.count = 0;
}

void GatewayService::SendOrQueue(OutQueue& queue, transport::Message msg,
                                 std::uint64_t records) {
  if (queue.disconnected) {
    // Policy already fired; everything further is shed (and counted, so
    // delivered + dropped stays exact).
    queue.dropped_messages += 1;
    queue.dropped_records += records;
    ServiceInstruments().subscriber_dropped.Add(
        static_cast<std::int64_t>(records));
    return;
  }
  if (queue.pending.empty()) {
    auto sent = queue.channel->TrySend(msg);
    if (sent.ok() && *sent) {
      queue.sent_messages += 1;
      queue.sent_records += records;
      return;
    }
    if (!sent.ok()) {
      // Channel closed under us; PollOnce reaps the connection. Count the
      // message as dropped rather than silently losing it.
      queue.dropped_messages += 1;
      queue.dropped_records += records;
      ServiceInstruments().subscriber_dropped.Add(
          static_cast<std::int64_t>(records));
      return;
    }
    // Transport full: fall through and queue.
  }
  auto& tm = ServiceInstruments();
  if (queue.pending.size() >= queue.capacity) {
    switch (queue.policy) {
      case OverflowPolicy::kDropOldest: {
        auto& [old_msg, old_records] = queue.pending.front();
        (void)old_msg;
        queue.dropped_messages += 1;
        queue.dropped_records += old_records;
        queue.overload_drops_pending += old_records;
        queue.queued_records -= old_records;
        tm.subscriber_dropped.Add(static_cast<std::int64_t>(old_records));
        queue.pending.pop_front();
        break;
      }
      case OverflowPolicy::kDropNewest:
        queue.dropped_messages += 1;
        queue.dropped_records += records;
        queue.overload_drops_pending += records;
        tm.subscriber_dropped.Add(static_cast<std::int64_t>(records));
        return;  // incoming message is the casualty
      case OverflowPolicy::kDisconnect: {
        // The consumer is too slow to be served: cut it off. Everything
        // still queued (and the incoming message) counts as dropped.
        std::uint64_t lost = records;
        for (const auto& [pending_msg, pending_records] : queue.pending) {
          (void)pending_msg;
          lost += pending_records;
        }
        queue.dropped_messages += 1 + queue.pending.size();
        queue.dropped_records += lost;
        queue.overload_drops_pending += lost;
        queue.queued_records = 0;
        queue.pending.clear();
        queue.disconnected = true;
        queue.channel->Close();
        tm.subscriber_dropped.Add(static_cast<std::int64_t>(lost));
        tm.overload_disconnects.Increment();
        return;
      }
    }
  }
  queue.queued_records += records;
  queue.pending.emplace_back(std::move(msg), records);
}

void GatewayService::DrainQueues() {
  for (auto& conn : connections_) {
    for (auto& [id, queue] : conn.out_queues) {
      while (!queue->pending.empty()) {
        auto& [msg, records] = queue->pending.front();
        auto sent = queue->channel->TrySend(msg);
        if (!sent.ok()) {
          // Dead channel: the reaper handles the connection; what is still
          // queued counts as dropped when the connection is dropped.
          break;
        }
        if (!*sent) break;  // still full — try again next poll
        queue->sent_messages += 1;
        queue->sent_records += records;
        queue->queued_records -= records;
        queue->pending.pop_front();
      }
      if (queue->overload_drops_pending > 0) {
        // Surface the overload on the event stream itself, so operators
        // (and chaos tests) see drops without scraping /metrics.
        auto& tm = ServiceInstruments();
        tm.overload_events.Increment();
        ulm::Record rec(gateway_.clock().Now(), "", "gateway-service",
                        std::string(ulm::level::kWarning), kOverloadEvent);
        rec.SetField("CONSUMER", queue->consumer);
        rec.SetField("DROPPED",
                     static_cast<std::int64_t>(queue->overload_drops_pending));
        rec.SetField("POLICY", OverflowPolicyName(queue->policy));
        queue->overload_drops_pending = 0;
        gateway_.Publish(rec);
      }
    }
  }
}

std::vector<GatewayService::SubscriberQueueStats> GatewayService::QueueStats()
    const {
  std::vector<SubscriberQueueStats> out;
  for (const auto& conn : connections_) {
    for (const auto& [id, queue] : conn.out_queues) {
      SubscriberQueueStats stats;
      stats.subscription_id = id;
      stats.consumer = queue->consumer;
      stats.policy = queue->policy;
      stats.queued_messages = queue->pending.size();
      stats.queued_records = queue->queued_records;
      stats.sent_messages = queue->sent_messages;
      stats.sent_records = queue->sent_records;
      stats.dropped_messages = queue->dropped_messages;
      stats.dropped_records = queue->dropped_records;
      stats.disconnected = queue->disconnected;
      out.push_back(std::move(stats));
    }
  }
  return out;
}

// ----------------------------------------------------------------- client

namespace {

struct ClientTelemetry {
  telemetry::Counter& reconnects;
  telemetry::Counter& reconnect_failures;
  telemetry::Counter& resubscribes;
  telemetry::Counter& stale_replies;
  telemetry::Counter& pending_dropped;
  telemetry::Counter& batches_received;
  telemetry::Counter& batch_records_received;
  telemetry::Counter& batch_decode_errors;
  telemetry::Counter& xml_decode_errors;
};

ClientTelemetry& ClientInstruments() {
  auto& m = telemetry::Metrics();
  static ClientTelemetry t{m.counter("gateway.client.reconnects"),
                           m.counter("gateway.client.reconnect_failures"),
                           m.counter("gateway.client.resubscribes"),
                           m.counter("gateway.client.stale_replies"),
                           m.counter("gateway.client.pending_dropped"),
                           m.counter("gateway.client.batches_received"),
                           m.counter("gateway.client.batch_records_received"),
                           m.counter("gateway.client.batch_decode_errors"),
                           m.counter("gateway.client.xml_decode_errors")};
  return t;
}

/// Hand every record an event frame carries (ASCII, XML or batch) to
/// `sink`; false when `msg` is not event traffic. An undecodable XML frame
/// or batch is dropped whole and counted; the next frame decodes alone.
template <typename Sink>
bool ForEachEvent(const transport::Message& msg, Sink&& sink) {
  auto& t = ClientInstruments();
  if (msg.type == transport::kEventMessageType) {
    auto rec = ulm::Record::FromAscii(msg.payload);
    if (rec.ok()) sink(std::move(*rec));
    return true;
  }
  if (msg.type == transport::kEventXmlMessageType) {
    auto rec = ulm::FromXml(msg.payload);
    if (rec.ok()) {
      sink(std::move(*rec));
    } else {
      t.xml_decode_errors.Increment();
    }
    return true;
  }
  if (msg.type == transport::kEventBatchMessageType) {
    auto records = transport::DecodeEventBatch(msg);
    if (!records.ok()) {
      t.batch_decode_errors.Increment();
      return true;
    }
    t.batches_received.Increment();
    t.batch_records_received.Add(records->size());
    for (auto& rec : *records) sink(std::move(rec));
    return true;
  }
  return false;
}

using SteadyPoint = std::chrono::steady_clock::time_point;

SteadyPoint DeadlineIn(Duration timeout) {
  return std::chrono::steady_clock::now() +
         std::chrono::microseconds(timeout);
}

Duration RemainingUntil(SteadyPoint deadline) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             deadline - std::chrono::steady_clock::now())
      .count();
}

std::string SubscribePayload(const std::string& consumer,
                             const FilterSpec& spec,
                             const std::string& format,
                             const std::string& queue) {
  std::string payload = consumer + "\n" + spec.ToString();
  // The format line is a positional placeholder: it must be present
  // (possibly empty) whenever a queue line follows.
  if (!format.empty() || !queue.empty()) payload += "\n" + format;
  if (!queue.empty()) payload += "\n" + queue;
  return payload;
}

std::string BatchFormatLine(std::size_t batch_records) {
  return batch_records == 0 ? "batch"
                            : "batch:" + std::to_string(batch_records);
}

/// Control reply types the server can send; everything else on the stream
/// is event traffic or unknown.
bool IsControlReply(const std::string& type) {
  return type == "gw.ok" || type == "gw.summary" ||
         type == "gw.query.reply" || type == "gw.xml";
}

}  // namespace

GatewayClient::RecordedSub* GatewayClient::FindSub(std::uint64_t key) {
  for (auto& sub : subs_) {
    if (sub.key == key) return &sub;
  }
  return nullptr;
}

bool GatewayClient::AdoptControl(const transport::Message& msg) {
  if (awaited_.empty()) return false;
  if (msg.type != "gw.ok" && msg.type != "gw.error") return false;
  // Replies arrive in request order on the channel, so the oldest awaited
  // request is the one this reply answers.
  Awaited a = awaited_.front();
  awaited_.pop_front();
  if (a.kind == Awaited::Kind::kSubscribe && msg.type == "gw.ok") {
    if (RecordedSub* sub = FindSub(a.sub_key)) sub->id = msg.payload;
  }
  if (a.kind == Awaited::Kind::kAuth) {
    if (msg.type == "gw.ok") {
      auth_rejected_ = false;
      // Replayed auth answered: adopt the (re-)minted capability token.
      if (!msg.payload.empty()) token_ = msg.payload;
    } else {
      // The gateway refused the credential (expired token, revoked
      // policy): the connection is anonymous now, and the dead token
      // must not be harvested for further connections.
      auth_rejected_ = true;
      token_.clear();
    }
  }
  // A gw.error here means a replayed auth/subscribe was rejected; the
  // subscription keeps an empty id and the failure shows in telemetry.
  if (msg.type == "gw.error") {
    ClientInstruments().reconnect_failures.Increment();
  }
  return true;
}

bool GatewayClient::BufferIfEvent(const transport::Message& msg) {
  // Batches unpack into the RECORD-bounded pending buffer: capacity
  // semantics are identical for batched and unbatched subscriptions.
  return ForEachEvent(msg, [this](ulm::Record rec) {
    if (!pending_events_.Push(std::move(rec))) {
      ClientInstruments().pending_dropped.Increment();
    }
  });
}

Status GatewayClient::Reconnect() {
  if (!dialer_) {
    return Status::Unavailable("gateway client has no dialer to reconnect");
  }
  auto& t = ClientInstruments();
  auto fresh = dialer_();
  if (!fresh.ok()) {
    t.reconnect_failures.Increment();
    channel_.reset();
    return fresh.status();
  }
  channel_ = std::move(*fresh);
  awaited_.clear();
  t.reconnects.Increment();
  // Replay the session pipelined: send everything now, adopt the replies
  // as they interleave with the resumed event stream. The auth line
  // replays verbatim — for a cert bundle the gateway re-verifies and
  // mints a fresh token; for a token line the old token must still be
  // inside its TTL or the replay is rejected (shown in telemetry).
  if (authenticated_) {
    JAMM_RETURN_IF_ERROR(channel_->Send({"gw.auth", auth_payload_}));
    awaited_.push_back({Awaited::Kind::kAuth, 0});
  }
  for (auto& sub : subs_) {
    sub.id.clear();
    JAMM_RETURN_IF_ERROR(channel_->Send(
        {"gw.subscribe",
         SubscribePayload(sub.consumer, sub.spec, sub.format, sub.queue)}));
    awaited_.push_back({Awaited::Kind::kSubscribe, sub.key});
    t.resubscribes.Increment();
  }
  return Status::Ok();
}

Status GatewayClient::SendControl(const transport::Message& msg) {
  if (!channel_) {
    if (!dialer_) return Status::Unavailable("gateway client not connected");
    JAMM_RETURN_IF_ERROR(Reconnect());
  }
  Status sent = channel_->Send(msg);
  if (!sent.ok() && sent.code() == StatusCode::kUnavailable && dialer_) {
    JAMM_RETURN_IF_ERROR(Reconnect());
    sent = channel_->Send(msg);
  }
  return sent;
}

Result<transport::Message> GatewayClient::WaitFor(const std::string& type,
                                                  Duration timeout) {
  // Absolute deadline: interleaved events and stale replies must not
  // reset the clock, or a control call on a busy subscription could block
  // far past its timeout.
  const SteadyPoint deadline = DeadlineIn(timeout);
  while (true) {
    const Duration remaining = RemainingUntil(deadline);
    if (remaining <= 0) {
      return Status::Timeout("deadline exceeded waiting for " + type);
    }
    auto msg = channel_->Receive(remaining);
    if (!msg.ok()) return msg.status();
    if (BufferIfEvent(*msg)) {
      // Events (single or batched) that arrive while awaiting a control
      // reply are buffered.
      continue;
    }
    if (AdoptControl(*msg)) continue;
    if (msg->type == type) return std::move(*msg);
    if (msg->type == "gw.error") {
      return Status::Internal("gateway error: " + msg->payload);
    }
    // Stale control reply, e.g. a late gw.ok after a timed-out call.
    ClientInstruments().stale_replies.Increment();
  }
}

Status GatewayClient::Authenticate(const std::string& principal) {
  return AuthenticateWith(principal);
}

Status GatewayClient::AuthenticateWith(const std::string& auth_payload) {
  auth_payload_ = auth_payload;
  auth_rejected_ = false;
  // The flag flips only after the explicit send: SendControl may dial the
  // first connection via Reconnect(), which replays the credential when
  // authenticated_ is already set — and the gateway would see (and mint
  // for) the same auth line twice.
  Status sent = SendControl({"gw.auth", auth_payload});
  authenticated_ = true;
  JAMM_RETURN_IF_ERROR(sent);
  auto reply = WaitFor("gw.ok", kSecond);
  if (!reply.ok()) return reply.status();
  if (!reply->payload.empty()) token_ = reply->payload;
  return Status::Ok();
}

Status GatewayClient::AuthenticateWithAsync(const std::string& auth_payload) {
  auth_payload_ = auth_payload;
  auth_rejected_ = false;
  // See AuthenticateWith: flip the flag after the send, or a first-dial
  // Reconnect() inside SendControl duplicates the auth line.
  Status sent = SendControl({"gw.auth", auth_payload});
  authenticated_ = true;
  if (!sent.ok() && !dialer_) return sent;
  // Like SubscribeAsync: with a dialer the credential is declarative
  // intent — Reconnect() replays it once the gateway is reachable.
  if (sent.ok()) awaited_.push_back({Awaited::Kind::kAuth, 0});
  return Status::Ok();
}

Status GatewayClient::ReauthenticateWith(const std::string& auth_payload) {
  auth_payload_ = auth_payload;
  auth_rejected_ = false;
  token_.clear();
  authenticated_ = true;
  if (dialer_) {
    // The refused credential left this connection anonymous and its
    // replayed subscribes denied; a clean re-dial replays the new auth
    // line FIRST, then every recorded spec, restoring the stream under
    // the new identity.
    channel_.reset();
    return Reconnect();
  }
  Status sent = SendControl({"gw.auth", auth_payload});
  if (sent.ok()) awaited_.push_back({Awaited::Kind::kAuth, 0});
  return sent;
}

void GatewayClient::SetQueueSpec(OverflowPolicy policy,
                                 std::size_t capacity) {
  queue_spec_ = "queue:";
  queue_spec_ += OverflowPolicyName(policy);
  if (capacity > 0) queue_spec_ += ":" + std::to_string(capacity);
}

Result<std::string> GatewayClient::SubscribeWithFormat(
    const std::string& consumer, const FilterSpec& spec,
    const std::string& format) {
  JAMM_RETURN_IF_ERROR(SendControl(
      {"gw.subscribe",
       SubscribePayload(consumer, spec, format, queue_spec_)}));
  auto reply = WaitFor("gw.ok", kSecond);
  if (!reply.ok()) return reply.status();
  // Record the spec so a reconnect can replay it.
  subs_.push_back(
      {next_sub_key_++, consumer, spec, format, queue_spec_, reply->payload});
  return reply->payload;
}

Status GatewayClient::SubscribeAsyncWithFormat(const std::string& consumer,
                                               const FilterSpec& spec,
                                               const std::string& format) {
  Status sent = SendControl(
      {"gw.subscribe", SubscribePayload(consumer, spec, format, queue_spec_)});
  if (!sent.ok() && !dialer_) return sent;
  // A dialer-backed client records the subscription even when the send
  // failed: the subscription is declarative intent, and Reconnect() replays
  // it (all four lines — consumer, filter spec, format, queue spec) once
  // the gateway is reachable again. Previously a subscribe issued while the
  // link was down was silently dropped from the replay set, so a
  // republisher attaching to a not-yet-started downstream never streamed.
  subs_.push_back({next_sub_key_++, consumer, spec, format, queue_spec_, ""});
  if (sent.ok()) {
    awaited_.push_back({Awaited::Kind::kSubscribe, subs_.back().key});
  }
  return Status::Ok();
}

Result<std::string> GatewayClient::Subscribe(const std::string& consumer,
                                             const FilterSpec& spec,
                                             bool xml) {
  return SubscribeWithFormat(consumer, spec, xml ? "xml" : "");
}

Status GatewayClient::SubscribeAsync(const std::string& consumer,
                                     const FilterSpec& spec, bool xml) {
  return SubscribeAsyncWithFormat(consumer, spec, xml ? "xml" : "");
}

Result<std::string> GatewayClient::SubscribeBatched(
    const std::string& consumer, const FilterSpec& spec,
    std::size_t batch_records) {
  return SubscribeWithFormat(consumer, spec, BatchFormatLine(batch_records));
}

Status GatewayClient::SubscribeBatchedAsync(const std::string& consumer,
                                            const FilterSpec& spec,
                                            std::size_t batch_records) {
  return SubscribeAsyncWithFormat(consumer, spec,
                                  BatchFormatLine(batch_records));
}

Status GatewayClient::StartSensor(const std::string& sensor) {
  JAMM_RETURN_IF_ERROR(SendControl({"gw.sensor.start", sensor}));
  auto reply = WaitFor("gw.ok", kSecond);
  return reply.ok() ? Status::Ok() : reply.status();
}

Status GatewayClient::StopSensor(const std::string& sensor) {
  JAMM_RETURN_IF_ERROR(SendControl({"gw.sensor.stop", sensor}));
  auto reply = WaitFor("gw.ok", kSecond);
  return reply.ok() ? Status::Ok() : reply.status();
}

Status GatewayClient::Unsubscribe(const std::string& subscription_id) {
  if (subscription_id.empty()) {
    // "" is the placeholder id of every not-yet-adopted subscription;
    // matching it would silently drop all of them from the replay set.
    return Status::InvalidArgument("empty subscription id");
  }
  std::erase_if(subs_, [&](const RecordedSub& sub) {
    return sub.id == subscription_id;
  });
  JAMM_RETURN_IF_ERROR(SendControl({"gw.unsubscribe", subscription_id}));
  auto reply = WaitFor("gw.ok", kSecond);
  return reply.ok() ? Status::Ok() : reply.status();
}

Result<ulm::Record> GatewayClient::Query(const std::string& event_glob,
                                         Duration timeout) {
  JAMM_RETURN_IF_ERROR(SendControl({"gw.query", event_glob}));
  auto msg = WaitFor("gw.query.reply", timeout);
  if (!msg.ok()) return msg.status();
  return ulm::Record::FromAscii(msg->payload);
}

Result<std::string> GatewayClient::QueryXml(const std::string& event_glob,
                                            Duration timeout) {
  JAMM_RETURN_IF_ERROR(SendControl({"gw.query.xml", event_glob}));
  auto msg = WaitFor("gw.xml", timeout);
  if (!msg.ok()) return msg.status();
  return msg->payload;
}

Result<SummaryData> GatewayClient::Summary(const std::string& event_name,
                                           Duration timeout) {
  JAMM_RETURN_IF_ERROR(SendControl({"gw.summary", event_name}));
  auto msg = WaitFor("gw.summary", timeout);
  if (!msg.ok()) return msg.status();
  return DecodeSummary(msg->payload);
}

Result<ulm::Record> GatewayClient::NextEvent(Duration timeout) {
  const SteadyPoint deadline = DeadlineIn(timeout);
  int reconnects = 0;
  while (true) {
    if (auto rec = pending_events_.Pop()) return std::move(*rec);
    if (!channel_) {
      if (!dialer_ || reconnects >= kMaxReconnectsPerCall) {
        return Status::Unavailable("gateway client not connected");
      }
      ++reconnects;
      JAMM_RETURN_IF_ERROR(Reconnect());
    }
    const Duration remaining = RemainingUntil(deadline);
    if (remaining <= 0) {
      return Status::Timeout("no event within timeout");
    }
    auto msg = channel_->Receive(remaining);
    if (!msg.ok()) {
      if (msg.status().code() == StatusCode::kUnavailable && dialer_ &&
          reconnects < kMaxReconnectsPerCall) {
        // Connection died mid-stream: re-dial, resubscribe, and keep
        // waiting within the same deadline.
        ++reconnects;
        JAMM_RETURN_IF_ERROR(Reconnect());
        continue;
      }
      return msg.status();
    }
    if (msg->type == transport::kEventMessageType) {
      return ulm::Record::FromAscii(msg->payload);
    }
    if (BufferIfEvent(*msg)) {
      // XML and batch frames go through the pending buffer and pop from
      // its front, so they interleave with buffered singles in arrival
      // order.
      if (auto rec = pending_events_.Pop()) return std::move(*rec);
      continue;  // empty or undecodable frame: keep waiting
    }
    if (AdoptControl(*msg)) continue;
    if (msg->type == "gw.error") {
      return Status::Internal("gateway error: " + msg->payload);
    }
    if (IsControlReply(msg->type)) {
      // A stale control reply (e.g. a late gw.ok after a timed-out call)
      // must not poison the event stream: skip it.
      ClientInstruments().stale_replies.Increment();
      continue;
    }
    return Status::Internal("expected event, got " + msg->type);
  }
}

std::vector<ulm::Record> GatewayClient::DrainEvents() {
  if ((!channel_ || !channel_->IsOpen()) && dialer_) {
    (void)Reconnect();  // restore the stream; events resume next pump
  }
  std::vector<ulm::Record> out = pending_events_.DrainAll();
  if (!channel_) return out;
  while (auto msg = channel_->TryReceive()) {
    if (ForEachEvent(*msg,
                     [&out](ulm::Record rec) { out.push_back(std::move(rec)); })) {
      continue;
    }
    if (AdoptControl(*msg)) continue;
    if (IsControlReply(msg->type)) {
      ClientInstruments().stale_replies.Increment();
    }
  }
  return out;
}

}  // namespace jamm::gateway
