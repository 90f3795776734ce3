// GatewayService — serves an EventGateway to remote consumers over the
// transport layer (in-proc or TCP). This is the wire interface consumers
// use after discovering the gateway's address in the sensor directory.
//
// Protocol (Message.type / payload):
//   "gw.auth"         principal            — identify this connection.
//                                            With an Authenticator installed
//                                            (ISSUE 10) the payload must be
//                                            "cert\n<bundle>" (certificate
//                                            authentication; the gw.ok reply
//                                            carries a minted capability
//                                            token) or "token\n<token>"
//                                            (resume with a prior token);
//                                            a bare principal is then
//                                            refused outright — it carries
//                                            no proof of identity
//   "gw.subscribe"    consumer\nfilterspec[\nformat[\nqueue:...]]
//                                          — open stream; reply gw.ok <id>.
//                                            format "" streams ASCII
//                                            ulm.event; "xml" streams
//                                            gw.event.xml (§7.0's "consumer
//                                            can request either format");
//                                            "batch[:N]" (ISSUE 3) streams
//                                            gw.event.batch frames of up to
//                                            N (default 16) self-delimiting
//                                            binary records, flushed when
//                                            full or when the oldest queued
//                                            record exceeds the batch age.
//                                            Optional 4th line (ISSUE 4)
//                                            "queue:<policy>[:<cap>]" picks
//                                            the slow-consumer overflow
//                                            policy: drop-oldest (default),
//                                            drop-newest, or disconnect
//   "gw.unsubscribe"  subscription id      — reply gw.ok (flushes any
//                                            partial batch first)
//   "gw.query"        event glob           — reply ulm.event / gw.error
//   "gw.query.xml"    event glob           — reply gw.xml / gw.error
//   "gw.summary"      event name           — reply gw.summary CSV
//   "gw.sensor.start" sensor name          — ask the host's manager to
//   "gw.sensor.stop"  sensor name            start/stop a sensor; gw.ok
// Server → consumer:
//   "ulm.event"       ASCII ULM record     — subscription traffic
//   "gw.event.batch"  binary record batch  — batched subscription traffic
//   "gw.ok" / "gw.error" / "gw.xml" / "gw.summary"
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "gateway/gateway.hpp"
#include "resilience/buffer.hpp"
#include "transport/message.hpp"

namespace jamm::gateway {

/// Slow-consumer protection (ISSUE 4): every remote subscription writes
/// through a bounded outbound queue. The fast path (queue empty, transport
/// accepts) delivers synchronously; when the transport would block, events
/// queue up to the capacity, and this policy decides what happens next.
enum class OverflowPolicy {
  kDropOldest,  // shed the oldest queued event (default: favour freshness)
  kDropNewest,  // shed the incoming event (favour continuity)
  kDisconnect,  // close the connection; the consumer must re-dial
};

Result<OverflowPolicy> ParseOverflowPolicy(std::string_view text);
std::string_view OverflowPolicyName(OverflowPolicy policy);

/// ULM event the service publishes on its own gateway when an overloaded
/// subscription dropped events (fields CONSUMER, DROPPED, POLICY).
/// Lowercase: must not match sensor-event globs.
inline constexpr char kOverloadEvent[] = "gw.overload";

/// gw.auth payload prefixes (ISSUE 10). Defined here — on the protocol —
/// so the security layer (which builds/parses the bundles) and federation
/// (which replays cached tokens down the tree) agree without either
/// depending on the other.
inline constexpr char kAuthCertPrefix[] = "cert\n";
inline constexpr char kAuthTokenPrefix[] = "token\n";

/// Outcome of an authenticated gw.auth line (ISSUE 10): the verified
/// principal bound to the connection, and the capability token echoed to
/// the client in the gw.ok payload ("" = none).
struct AuthResult {
  std::string principal;
  std::string token;
};

class GatewayService {
 public:
  /// Serves any GatewaySurface — a leaf EventGateway or a federation
  /// RepublisherGateway (ISSUE 6); the wire protocol is identical either
  /// way, which is what lets republisher tiers stack.
  GatewayService(GatewaySurface& gateway,
                 std::unique_ptr<transport::Listener> listener);

  /// Accept pending connections and process every pending request; returns
  /// the number of requests handled. Also flushes event batches older than
  /// the batch age. Call from the host's poll loop.
  std::size_t PollOnce();

  const std::string& address() const { return address_; }
  std::size_t connection_count() const { return connections_.size(); }

  /// Verifies gw.auth payloads (ISSUE 10). Unset = legacy behaviour (the
  /// payload is trusted as the principal — access control then rests
  /// entirely on the surface's checkers). The security layer's
  /// Authorizer::GatewayAuthenticator produces one.
  using Authenticator = std::function<Result<AuthResult>(
      const std::string& payload, const std::string& peer)>;
  void SetAuthenticator(Authenticator authenticator) {
    authenticator_ = std::move(authenticator);
  }

  /// Flush policy knobs for "batch" subscriptions. A batch is sent when it
  /// reaches its record limit (subscription-negotiated, default 16) or
  /// when its oldest record has waited `batch_max_age` (default 50 ms on
  /// the gateway's clock) — batching must never add unbounded latency to a
  /// slow stream.
  void set_batch_max_age(Duration age) { batch_max_age_ = age; }
  Duration batch_max_age() const { return batch_max_age_; }
  static constexpr std::size_t kDefaultBatchRecords = 16;
  static constexpr Duration kDefaultBatchMaxAge = 50 * kMillisecond;
  /// Default outbound queue bound per remote subscription (messages).
  static constexpr std::size_t kDefaultQueueCapacity = 1024;

  /// Per-subscription outbound accounting, for tests and /metrics-style
  /// inspection. delivered + dropped is exact: every event routed to the
  /// subscription lands in exactly one bucket.
  struct SubscriberQueueStats {
    std::string subscription_id;
    std::string consumer;
    OverflowPolicy policy = OverflowPolicy::kDropOldest;
    std::size_t queued_messages = 0;   // currently waiting
    std::uint64_t queued_records = 0;
    std::uint64_t sent_messages = 0;
    std::uint64_t sent_records = 0;
    std::uint64_t dropped_messages = 0;
    std::uint64_t dropped_records = 0;
    bool disconnected = false;  // kDisconnect policy fired
  };
  std::vector<SubscriberQueueStats> QueueStats() const;

 private:
  /// Bounded outbound queue between the gateway fan-out (synchronous) and
  /// one remote subscription's channel (which may refuse writes when the
  /// consumer stops draining). Shared between the subscription callback
  /// and the service's drain/flush paths.
  struct OutQueue {
    std::shared_ptr<transport::Channel> channel;
    std::string consumer;
    OverflowPolicy policy = OverflowPolicy::kDropOldest;
    std::size_t capacity = kDefaultQueueCapacity;
    /// message + how many ULM records it carries (1, or a batch's count).
    std::deque<std::pair<transport::Message, std::uint64_t>> pending;
    std::uint64_t queued_records = 0;
    std::uint64_t sent_messages = 0;
    std::uint64_t sent_records = 0;
    std::uint64_t dropped_messages = 0;
    std::uint64_t dropped_records = 0;
    /// Records dropped since the last gw.overload event was published.
    std::uint64_t overload_drops_pending = 0;
    bool disconnected = false;
  };

  /// Accumulates one batch subscription's encoded records between flushes.
  /// Shared between the subscription callback (appends) and the service
  /// (age flush, unsubscribe flush).
  struct BatchState {
    std::shared_ptr<OutQueue> queue;
    std::string buffer;        // concatenated self-delimiting records
    std::size_t count = 0;     // records in buffer
    TimePoint first_ts = 0;    // when the oldest buffered record arrived
    std::size_t max_records = kDefaultBatchRecords;
  };

  struct Connection {
    std::shared_ptr<transport::Channel> channel;
    std::string principal;
    std::vector<std::string> subscription_ids;
    /// subscription id → batch accumulator (batch subscriptions only).
    std::map<std::string, std::shared_ptr<BatchState>> batches;
    /// subscription id → outbound queue (every remote subscription).
    std::map<std::string, std::shared_ptr<OutQueue>> out_queues;
  };

  void HandleMessage(Connection& conn, const transport::Message& msg);
  void DropConnection(Connection& conn);
  static void FlushBatch(BatchState& batch);
  /// Fast path: queue empty and transport accepts → synchronous send.
  /// Otherwise queue, applying the overflow policy at capacity.
  static void SendOrQueue(OutQueue& queue, transport::Message msg,
                          std::uint64_t records);
  /// Push queued messages into channels that have room again; publish
  /// gw.overload events for queues that dropped since the last poll.
  void DrainQueues();

  GatewaySurface& gateway_;
  std::unique_ptr<transport::Listener> listener_;
  std::string address_;
  std::vector<Connection> connections_;
  Duration batch_max_age_ = kDefaultBatchMaxAge;
  Authenticator authenticator_;
};

/// Consumer-side convenience wrapper around the protocol.
///
/// Resilience (ISSUE 2): constructed with a Dialer instead of a channel,
/// the client records its principal and subscription specs and, when the
/// connection dies, transparently re-dials, re-authenticates, and replays
/// every subscription — NextEvent() keeps a consumer streaming across a
/// gateway crash without manual intervention. Replayed control requests
/// are pipelined (never block on their replies); the replies are adopted
/// as they interleave with the event stream.
///
/// Single-threaded by design, like every poll-driven component.
class GatewayClient {
 public:
  using Dialer =
      std::function<Result<std::unique_ptr<transport::Channel>>()>;

  explicit GatewayClient(std::unique_ptr<transport::Channel> channel)
      : channel_(std::move(channel)), pending_events_(kDefaultPendingCap) {}

  /// Reconnecting client: the channel is (re-)established via `dialer`.
  explicit GatewayClient(Dialer dialer)
      : dialer_(std::move(dialer)), pending_events_(kDefaultPendingCap) {}

  Status Authenticate(const std::string& principal);

  /// ISSUE 10: authenticate with a prepared gw.auth payload (a cert
  /// bundle or token line from the security layer). The payload is
  /// recorded and replayed verbatim on every reconnect, exactly like
  /// subscription specs. On success token() holds any capability token
  /// the gateway returned.
  Status AuthenticateWith(const std::string& auth_payload);
  /// Non-blocking variant for poll-driven callers: the gw.ok (carrying
  /// the token) is adopted when it interleaves with the stream.
  Status AuthenticateWithAsync(const std::string& auth_payload);

  /// Capability token minted by the gateway at auth time ("" until the
  /// auth reply arrives, or when the gateway minted none).
  const std::string& token() const { return token_; }

  /// True after the gateway refused the last gw.auth line (e.g. an
  /// expired capability token replayed on reconnect); cleared by the next
  /// accepted auth or by ReauthenticateWith. While set, the connection is
  /// anonymous and its subscribes are being denied — the owner should
  /// swap in a stronger credential.
  bool auth_rejected() const { return auth_rejected_; }
  /// The credential currently recorded for replay (what gw.auth sends).
  const std::string& auth_credential() const { return auth_payload_; }

  /// Replace a refused credential (ISSUE 10): record `auth_payload` and
  /// rebuild the session under it. With a dialer the connection is
  /// re-established from scratch so the subscriptions denied while the
  /// principal was cleared replay under the new identity; without one the
  /// fresh auth line is pipelined on the existing channel.
  Status ReauthenticateWith(const std::string& auth_payload);

  /// Subscribe; the stream then arrives via NextEvent()/DrainEvents().
  /// `xml` requests the XML event format. Blocks on the gateway's reply,
  /// so the serving side must be pumped concurrently; poll-driven callers
  /// use SubscribeAsync instead.
  Result<std::string> Subscribe(const std::string& consumer,
                                const FilterSpec& spec, bool xml = false);

  /// Non-blocking subscribe: sends the request and records the spec; the
  /// subscription id is adopted from the gateway's reply when it later
  /// interleaves with the stream (subscription_id() until then: "").
  Status SubscribeAsync(const std::string& consumer, const FilterSpec& spec,
                        bool xml = false);

  /// Batched delivery (ISSUE 3): events arrive as gw.event.batch frames of
  /// up to `batch_records` binary records per transport message;
  /// NextEvent()/DrainEvents() decode them transparently, so the consumer
  /// API is unchanged — only the wire gets ~batch_records× fewer sends.
  /// `batch_records` 0 means the server default.
  Result<std::string> SubscribeBatched(const std::string& consumer,
                                       const FilterSpec& spec,
                                       std::size_t batch_records = 0);
  Status SubscribeBatchedAsync(const std::string& consumer,
                               const FilterSpec& spec,
                               std::size_t batch_records = 0);

  /// Slow-consumer policy (ISSUE 4) requested by subsequent Subscribe*
  /// calls: how the gateway handles this subscription when the client
  /// stops draining. Recorded per subscription and replayed on reconnect.
  /// `capacity` 0 means the server default.
  void SetQueueSpec(OverflowPolicy policy, std::size_t capacity = 0);

  /// Ask the host's sensor manager (via the gateway) to start or stop a
  /// sensor by name.
  Status StartSensor(const std::string& sensor);
  Status StopSensor(const std::string& sensor);
  Status Unsubscribe(const std::string& subscription_id);

  Result<ulm::Record> Query(const std::string& event_glob,
                            Duration timeout = kSecond);
  Result<std::string> QueryXml(const std::string& event_glob,
                               Duration timeout = kSecond);
  Result<SummaryData> Summary(const std::string& event_name,
                              Duration timeout = kSecond);

  /// Next streamed event, blocking up to `timeout` total (an absolute
  /// deadline: interleaved control traffic does not reset the clock).
  /// Stale control replies are skipped; only gw.error surfaces. On a dead
  /// connection a dialer-backed client reconnects and resubscribes, then
  /// keeps waiting within the same deadline.
  Result<ulm::Record> NextEvent(Duration timeout);
  /// Drain any already-arrived events without blocking. A dialer-backed
  /// client whose connection died re-establishes it first.
  std::vector<ulm::Record> DrainEvents();

  /// Re-dial and replay authentication + recorded subscriptions
  /// (pipelined; replies are adopted as they arrive). Needs a Dialer.
  Status Reconnect();

  bool connected() const { return channel_ && channel_->IsOpen(); }

  /// Streamed events that arrive while a control reply is awaited are
  /// buffered, bounded, dropping oldest (a busy subscription must not run
  /// the client out of memory); drops are counted here and in telemetry.
  void set_pending_capacity(std::size_t capacity) {
    pending_events_.set_capacity(capacity);
  }
  std::uint64_t pending_dropped() const { return pending_events_.dropped(); }

  std::size_t recorded_subscription_count() const { return subs_.size(); }
  /// Id of the i-th recorded subscription ("" until its reply arrives).
  const std::string& subscription_id(std::size_t i) const {
    return subs_[i].id;
  }

  transport::Channel& channel() { return *channel_; }

 private:
  static constexpr std::size_t kDefaultPendingCap = 1024;
  static constexpr int kMaxReconnectsPerCall = 3;

  struct RecordedSub {
    std::uint64_t key;  // stable id for reply adoption
    std::string consumer;
    FilterSpec spec;
    std::string format;  // "" (ASCII) | "xml" | "batch[:N]" wire format
    std::string queue;   // "" | "queue:<policy>[:<cap>]" overflow policy
    std::string id;      // gateway-assigned; empty until adopted
  };
  /// A pipelined control request whose reply is still outstanding.
  struct Awaited {
    enum class Kind { kAuth, kSubscribe };
    Kind kind;
    std::uint64_t sub_key = 0;
  };

  Result<transport::Message> WaitFor(const std::string& type,
                                     Duration timeout);
  /// Adopt `msg` if it answers the oldest pipelined control request.
  bool AdoptControl(const transport::Message& msg);
  /// True for event traffic (ASCII, XML or batch); records land in
  /// pending_events_ (bounded in RECORDS, so one huge batch cannot blow
  /// the memory cap a record cap implies).
  bool BufferIfEvent(const transport::Message& msg);
  Result<std::string> SubscribeWithFormat(const std::string& consumer,
                                          const FilterSpec& spec,
                                          const std::string& format);
  Status SubscribeAsyncWithFormat(const std::string& consumer,
                                  const FilterSpec& spec,
                                  const std::string& format);
  /// Ensure a live channel (dialing if needed) and send; one reconnect
  /// attempt on a dead connection.
  Status SendControl(const transport::Message& msg);
  RecordedSub* FindSub(std::uint64_t key);

  Dialer dialer_;
  std::unique_ptr<transport::Channel> channel_;
  std::string auth_payload_;  // replayed verbatim on reconnect
  std::string token_;         // capability token from the last gw.ok
  bool authenticated_ = false;
  bool auth_rejected_ = false;  // last gw.auth answered with gw.error
  std::vector<RecordedSub> subs_;
  std::deque<Awaited> awaited_;
  std::string queue_spec_;  // applied to subsequent subscribes
  std::uint64_t next_sub_key_ = 1;
  resilience::ReplayBuffer<ulm::Record> pending_events_;
};

}  // namespace jamm::gateway
