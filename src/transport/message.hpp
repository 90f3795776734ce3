// Message transport abstraction. The paper's components talk over Java RMI;
// our C++ reproduction moves typed messages over a Channel, with two
// interchangeable implementations:
//
//   * in-process (deterministic, queue-backed) — used by tests, benches,
//     and everything driven by the discrete-event simulator;
//   * TCP (POSIX sockets) — the production plumbing, exercised by the
//     realtime_tcp example and the transport integration tests.
//
// Wire framing (TCP): u32-LE type length, type bytes, u32-LE payload
// length, payload bytes. Messages are independent frames; a stream of them
// concatenates.
//
// Timeouts (Channel::Receive, Listener::Accept), the same on every
// transport:
//   * timeout > 0 — wait up to that many µs;
//   * timeout == 0 — poll: return at once, never sleep;
//   * timeout < 0 — block until a message/connection arrives or the
//     channel/listener closes.
// Service loops poll with Accept(0) and TryReceive; on both transports an
// empty call neither sleeps nor allocates (its Timeout message fits the
// string's inline buffer).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/clock.hpp"
#include "common/status.hpp"

namespace jamm::transport {

struct Message {
  std::string type;     // dispatch key, e.g. "event", "subscribe", "rpc.call"
  std::string payload;  // opaque bytes (ULM ASCII/binary, RPC args, ...)

  friend bool operator==(const Message&, const Message&) = default;
};

/// Upper bound on a single frame; protects against corrupt length prefixes.
inline constexpr std::size_t kMaxFrameBytes = 16 * 1024 * 1024;

/// Serialize/deserialize one frame (used by the TCP channel and tests).
std::string EncodeFrame(const Message& msg);
/// Decodes one frame starting at *offset, advancing it. NotFound means
/// "incomplete frame — need more bytes" (distinct from a ParseError); it
/// copies nothing and does not allocate, so a reader may poll with it.
Result<Message> DecodeFrame(std::string_view data, std::size_t* offset);

/// Bidirectional, ordered, reliable message channel.
class Channel {
 public:
  virtual ~Channel() = default;

  virtual Status Send(const Message& msg) = 0;

  /// Non-blocking send. Returns true if the message was accepted, false if
  /// it would block (peer's buffer full — try again later), or an error
  /// status if the channel is closed. The default falls back to the
  /// blocking Send (correct for transports without a bounded local buffer);
  /// bounded transports override it so callers like the gateway's
  /// slow-consumer queues never stall on one subscriber.
  virtual Result<bool> TrySend(const Message& msg) {
    Status status = Send(msg);
    if (!status.ok()) return status;
    return true;
  }

  /// Waits per the timeout contract above; Timeout status if nothing
  /// arrived, Unavailable if the peer closed and the buffer is drained.
  virtual Result<Message> Receive(Duration timeout) = 0;

  /// Non-blocking receive: a complete message, or nullopt (nothing ready,
  /// or closed). An empty call does not allocate.
  virtual std::optional<Message> TryReceive() = 0;

  virtual void Close() = 0;

  /// Half-close: stop sending but keep receiving what the peer already
  /// sent (like shutdown(SHUT_WR)). The peer observes our direction
  /// closed; our inbound side drains normally. Transports without
  /// per-direction state fall back to a full Close.
  virtual void CloseSend() { Close(); }

  /// True only while BOTH directions are usable: a channel whose peer
  /// has closed (inbound drained-or-draining, sends doomed) is not open,
  /// even if our own outbound queue still accepts writes.
  virtual bool IsOpen() const = 0;

  /// Diagnostic peer name ("inproc:gateway-a", "127.0.0.1:4823").
  virtual std::string peer() const = 0;
};

/// Accepts inbound channels.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Waits per the timeout contract above for one inbound connection;
  /// Timeout if none arrived, Unavailable once closed. Accept(0) is the
  /// non-blocking poll.
  virtual Result<std::unique_ptr<Channel>> Accept(Duration timeout) = 0;

  virtual void Close() = 0;

  /// Dialable address ("inproc:name" or "127.0.0.1:port").
  virtual std::string address() const = 0;
};

}  // namespace jamm::transport
