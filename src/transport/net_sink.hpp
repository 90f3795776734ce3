// The NetLogger "remote host" destination (paper §4.4) — a LogSink that
// ships each ULM record over a transport Channel, plus the receiving-side
// helper that turns inbound messages back into records.
#pragma once

#include <memory>
#include <vector>

#include "netlogger/sinks.hpp"
#include "transport/message.hpp"

namespace jamm::transport {

/// Message type used for ULM event traffic.
inline constexpr char kEventMessageType[] = "ulm.event";
/// Message type for binary-encoded ULM event traffic.
inline constexpr char kBinaryEventMessageType[] = "ulm.event.bin";
/// Batched event traffic (ISSUE 3): the payload is a concatenation of
/// self-delimiting binary ULM records — no extra framing needed. One
/// transport Send carries a whole batch.
inline constexpr char kEventBatchMessageType[] = "gw.event.batch";
/// One event as a ulm::ToXml element (a subscription's xml format).
inline constexpr char kEventXmlMessageType[] = "gw.event.xml";

class NetSink final : public netlogger::LogSink {
 public:
  /// If `binary` the record travels in the binary ULM codec (paper §3's
  /// "binary format option for high throughput event data").
  explicit NetSink(std::shared_ptr<Channel> channel, bool binary = false)
      : channel_(std::move(channel)), binary_(binary) {}

  Status Write(const ulm::Record& rec) override;

 private:
  std::shared_ptr<Channel> channel_;
  bool binary_;
};

/// Decode an event message produced by NetSink (either encoding).
Result<ulm::Record> DecodeEventMessage(const Message& msg);

/// Decode a kEventBatchMessageType payload back into its records.
Result<std::vector<ulm::Record>> DecodeEventBatch(const Message& msg);

}  // namespace jamm::transport
