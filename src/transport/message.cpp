#include "transport/message.hpp"

#include "telemetry/metrics.hpp"

namespace jamm::transport {
namespace {

// Wire-level self-telemetry: every frame either implementation (in-proc,
// TCP) moves passes through Encode/DecodeFrame, so counting here covers
// the whole transport layer.
struct TransportTelemetry {
  telemetry::Counter& frames_encoded;
  telemetry::Counter& bytes_encoded;
  telemetry::Counter& frames_decoded;
  telemetry::Counter& decode_errors;
};

TransportTelemetry& Instruments() {
  auto& m = telemetry::Metrics();
  static TransportTelemetry t{m.counter("transport.frames_encoded"),
                              m.counter("transport.bytes_encoded"),
                              m.counter("transport.frames_decoded"),
                              m.counter("transport.decode_errors")};
  return t;
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) out.push_back(static_cast<char>((v >> (8 * b)) & 0xFF));
}

bool GetU32(std::string_view data, std::size_t i, std::uint32_t& v) {
  if (i + 4 > data.size()) return false;
  v = 0;
  for (int b = 0; b < 4; ++b) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[i + b]))
         << (8 * b);
  }
  return true;
}

}  // namespace

std::string EncodeFrame(const Message& msg) {
  std::string out;
  out.reserve(8 + msg.type.size() + msg.payload.size());
  PutU32(out, static_cast<std::uint32_t>(msg.type.size()));
  out += msg.type;
  PutU32(out, static_cast<std::uint32_t>(msg.payload.size()));
  out += msg.payload;
  auto& tm = Instruments();
  tm.frames_encoded.Increment();
  tm.bytes_encoded.Add(out.size());
  return out;
}

Result<Message> DecodeFrame(std::string_view data, std::size_t* offset) {
  // Both length prefixes are checked before anything is copied, and the
  // NotFound message fits the string's inline buffer: polling a partial
  // frame does not allocate.
  const std::size_t type_at = *offset + 4;
  std::uint32_t type_len;
  if (!GetU32(data, *offset, type_len)) return Status::NotFound("incomplete");
  if (type_len > kMaxFrameBytes) {
    Instruments().decode_errors.Increment();
    return Status::ParseError("frame type too large");
  }
  std::uint32_t payload_len;
  if (!GetU32(data, type_at + type_len, payload_len)) {
    return Status::NotFound("incomplete");
  }
  if (payload_len > kMaxFrameBytes) {
    Instruments().decode_errors.Increment();
    return Status::ParseError("frame payload too large");
  }
  const std::size_t payload_at = type_at + type_len + 4;
  if (payload_at + payload_len > data.size()) {
    return Status::NotFound("incomplete");
  }
  Message msg{std::string(data.substr(type_at, type_len)),
              std::string(data.substr(payload_at, payload_len))};
  *offset = payload_at + payload_len;
  Instruments().frames_decoded.Increment();
  return msg;
}

}  // namespace jamm::transport
