// Tests for the transport layer: frame codec, in-proc channels and the
// named endpoint registry, real TCP channels on localhost, the timeout
// contract and idle-poll cost both share, and the NetLogger-over-transport
// sink in both ASCII and binary encodings.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "netlogger/logger.hpp"
#include "transport/inproc.hpp"
#include "transport/message.hpp"
#include "transport/net_sink.hpp"
#include "transport/tcp.hpp"

// Heap allocations made by the current thread while counting is on. The
// replaceable global operator new below feeds it, in this binary only;
// operator new[] forwards to it by default.
namespace {
thread_local bool t_count_allocs = false;
thread_local std::size_t t_allocs = 0;
}  // namespace

// Out of line, so GCC does not pair an inlined free() with a new-expression
// and report -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (t_count_allocs) ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace jamm::transport {
namespace {

template <typename F>
std::size_t HeapAllocsIn(F&& body) {
  t_allocs = 0;
  t_count_allocs = true;
  body();
  t_count_allocs = false;
  return t_allocs;
}

template <typename F>
double SecondsFor(F&& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ------------------------------------------------------------------ frames

TEST(FrameTest, RoundTripsOneMessage) {
  Message msg{"event", "DATE=... HOST=h"};
  const std::string data = EncodeFrame(msg);
  std::size_t offset = 0;
  auto decoded = DecodeFrame(data, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, msg);
  EXPECT_EQ(offset, data.size());
}

TEST(FrameTest, ConcatenatedFramesDecodeSequentially) {
  std::string data = EncodeFrame({"a", "1"}) + EncodeFrame({"b", "2"});
  std::size_t offset = 0;
  auto first = DecodeFrame(data, &offset);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, "a");
  auto second = DecodeFrame(data, &offset);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, "b");
  EXPECT_EQ(offset, data.size());
}

TEST(FrameTest, IncompleteFrameReportsNotFound) {
  const std::string data = EncodeFrame({"event", "payload"});
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    std::size_t offset = 0;
    auto decoded = DecodeFrame(data.substr(0, cut), &offset);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound) << cut;
    EXPECT_EQ(offset, 0u);  // offset untouched on failure
  }
}

TEST(FrameTest, OversizedLengthIsParseErrorNotNotFound) {
  std::string data(4, '\xff');  // type length = 0xffffffff
  std::size_t offset = 0;
  auto decoded = DecodeFrame(data, &offset);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(FrameTest, EmptyTypeAndPayloadAllowed) {
  std::size_t offset = 0;
  auto decoded = DecodeFrame(EncodeFrame({"", ""}), &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, "");
  EXPECT_EQ(decoded->payload, "");
}

TEST(FrameTest, BinaryPayloadSurvives) {
  std::string payload;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    payload.push_back(static_cast<char>(rng.Uniform(0, 255)));
  }
  std::size_t offset = 0;
  auto decoded = DecodeFrame(EncodeFrame({"bin", payload}), &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->payload, payload);
}

// ------------------------------------------------------------------ inproc

TEST(InProcTest, PairDeliversBothDirections) {
  auto [a, b] = MakeChannelPair();
  ASSERT_TRUE(a->Send({"ping", "1"}).ok());
  auto msg = b->Receive(kSecond);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, "ping");
  ASSERT_TRUE(b->Send({"pong", "2"}).ok());
  auto reply = a->Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, "pong");
}

TEST(InProcTest, OrderingPreserved) {
  auto [a, b] = MakeChannelPair();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(a->Send({"n", std::to_string(i)}).ok());
  }
  for (int i = 0; i < 100; ++i) {
    auto msg = b->Receive(kSecond);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->payload, std::to_string(i));
  }
}

TEST(InProcTest, TryReceiveNonBlocking) {
  auto [a, b] = MakeChannelPair();
  EXPECT_FALSE(b->TryReceive().has_value());
  (void)a->Send({"x", ""});
  auto msg = b->TryReceive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, "x");
}

TEST(InProcTest, ReceiveTimesOut) {
  auto [a, b] = MakeChannelPair();
  auto msg = b->Receive(5 * kMillisecond);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kTimeout);
  (void)a;
}

TEST(InProcTest, CloseMakesPeerUnavailable) {
  auto [a, b] = MakeChannelPair();
  a->Close();
  EXPECT_FALSE(b->Send({"x", ""}).ok());
  auto msg = b->Receive(5 * kMillisecond);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(a->IsOpen());
}

TEST(InProcTest, NetworkDialAndAccept) {
  InProcNetwork net;
  auto listener = net.Listen("gateway.hostA");
  ASSERT_TRUE(listener.ok());
  EXPECT_EQ((*listener)->address(), "inproc:gateway.hostA");
  EXPECT_TRUE(net.HasEndpoint("gateway.hostA"));

  auto client = net.Dial("gateway.hostA");
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());

  ASSERT_TRUE((*client)->Send({"subscribe", "cpu"}).ok());
  auto msg = (*server)->Receive(kSecond);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->payload, "cpu");
}

TEST(InProcTest, DialWithoutListenerFails) {
  InProcNetwork net;
  auto client = net.Dial("nobody");
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
}

TEST(InProcTest, DuplicateListenRejected) {
  InProcNetwork net;
  auto first = net.Listen("ep");
  ASSERT_TRUE(first.ok());
  auto second = net.Listen("ep");
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
}

TEST(InProcTest, ListenerCloseFreesName) {
  InProcNetwork net;
  auto first = net.Listen("ep");
  ASSERT_TRUE(first.ok());
  (*first)->Close();
  EXPECT_FALSE(net.HasEndpoint("ep"));
  auto second = net.Listen("ep");
  EXPECT_TRUE(second.ok());
}

TEST(InProcTest, AcceptTimesOutWithoutDial) {
  InProcNetwork net;
  auto listener = net.Listen("ep");
  ASSERT_TRUE(listener.ok());
  auto chan = (*listener)->Accept(5 * kMillisecond);
  ASSERT_FALSE(chan.ok());
  EXPECT_EQ(chan.status().code(), StatusCode::kTimeout);
}

TEST(InProcTest, CloseSendHalfClosesAndPeerIsOpenSeesIt) {
  // S4 regression (ISSUE 7): IsOpen() used to inspect only the outbound
  // queue, so a channel whose INBOUND side was gone still claimed to be
  // open. CloseSend() makes the broken case deterministic: after a
  // half-close, both ends must report not-open, while the untouched
  // return path still carries traffic.
  auto [a, b] = MakeChannelPair();
  ASSERT_TRUE(a->Send({"n", "1"}).ok());
  ASSERT_TRUE(a->Send({"n", "2"}).ok());
  a->CloseSend();
  EXPECT_FALSE(a->IsOpen());  // its send side is closed
  EXPECT_FALSE(a->Send({"n", "3"}).ok());
  EXPECT_FALSE(b->IsOpen());  // inbound dead — the pre-fix code said true
  // Drain-after-close: queued messages still arrive, then Unavailable.
  EXPECT_EQ(b->Receive(kSecond)->payload, "1");
  EXPECT_EQ(b->Receive(kSecond)->payload, "2");
  EXPECT_EQ(b->Receive(5 * kMillisecond).status().code(),
            StatusCode::kUnavailable);
  // The b→a direction was never closed and still delivers.
  ASSERT_TRUE(b->Send({"back", "x"}).ok());
  EXPECT_EQ(a->Receive(kSecond)->type, "back");
}

TEST(InProcTest, BlockingSendWaitsForSpaceAtTinyCapacity) {
  // Two slots force the producer to block in Send while the consumer
  // drains; nothing is lost or reordered.
  auto [a, b] = MakeChannelPair("tiny", 2);
  constexpr int kCount = 1000;
  std::thread producer([&a = a] {
    for (int i = 0; i < kCount; ++i) {
      ASSERT_TRUE(a->Send({"n", std::to_string(i)}).ok());
    }
  });
  for (int i = 0; i < kCount; ++i) {
    auto msg = b->Receive(5 * kSecond);
    ASSERT_TRUE(msg.ok()) << i;
    EXPECT_EQ(msg->payload, std::to_string(i));
  }
  producer.join();
}

TEST(InProcTest, ManyProducersKeepPerProducerOrder) {
  auto [a, b] = MakeChannelPair("mpsc", 64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&a = a, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(
            a->Send({std::to_string(p), std::to_string(i)}).ok());
      }
    });
  }
  // The single consumer sees an interleaving, but each producer's stream
  // stays FIFO.
  std::vector<int> next(kProducers, 0);
  for (int n = 0; n < kProducers * kPerProducer; ++n) {
    auto msg = b->Receive(5 * kSecond);
    ASSERT_TRUE(msg.ok()) << n;
    const int p = std::stoi(msg->type);
    EXPECT_EQ(std::stoi(msg->payload), next[static_cast<std::size_t>(p)]);
    ++next[static_cast<std::size_t>(p)];
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[static_cast<std::size_t>(p)], kPerProducer);
  }
}

// --------------------------------------------------------------------- tcp

TEST(TcpTest, ConnectSendReceive) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = (*listener)->port();
  ASSERT_GT(port, 0);

  auto client = TcpDial("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());

  ASSERT_TRUE((*client)->Send({"hello", "world"}).ok());
  auto msg = (*server)->Receive(kSecond);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, "hello");
  EXPECT_EQ(msg->payload, "world");

  ASSERT_TRUE((*server)->Send({"reply", "ok"}).ok());
  auto reply = (*client)->Receive(kSecond);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->payload, "ok");
}

TEST(TcpTest, LocalhostAliasAccepted) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("localhost", (*listener)->port());
  EXPECT_TRUE(client.ok());
}

TEST(TcpTest, ManyMessagesArriveInOrder) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());

  constexpr int kCount = 500;
  std::thread sender([&] {
    for (int i = 0; i < kCount; ++i) {
      ASSERT_TRUE((*client)->Send({"n", std::to_string(i)}).ok());
    }
  });
  for (int i = 0; i < kCount; ++i) {
    auto msg = (*server)->Receive(5 * kSecond);
    ASSERT_TRUE(msg.ok()) << i << ": " << msg.status().ToString();
    EXPECT_EQ(msg->payload, std::to_string(i));
  }
  sender.join();
}

TEST(TcpTest, LargePayloadCrossesManyReads) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());

  std::string big(1 << 20, 'x');  // 1 MiB
  std::thread sender([&] { ASSERT_TRUE((*client)->Send({"big", big}).ok()); });
  auto msg = (*server)->Receive(10 * kSecond);
  sender.join();
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->payload.size(), big.size());
  EXPECT_EQ(msg->payload, big);
}

TEST(TcpTest, ReceiveTimesOut) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());
  auto msg = (*server)->Receive(10 * kMillisecond);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kTimeout);
}

TEST(TcpTest, PeerCloseObserved) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());
  (*client)->Close();
  auto msg = (*server)->Receive(kSecond);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kUnavailable);
}

TEST(TcpTest, DialRefusedPort) {
  // Create-then-close a listener to get a port that refuses connections.
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = (*listener)->port();
  (*listener)->Close();
  auto client = TcpDial("127.0.0.1", port, 200 * kMillisecond);
  EXPECT_FALSE(client.ok());
}

TEST(TcpTest, DialBadAddress) {
  auto client = TcpDial("not-an-ip", 1234, 100 * kMillisecond);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------- timeouts and idle polls
// One timeout contract on both transports (message.hpp): 0 polls, < 0
// blocks. A service loop polls far more often than anything arrives, so
// an empty poll must cost neither a sleep nor a heap allocation.

TEST(TimeoutContractTest, InProcNegativeTimeoutBlocksZeroPolls) {
  InProcNetwork net;
  auto listener = net.Listen("ep");
  ASSERT_TRUE(listener.ok());
  EXPECT_EQ((*listener)->Accept(0).status().code(), StatusCode::kTimeout);
  std::thread dialer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(net.Dial("ep").ok());
  });
  auto server = (*listener)->Accept(-1);
  dialer.join();
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto [a, b] = MakeChannelPair();
  EXPECT_EQ(b->Receive(0).status().code(), StatusCode::kTimeout);
  std::thread sender([&a = a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(a->Send({"late", "1"}).ok());
  });
  auto msg = b->Receive(-1);
  sender.join();
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->type, "late");

  std::thread closer([&a = a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->Close();
  });
  auto closed = b->Receive(-1);
  closer.join();
  EXPECT_EQ(closed.status().code(), StatusCode::kUnavailable);
}

TEST(TimeoutContractTest, TcpNegativeTimeoutBlocksZeroPolls) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = (*listener)->port();
  EXPECT_EQ((*listener)->Accept(0).status().code(), StatusCode::kTimeout);
  Result<std::unique_ptr<Channel>> client = Status::Unavailable("not dialed");
  std::thread dialer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    client = TcpDial("127.0.0.1", port);
  });
  auto server = (*listener)->Accept(-1);
  dialer.join();
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(client.ok());

  EXPECT_EQ((*server)->Receive(0).status().code(), StatusCode::kTimeout);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE((*client)->Send({"late", "1"}).ok());
  });
  auto msg = (*server)->Receive(-1);
  sender.join();
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  EXPECT_EQ(msg->type, "late");

  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (*client)->Close();
  });
  auto closed = (*server)->Receive(-1);
  closer.join();
  EXPECT_EQ(closed.status().code(), StatusCode::kUnavailable);
}

TEST(IdlePollTest, TenThousandEmptyInProcPollsNeverSleep) {
  // A zero-timeout condition_variable::wait_for still sleeps out the
  // thread's timer slack (~50 µs), so a loop below that reached it would
  // take over 0.5 s. Without the sleep it takes a few ms, tens of ms under
  // TSan.
  constexpr int kPolls = 10'000;
  InProcNetwork net;
  auto listener = net.Listen("idle");
  ASSERT_TRUE(listener.ok());
  auto [a, b] = MakeChannelPair("idle");
  int accepted = 0;
  const double accept_s = SecondsFor([&] {
    for (int i = 0; i < kPolls; ++i) accepted += (*listener)->Accept(0).ok();
  });
  int received = 0;
  const double receive_s = SecondsFor([&b = b, &received] {
    for (int i = 0; i < kPolls; ++i) received += b->Receive(0).ok();
  });
  EXPECT_EQ(accepted, 0);
  EXPECT_EQ(received, 0);
  EXPECT_LT(accept_s, 0.25);
  EXPECT_LT(receive_s, 0.25);
  (void)a;
}

TEST(IdlePollTest, EmptyAcceptAndTryReceivePollsDoNotAllocate) {
  constexpr int kPolls = 100;
  InProcNetwork net;
  auto inproc = net.Listen("idle");
  ASSERT_TRUE(inproc.ok());
  auto [a, b] = MakeChannelPair("idle");
  auto tcp = TcpListener::Create();
  ASSERT_TRUE(tcp.ok());
  auto client = TcpDial("127.0.0.1", (*tcp)->port());
  ASSERT_TRUE(client.ok());
  auto server = (*tcp)->Accept(kSecond);
  ASSERT_TRUE(server.ok());

  int got = 0;
  const std::size_t allocs = HeapAllocsIn([&, &b = b] {
    for (int i = 0; i < kPolls; ++i) {
      got += (*inproc)->Accept(0).ok();
      got += b->TryReceive().has_value();
      got += (*tcp)->Accept(0).ok();
      got += (*server)->TryReceive().has_value();
    }
  });
  EXPECT_EQ(got, 0);
  EXPECT_EQ(allocs, 0u);

  // Still none while only part of a frame has arrived (the decoder checks
  // both length prefixes before it copies), and the frame is whole once the
  // rest lands.
  const std::string frame = EncodeFrame({"event", "payload"});
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons((*tcp)->port());
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  auto accepted = (*tcp)->Accept(kSecond);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  std::unique_ptr<Channel> partial = std::move(*accepted);
  ASSERT_EQ(::send(raw, frame.data(), 6, 0), 6);
  const std::size_t partial_allocs = HeapAllocsIn([&] {
    for (int i = 0; i < kPolls; ++i) got += partial->TryReceive().has_value();
  });
  EXPECT_EQ(got, 0);
  EXPECT_EQ(partial_allocs, 0u);
  const auto rest = static_cast<ssize_t>(frame.size() - 6);
  ASSERT_EQ(::send(raw, frame.data() + 6, frame.size() - 6, 0), rest);
  std::optional<Message> msg;
  for (int i = 0; i < 5000 && !msg; ++i) {
    msg = partial->TryReceive();
    if (!msg) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::close(raw);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, "event");
  EXPECT_EQ(msg->payload, "payload");
  (void)a;
}

// ---------------------------------------------------------------- net sink

TEST(NetSinkTest, ShipsAsciiRecordsOverChannel) {
  auto [tx, rx] = MakeChannelPair();
  std::shared_ptr<Channel> tx_shared = std::move(tx);
  SimClock clock(42 * kSecond);
  netlogger::NetLogger log("prog", clock, "hostA", 1);
  log.OpenSink(std::make_shared<NetSink>(tx_shared));
  ASSERT_TRUE(log.Write("Ev", {{"K", "7"}}).ok());

  auto msg = rx->Receive(kSecond);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, kEventMessageType);
  auto rec = DecodeEventMessage(*msg);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->event_name(), "Ev");
  EXPECT_EQ(*rec->GetInt("K"), 7);
  EXPECT_EQ(rec->timestamp(), 42 * kSecond);
}

TEST(NetSinkTest, BinaryModeRoundTrips) {
  auto [tx, rx] = MakeChannelPair();
  std::shared_ptr<Channel> tx_shared = std::move(tx);
  SimClock clock;
  netlogger::NetLogger log("prog", clock, "hostA", 1);
  log.OpenSink(std::make_shared<NetSink>(tx_shared, /*binary=*/true));
  ASSERT_TRUE(log.Write("Ev", {{"K", "7"}}).ok());

  auto msg = rx->Receive(kSecond);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, kBinaryEventMessageType);
  auto rec = DecodeEventMessage(*msg);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->event_name(), "Ev");
}

TEST(NetSinkTest, RejectsForeignMessageType) {
  auto rec = DecodeEventMessage({"rpc.call", "stuff"});
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetSinkTest, EndToEndOverRealTcp) {
  auto listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  auto client = TcpDial("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  auto server = (*listener)->Accept(kSecond);
  ASSERT_TRUE(server.ok());

  std::shared_ptr<Channel> tx = std::move(*client);
  SimClock clock;
  netlogger::NetLogger log("prog", clock, "hostA", 4);
  log.OpenSink(std::make_shared<NetSink>(tx));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(log.Write("Ev", {{"SEQ", std::to_string(i)}}).ok());
  }
  ASSERT_TRUE(log.Flush().ok());
  for (int i = 0; i < 8; ++i) {
    auto msg = (*server)->Receive(kSecond);
    ASSERT_TRUE(msg.ok());
    auto rec = DecodeEventMessage(*msg);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec->GetInt("SEQ"), i);
  }
}

}  // namespace
}  // namespace jamm::transport
