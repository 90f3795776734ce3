// Fuzz-style corpus tests for the rpc marshalling and call framing. An
// "rpc.call" payload arrives from any peer that can dial the server, so
// rpc::DecodeStrings must treat it as hostile. Invariants pinned below:
//   - parse-or-error: truncated, bit-flipped, spliced and forged input
//     returns a Status or a list whose strings fit inside the input, never
//     crashes, loops or throws (a forged count or length must not turn
//     into a huge reserve or read the same bytes twice);
//   - error-or-progress: every frame sent to RpcServer::PollOnce gets one
//     reply, and after each bad frame the server still answers a good call
//     on the same connection.
//
// Deterministic Rng instead of a coverage-guided fuzzer, same as
// ulm_fuzz_test: the toolchain has no libFuzzer, and a seeded corpus pins
// the same invariants reproducibly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "rpc/registry.hpp"
#include "rpc/wire.hpp"
#include "transport/inproc.hpp"

namespace jamm::rpc {
namespace {

std::string Varint(std::uint64_t v) {
  std::string out;
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
  return out;
}

std::vector<std::string> RandomParts(Rng& rng) {
  std::vector<std::string> parts(static_cast<std::size_t>(rng.Uniform(0, 5)));
  for (auto& p : parts) {
    for (int i = 0, n = static_cast<int>(rng.Uniform(0, 40)); i < n; ++i) {
      p.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
  }
  return parts;
}

/// One random mutation: truncate, flip a bit, splice in another encoding,
/// duplicate a range, or overwrite the head with a forged varint.
std::string Mutate(const std::string& bytes, const std::string& other,
                   Rng& rng) {
  std::string out = bytes;
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.Uniform(0, static_cast<std::int64_t>(size)));
  };
  switch (rng.Uniform(0, 4)) {
    case 0:
      out.resize(pick(out.size()));
      break;
    case 1:
      if (out.empty()) break;
      out[pick(out.size() - 1)] ^= static_cast<char>(1 << rng.Uniform(0, 7));
      break;
    case 2:
      out = out.substr(0, pick(out.size())) + other.substr(pick(other.size()));
      break;
    case 3: {
      const std::size_t at = pick(out.size());
      out.insert(at, out.substr(at, pick(out.size() - at)));
      break;
    }
    default: {
      static const std::uint64_t kForged[] = {
          0, 1, 0x7F, 0x80, 1u << 20, 0xFFFFFFFFull, std::uint64_t{1} << 63,
          ~std::uint64_t{0}};
      const std::uint64_t v = kForged[rng.Uniform(0, 7)];
      out.replace(0, std::min<std::size_t>(out.size(), pick(3)), Varint(v));
      break;
    }
  }
  return out;
}

/// Parse-or-error; a parse spends at least one byte on the count and one
/// on each length, so its strings are shorter than the input.
void ExpectParseOrError(const std::string& data) {
  auto decoded = DecodeStrings(data);
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
    return;
  }
  std::size_t bytes = 0;
  for (const auto& s : *decoded) bytes += s.size();
  EXPECT_LT(bytes + decoded->size(), data.size());
}

TEST(RpcFuzzTest, EveryTruncationOfAnEncodingIsAnError) {
  Rng rng(71);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string good = EncodeStrings(RandomParts(rng));
    ASSERT_TRUE(DecodeStrings(good).ok());
    for (std::size_t cut = 0; cut < good.size(); ++cut) {
      EXPECT_FALSE(DecodeStrings(good.substr(0, cut)).ok()) << cut;
    }
  }
}

TEST(RpcFuzzTest, ForgedCountsAndLengthsAreErrors) {
  const std::uint64_t forged[] = {
      3, 1u << 20, 0xFFFFFFFFull, std::uint64_t{1} << 63, ~std::uint64_t{0},
      ~std::uint64_t{0} - 9};
  for (const std::uint64_t v : forged) {
    // Count beyond the input: rejected before anything is reserved.
    EXPECT_FALSE(DecodeStrings(Varint(v) + "ab").ok()) << v;
    // One element whose length overruns the input.
    EXPECT_FALSE(DecodeStrings(Varint(1) + Varint(v) + "ab").ok()) << v;
  }
  // A length near 2^64 must not wrap the bounds check: two elements whose
  // first claims 2^64-1 bytes would otherwise re-read its own varint and
  // decode as {"x", "x"}.
  const std::string wrap = Varint(2) + Varint(~std::uint64_t{0}) + "x";
  EXPECT_FALSE(DecodeStrings(wrap).ok());
  // An over-long varint (more than ten continuation bytes) is truncation.
  EXPECT_FALSE(DecodeStrings(std::string(11, '\xff')).ok());
}

TEST(RpcFuzzTest, MutatedEncodingsParseOrError) {
  Rng rng(72);
  for (int trial = 0; trial < 5000; ++trial) {
    const std::string a = EncodeStrings(RandomParts(rng));
    const std::string b = EncodeStrings(RandomParts(rng));
    std::string data = Mutate(a, b, rng);
    if (rng.Chance(0.5)) data = Mutate(data, b, rng);
    ExpectParseOrError(data);
  }
}

class RpcServerFuzzTest : public ::testing::Test {
 protected:
  RpcServerFuzzTest() : registry_(clock_) {
    auto echo = std::make_shared<MethodTableObject>();
    echo->Register("concat", [](const std::vector<std::string>& args) {
      std::string out;
      for (const auto& a : args) out += a;
      return Result<std::string>(out);
    });
    (void)registry_.RegisterResident("echo", echo);
    auto listener = net_.Listen("rpc");
    server_ = std::make_unique<RpcServer>(registry_, std::move(*listener));
    auto channel = net_.Dial("rpc");
    channel_ = std::move(*channel);
  }

  /// Sends one frame, polls the server once, and returns its one reply.
  transport::Message RoundTrip(const transport::Message& frame) {
    EXPECT_TRUE(channel_->Send(frame).ok());
    server_->PollOnce();
    auto reply = channel_->TryReceive();
    EXPECT_TRUE(reply.has_value()) << "no reply to " << frame.type;
    EXPECT_FALSE(channel_->TryReceive().has_value()) << "two replies";
    return reply.value_or(transport::Message{});
  }

  SimClock clock_;
  Registry registry_;
  transport::InProcNetwork net_;
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<transport::Channel> channel_;
};

TEST_F(RpcServerFuzzTest, EveryBadFrameIsAnsweredAndAGoodCallStillWorks) {
  Rng rng(73);
  const std::string good = EncodeStrings({"echo", "concat", "a", "b"});
  const std::string other = EncodeStrings({"nobody", "nothing", "zz"});
  for (int trial = 0; trial < 1000; ++trial) {
    std::string payload = Mutate(good, other, rng);
    if (rng.Chance(0.5)) payload = Mutate(payload, other, rng);
    const std::string type = rng.Chance(0.1) ? "rpc.cal" : "rpc.call";
    const auto reply = RoundTrip({type, payload});
    EXPECT_TRUE(reply.type == "rpc.ok" || reply.type == "rpc.error")
        << reply.type;

    const auto answer = RoundTrip({"rpc.call", good});
    ASSERT_EQ(answer.type, "rpc.ok") << "trial " << trial;
    auto result = DecodeStrings(answer.payload);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, std::vector<std::string>{"ab"});
  }
}

}  // namespace
}  // namespace jamm::rpc
