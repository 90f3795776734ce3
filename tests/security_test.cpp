// Tests for the security layer (§7.1): simulated PKI signatures,
// certificate issuance/verification, gridmap parsing, Akenti-style
// use-conditions + the shared authorization interface, its gateway and
// directory adapters, and the SSL-sim secure channel (including the
// sensor manager's known-gateways allowlist). ISSUE 10 adds capability
// tokens, the sharded decision cache, sec.* audit accounting, expiry-edge
// regressions, a cached==uncached property sweep, and the end-to-end
// three-enforcement-point test.
#include <gtest/gtest.h>

#include "directory/schema.hpp"
#include "manager/sensor_manager.hpp"
#include "security/akenti.hpp"
#include "security/certificate.hpp"
#include "security/crypto.hpp"
#include "security/decision_cache.hpp"
#include "security/gridmap.hpp"
#include "security/token.hpp"
#include "rpc/wire.hpp"
#include "security/secure_channel.hpp"
#include "sysmon/simhost.hpp"
#include "transport/inproc.hpp"

#include <mutex>
#include <thread>

namespace jamm::security {
namespace {

// ------------------------------------------------------------------ crypto

TEST(CryptoTest, SignVerifyRoundTrip) {
  Rng rng(1);
  KeyPair pair = GenerateKeyPair(rng);
  const std::string sig = Sign(pair.private_key, "message");
  EXPECT_TRUE(Verify(pair.public_key, "message", sig));
  EXPECT_FALSE(Verify(pair.public_key, "other message", sig));
  EXPECT_FALSE(Verify(pair.public_key, "message", "forged"));
}

TEST(CryptoTest, DifferentKeysDontVerify) {
  Rng rng(2);
  KeyPair a = GenerateKeyPair(rng);
  KeyPair b = GenerateKeyPair(rng);
  const std::string sig = Sign(a.private_key, "msg");
  EXPECT_FALSE(Verify(b.public_key, "msg", sig));
  EXPECT_FALSE(Verify("pub-unknown", "msg", sig));
}

TEST(CryptoTest, DigestDeterministic) {
  EXPECT_EQ(Digest("abc"), Digest("abc"));
  EXPECT_NE(Digest("abc"), Digest("abd"));
}

// ------------------------------------------------------------- certificates

class CertTest : public ::testing::Test {
 protected:
  CertTest() : rng_(7), ca_("/O=DOEGrids/CN=CA", rng_) {}

  Rng rng_;
  CertificateAuthority ca_;
};

TEST_F(CertTest, IssuedIdentityVerifiesAgainstRoot) {
  KeyPair user = GenerateKeyPair(rng_);
  Certificate cert = ca_.IssueIdentity("/O=LBNL/CN=Brian Tierney",
                                       user.public_key, 0, 100 * kSecond);
  EXPECT_TRUE(
      VerifyCertificate(cert, {ca_.ca_certificate()}, 50 * kSecond).ok());
}

TEST_F(CertTest, ExpiredOrFutureRejected) {
  KeyPair user = GenerateKeyPair(rng_);
  Certificate cert = ca_.IssueIdentity("/CN=u", user.public_key,
                                       10 * kSecond, 20 * kSecond);
  EXPECT_FALSE(
      VerifyCertificate(cert, {ca_.ca_certificate()}, 5 * kSecond).ok());
  EXPECT_FALSE(
      VerifyCertificate(cert, {ca_.ca_certificate()}, 25 * kSecond).ok());
  EXPECT_TRUE(
      VerifyCertificate(cert, {ca_.ca_certificate()}, 15 * kSecond).ok());
}

TEST_F(CertTest, TamperedCertRejected) {
  KeyPair user = GenerateKeyPair(rng_);
  Certificate cert =
      ca_.IssueIdentity("/CN=alice", user.public_key, 0, kHour);
  cert.subject = "/CN=mallory";  // re-bind the signature to a new subject
  EXPECT_FALSE(VerifyCertificate(cert, {ca_.ca_certificate()}, 1).ok());
}

TEST_F(CertTest, UntrustedIssuerRejected) {
  Rng rng2(99);
  CertificateAuthority rogue("/O=Rogue/CN=CA", rng2);
  KeyPair user = GenerateKeyPair(rng2);
  Certificate cert = rogue.IssueIdentity("/CN=alice", user.public_key, 0,
                                         kHour);
  EXPECT_FALSE(VerifyCertificate(cert, {ca_.ca_certificate()}, 1).ok());
  EXPECT_TRUE(VerifyCertificate(cert, {rogue.ca_certificate()}, 1).ok());
}

TEST_F(CertTest, AttributeCertCarriesAssertions) {
  Certificate attr = ca_.IssueAttribute(
      "/CN=alice", {{"group", "didc"}, {"role", "admin"}}, 0, kHour);
  EXPECT_EQ(attr.kind, Certificate::Kind::kAttribute);
  EXPECT_EQ(attr.attributes.at("group"), "didc");
  EXPECT_TRUE(VerifyCertificate(attr, {ca_.ca_certificate()}, 1).ok());
}

TEST_F(CertTest, SerializationRoundTrips) {
  Certificate attr = ca_.IssueAttribute("/CN=alice", {{"group", "didc"}},
                                        5, kHour);
  auto parsed = ParseCertificate(SerializeCertificate(attr));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->subject, attr.subject);
  EXPECT_EQ(parsed->signature, attr.signature);
  EXPECT_EQ(parsed->attributes, attr.attributes);
  EXPECT_EQ(parsed->not_before, 5);
  EXPECT_TRUE(VerifyCertificate(*parsed, {ca_.ca_certificate()}, 10).ok());
  EXPECT_FALSE(ParseCertificate("junk").ok());
}

// ---------------------------------------------------------------- gridmap

TEST(GridMapTest, ParseAndMap) {
  auto map = GridMap::Parse(R"(
# grid-mapfile
"/O=LBNL/CN=Brian Tierney" tierney
"/O=ANL/CN=Ian Foster"     foster
)");
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->size(), 2u);
  EXPECT_EQ(*map->MapSubject("/O=LBNL/CN=Brian Tierney"), "tierney");
  EXPECT_FALSE(map->MapSubject("/O=Evil/CN=X").ok());
}

TEST(GridMapTest, RejectsMalformed) {
  EXPECT_FALSE(GridMap::Parse("/CN=unquoted user\n").ok());
  EXPECT_FALSE(GridMap::Parse("\"/CN=noclose user\n").ok());
  EXPECT_FALSE(GridMap::Parse("\"/CN=nouser\"\n").ok());
}

// ----------------------------------------------------------------- policy

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest()
      : rng_(13),
        ca_("/O=Grid/CN=CA", rng_),
        clock_(kSecond),
        authorizer_(policy_, {ca_.ca_certificate()}, clock_) {
    // Resource "gw.lbl": anyone at LBNL may query; subscribing needs the
    // didc group attribute; publishing reserved for the admin DN.
    policy_.AddUseCondition("gw.lbl",
                            {{action::kQuery}, "/O=LBNL/*", "", ""});
    policy_.AddUseCondition(
        "gw.lbl", {{action::kSubscribe}, "", "group", "didc"});
    policy_.AddUseCondition(
        "gw.lbl", {{action::kPublish, action::kStartSensor},
                   "/O=LBNL/CN=admin", "", ""});
  }

  Certificate Identity(const std::string& subject) {
    KeyPair keys = GenerateKeyPair(rng_);
    return ca_.IssueIdentity(subject, keys.public_key, 0, kHour);
  }

  Rng rng_;
  CertificateAuthority ca_;
  SimClock clock_;
  PolicyEngine policy_;
  Authorizer authorizer_;
};

TEST_F(PolicyTest, SubjectGlobGrants) {
  Certificate alice = Identity("/O=LBNL/CN=alice");
  auto actions = policy_.AllowedActions("gw.lbl", alice, {});
  EXPECT_TRUE(actions.count(action::kQuery));
  EXPECT_FALSE(actions.count(action::kSubscribe));
  EXPECT_FALSE(actions.count(action::kPublish));
}

TEST_F(PolicyTest, AttributeCertGrants) {
  Certificate bob = Identity("/O=ANL/CN=bob");
  EXPECT_TRUE(policy_.AllowedActions("gw.lbl", bob, {}).empty());
  Certificate attr =
      ca_.IssueAttribute("/O=ANL/CN=bob", {{"group", "didc"}}, 0, kHour);
  auto actions = policy_.AllowedActions("gw.lbl", bob, {attr});
  EXPECT_TRUE(actions.count(action::kSubscribe));
  // An attribute cert about someone else does not help.
  Certificate other =
      ca_.IssueAttribute("/O=ANL/CN=carol", {{"group", "didc"}}, 0, kHour);
  EXPECT_TRUE(policy_.AllowedActions("gw.lbl", bob, {other}).empty());
}

TEST_F(PolicyTest, AuthorizerEndToEnd) {
  Certificate admin = Identity("/O=LBNL/CN=admin");
  auto principal = authorizer_.Authenticate(admin);
  ASSERT_TRUE(principal.ok());
  EXPECT_TRUE(authorizer_.Check("gw.lbl", action::kPublish, *principal));
  EXPECT_TRUE(authorizer_.Check("gw.lbl", action::kQuery, *principal));
  EXPECT_FALSE(authorizer_.Check("gw.lbl", action::kSubscribe, *principal));
  // Unauthenticated principals get nothing.
  EXPECT_FALSE(authorizer_.Check("gw.lbl", action::kQuery, "/CN=ghost"));
}

TEST_F(PolicyTest, AuthenticateRejectsBadCerts) {
  Rng rng2(55);
  CertificateAuthority rogue("/O=Rogue/CN=CA", rng2);
  KeyPair keys = GenerateKeyPair(rng2);
  Certificate fake = rogue.IssueIdentity("/CN=spy", keys.public_key, 0,
                                         kHour);
  EXPECT_FALSE(authorizer_.Authenticate(fake).ok());
  // Expired identity.
  KeyPair keys2 = GenerateKeyPair(rng_);
  Certificate expired =
      ca_.IssueIdentity("/CN=old", keys2.public_key, 0, kMillisecond);
  EXPECT_FALSE(authorizer_.Authenticate(expired).ok());
}

TEST_F(PolicyTest, GatewayAdapterEnforces) {
  Certificate alice = Identity("/O=LBNL/CN=alice");
  auto principal = authorizer_.Authenticate(alice);
  ASSERT_TRUE(principal.ok());

  gateway::EventGateway gw("gw.lbl", clock_);
  gw.SetAccessChecker(authorizer_.GatewayChecker("gw.lbl"));
  gw.Publish(ulm::Record(1, "h", "p", "Usage", "E"));
  EXPECT_TRUE(gw.Query("", *principal).ok());           // query allowed
  EXPECT_FALSE(gw.Subscribe("c", {}, [](const ulm::Record&) {},
                            *principal)
                   .ok());                              // subscribe denied
  EXPECT_FALSE(gw.Query("", "anonymous-subject").ok()); // strangers denied
}

TEST_F(PolicyTest, DirectoryAdapterEnforces) {
  Certificate admin = Identity("/O=LBNL/CN=admin");
  Certificate alice = Identity("/O=LBNL/CN=alice");
  auto admin_p = authorizer_.Authenticate(admin);
  auto alice_p = authorizer_.Authenticate(alice);
  ASSERT_TRUE(admin_p.ok());
  ASSERT_TRUE(alice_p.ok());
  // Directory guarded by the same resource policy: publish = write.
  policy_.AddUseCondition("gw.lbl", {{action::kLookup}, "/O=LBNL/*", "", ""});

  auto suffix = *directory::Dn::Parse("ou=sensors, o=jamm");
  directory::DirectoryServer dir(suffix, "ldap://x");
  dir.SetAccessChecker(authorizer_.DirectoryChecker("gw.lbl"));

  auto entry = directory::schema::MakeHostEntry(suffix, "h1");
  EXPECT_FALSE(dir.Add(entry, *alice_p).ok());  // alice cannot publish
  EXPECT_TRUE(dir.Add(entry, *admin_p).ok());   // admin can
  EXPECT_TRUE(dir.Lookup(entry.dn(), *alice_p).ok());  // both can look up
}

TEST_F(PolicyTest, GridMapIntegration) {
  GridMap map;
  map.Add("/O=LBNL/CN=alice", "alice");
  authorizer_.SetGridMap(std::move(map));
  Certificate alice = Identity("/O=LBNL/CN=alice");
  auto principal = authorizer_.Authenticate(alice);
  ASSERT_TRUE(principal.ok());
  auto local = authorizer_.LocalUser(*principal);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(*local, "alice");
  EXPECT_FALSE(authorizer_.LocalUser("/CN=unmapped").ok());
}

// ---------------------------------------------------------- secure channel

class SecureChannelTest : public ::testing::Test {
 protected:
  SecureChannelTest() : rng_(21), ca_("/O=Grid/CN=CA", rng_) {}

  SecureChannelOptions MakeOptions(const std::string& subject) {
    KeyPair keys = GenerateKeyPair(rng_);
    SecureChannelOptions options;
    options.local_cert = ca_.IssueIdentity(subject, keys.public_key, 0,
                                           1ll << 60);
    options.local_private_key = keys.private_key;
    options.trusted_roots = {ca_.ca_certificate()};
    return options;
  }

  Rng rng_;
  CertificateAuthority ca_;
};

/// Both Handshake() calls block on the peer's hello, so one side runs on
/// a helper thread (as distinct processes would in a real deployment).
std::pair<Status, Status> DoHandshake(SecureChannel& a, SecureChannel& b) {
  Status b_status;
  std::thread peer([&] { b_status = b.Handshake(); });
  Status a_status = a.Handshake();
  peer.join();
  return {a_status, b_status};
}

TEST_F(SecureChannelTest, HandshakeAndAuthenticatedTraffic) {
  auto [a_raw, b_raw] = transport::MakeChannelPair();
  SecureChannel a(std::move(a_raw), MakeOptions("/CN=consumer"));
  SecureChannel b(std::move(b_raw), MakeOptions("/CN=gateway"));
  auto [sa, sb] = DoHandshake(a, b);
  ASSERT_TRUE(sa.ok()) << sa.ToString();
  ASSERT_TRUE(sb.ok()) << sb.ToString();
  EXPECT_EQ(a.peer_subject(), "/CN=gateway");
  EXPECT_EQ(b.peer_subject(), "/CN=consumer");

  ASSERT_TRUE(a.Send({"event", "payload"}).ok());
  auto msg = b.Receive(kSecond);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->type, "event");
  EXPECT_EQ(msg->payload, "payload");
}

TEST_F(SecureChannelTest, UntrustedPeerRejected) {
  Rng rng2(77);
  CertificateAuthority rogue("/O=Rogue/CN=CA", rng2);
  KeyPair keys = GenerateKeyPair(rng2);
  SecureChannelOptions bad;
  bad.local_cert = rogue.IssueIdentity("/CN=spy", keys.public_key, 0,
                                       1ll << 60);
  bad.local_private_key = keys.private_key;
  bad.trusted_roots = {rogue.ca_certificate(), ca_.ca_certificate()};

  auto [a_raw, b_raw] = transport::MakeChannelPair();
  SecureChannel good(std::move(a_raw), MakeOptions("/CN=gateway"));
  SecureChannel spy(std::move(b_raw), std::move(bad));
  auto [good_status, spy_status] = DoHandshake(good, spy);
  (void)spy_status;  // the spy may well accept our legitimate cert
  ASSERT_FALSE(good_status.ok());
  EXPECT_EQ(good_status.code(), StatusCode::kPermissionDenied);
}

TEST_F(SecureChannelTest, AllowlistRestrictsPeers) {
  // §7.1: the sensor manager accepts only its known gateway agents.
  auto manager_options = MakeOptions("/CN=sensor-manager");
  manager_options.allowed_peers = {"/CN=gateway-1", "/CN=gateway-2"};

  {
    auto [a_raw, b_raw] = transport::MakeChannelPair();
    SecureChannel manager(std::move(a_raw), manager_options);
    SecureChannel gw(std::move(b_raw), MakeOptions("/CN=gateway-1"));
    auto [m_status, g_status] = DoHandshake(manager, gw);
    EXPECT_TRUE(m_status.ok()) << m_status.ToString();
    EXPECT_TRUE(g_status.ok()) << g_status.ToString();
  }
  {
    auto [a_raw, b_raw] = transport::MakeChannelPair();
    SecureChannel manager(std::move(a_raw), manager_options);
    SecureChannel intruder(std::move(b_raw), MakeOptions("/CN=malory"));
    auto [m_status, i_status] = DoHandshake(manager, intruder);
    (void)i_status;
    ASSERT_FALSE(m_status.ok());
    EXPECT_EQ(m_status.code(), StatusCode::kPermissionDenied);
  }
}

TEST_F(SecureChannelTest, TrafficBeforeHandshakeBuffersThenFlushes) {
  // Split-phase handshake (ISSUE 10): Sends before the peer's hello
  // arrives buffer plaintext-free and flush SEALED once it completes —
  // single-threaded poll loops cannot block in a two-sided Handshake().
  auto [a_raw, b_raw] = transport::MakeChannelPair();
  SecureChannel a(std::move(a_raw), MakeOptions("/CN=x"));
  EXPECT_TRUE(a.Send({"event", "early"}).ok());  // buffered, not on the wire
  // No peer hello yet: receive times out, but the channel is NOT failed.
  EXPECT_FALSE(a.Receive(kMillisecond).ok());
  EXPECT_TRUE(a.IsOpen());

  // The peer comes up; the buffered send must arrive sealed.
  SecureChannel b(std::move(b_raw), MakeOptions("/CN=y"));
  ASSERT_TRUE(b.StartHandshake().ok());
  ASSERT_TRUE(a.Send({"event", "late"}).ok());  // drives completion + flush
  auto early = b.Receive(kSecond);
  ASSERT_TRUE(early.ok()) << early.status().ToString();
  EXPECT_EQ(early->payload, "early");
  auto late = b.Receive(kSecond);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->payload, "late");
}

TEST_F(SecureChannelTest, BufferedSendsBounded) {
  auto [a_raw, b_raw] = transport::MakeChannelPair();
  SecureChannel a(std::move(a_raw), MakeOptions("/CN=x"));
  for (std::size_t i = 0; i < SecureChannel::kMaxBufferedSends; ++i) {
    ASSERT_TRUE(a.Send({"event", std::to_string(i)}).ok());
  }
  Status overflow = a.Send({"event", "overflow"});
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.code(), StatusCode::kUnavailable);
  (void)b_raw;
}

TEST_F(SecureChannelTest, TamperedFramesRejected) {
  auto [a_raw, b_raw] = transport::MakeChannelPair();
  // Keep a raw handle on b's side to inject forged frames.
  transport::Channel* b_injector = b_raw.get();
  SecureChannel a(std::move(a_raw), MakeOptions("/CN=a"));
  SecureChannel b_side(std::move(b_raw), MakeOptions("/CN=b"));
  auto [sa, sb] = DoHandshake(a, b_side);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());

  // Forge a tls.msg with a wrong MAC.
  ASSERT_TRUE(b_injector
                  ->Send({"tls.msg",
                          rpc::EncodeStrings({"event", "evil", "badmac"})})
                  .ok());
  auto msg = a.Receive(50 * kMillisecond);
  ASSERT_FALSE(msg.ok());
  EXPECT_EQ(msg.status().code(), StatusCode::kPermissionDenied);

  // Plaintext injection is refused too.
  ASSERT_TRUE(b_injector->Send({"event", "plaintext"}).ok());
  msg = a.Receive(50 * kMillisecond);
  ASSERT_FALSE(msg.ok());
}

// ------------------------------------------------------- capability tokens

class TokenTest : public ::testing::Test {
 protected:
  TokenTest() : rng_(31), authority_("gw.lbl-authority", rng_) {}

  CapabilityToken Mint(TimePoint nb, TimePoint na) {
    return authority_.Mint("/O=LBNL/CN=alice", "gw.lbl",
                           {"query", "subscribe"}, nb, na, 7);
  }

  Rng rng_;
  TokenAuthority authority_;
};

TEST_F(TokenTest, MintVerifyEncodeRoundTrip) {
  CapabilityToken token = Mint(10 * kSecond, 40 * kSecond);
  EXPECT_TRUE(authority_.Verify(token, 20 * kSecond).ok());
  EXPECT_TRUE(token.HasAction("query"));
  EXPECT_TRUE(token.HasAction("subscribe"));
  EXPECT_FALSE(token.HasAction("publish"));

  auto decoded = DecodeToken(EncodeToken(token));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->principal, token.principal);
  EXPECT_EQ(decoded->resource, token.resource);
  EXPECT_EQ(decoded->actions, token.actions);
  EXPECT_EQ(decoded->not_before, token.not_before);
  EXPECT_EQ(decoded->not_after, token.not_after);
  EXPECT_EQ(decoded->generation, 7u);
  EXPECT_EQ(decoded->issuer, "gw.lbl-authority");
  EXPECT_TRUE(authority_.Verify(*decoded, 20 * kSecond).ok());
}

TEST_F(TokenTest, InclusiveWindowEdges) {
  // Satellite regression (ISSUE 10): a token presented exactly at
  // not_after must be accepted; one tick later it must not.
  CapabilityToken token = Mint(10 * kSecond, 40 * kSecond);
  EXPECT_FALSE(authority_.Verify(token, 10 * kSecond - 1).ok());
  EXPECT_TRUE(authority_.Verify(token, 10 * kSecond).ok());
  EXPECT_TRUE(authority_.Verify(token, 40 * kSecond).ok());
  EXPECT_FALSE(authority_.Verify(token, 40 * kSecond + 1).ok());
}

TEST_F(TokenTest, TamperedFieldsRejected) {
  const CapabilityToken token = Mint(0, kHour);
  const TimePoint now = kSecond;
  ASSERT_TRUE(authority_.Verify(token, now).ok());

  CapabilityToken t = token;
  t.principal = "/O=Evil/CN=mallory";
  EXPECT_FALSE(authority_.Verify(t, now).ok());
  t = token;
  t.resource = "gw.other";
  EXPECT_FALSE(authority_.Verify(t, now).ok());
  t = token;
  t.actions.push_back("start-sensor");
  std::sort(t.actions.begin(), t.actions.end());
  EXPECT_FALSE(authority_.Verify(t, now).ok());
  t = token;
  t.not_after = kHour * 1000;  // extend the lease
  EXPECT_FALSE(authority_.Verify(t, now).ok());
  t = token;
  t.signature = "forged";
  EXPECT_FALSE(authority_.Verify(t, now).ok());
  t = token;
  t.issuer = "someone-else";
  EXPECT_FALSE(authority_.Verify(t, now).ok());
}

TEST_F(TokenTest, DecodeRejectsUnsortedActions) {
  // The sorted action list is canonical: HasAction binary-searches, so a
  // decoder that re-sorted a tampered list would silently canonicalize
  // forgeries. Reject instead.
  CapabilityToken token = Mint(0, kHour);
  token.actions = {"subscribe", "query"};  // unsorted on the wire
  EXPECT_FALSE(DecodeToken(EncodeToken(token)).ok());
  EXPECT_FALSE(DecodeToken("junk").ok());
  EXPECT_FALSE(DecodeToken("").ok());
}

TEST_F(TokenTest, WrongAuthorityRejected) {
  Rng rng2(77);
  TokenAuthority other("gw.lbl-authority", rng2);  // same name, other keys
  CapabilityToken token = Mint(0, kHour);
  EXPECT_FALSE(other.Verify(token, kSecond).ok());
  EXPECT_FALSE(VerifyToken(token, other.public_key(), kSecond).ok());
  EXPECT_TRUE(VerifyToken(token, authority_.public_key(), kSecond).ok());
}

// ---------------------------------------------------------- decision cache

TEST(DecisionCacheTest, HitMissAndGenerationBump) {
  DecisionCache cache;
  EXPECT_FALSE(cache.Lookup("p", "r", "a").has_value());
  cache.Insert("p", "r", "a", true);
  cache.Insert("p", "r", "b", false);
  ASSERT_TRUE(cache.Lookup("p", "r", "a").has_value());
  EXPECT_TRUE(*cache.Lookup("p", "r", "a"));
  EXPECT_FALSE(*cache.Lookup("p", "r", "b"));
  // The \x1f-joined key must not confuse adjacent components.
  EXPECT_FALSE(cache.Lookup("p", "ra", "").has_value());

  cache.BumpGeneration();
  EXPECT_FALSE(cache.Lookup("p", "r", "a").has_value());  // stale, evicted
  auto stats = cache.stats();
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_GE(stats.stale_evicted, 1u);
  EXPECT_GE(stats.hits, 3u);
  EXPECT_GE(stats.misses, 2u);

  // Entries inserted after the bump are valid under the new generation.
  cache.Insert("p", "r", "a", false);
  ASSERT_TRUE(cache.Lookup("p", "r", "a").has_value());
  EXPECT_FALSE(*cache.Lookup("p", "r", "a"));
}

TEST(DecisionCacheTest, ExplicitGenerationStampsPreReloadVerdicts) {
  // TOCTOU regression: a verdict evaluated against the pre-reload policy
  // but inserted AFTER the reload's generation bump must carry the
  // pre-reload stamp the evaluator captured, so the next lookup discards
  // it instead of honoring a revoked grant until the following reload.
  DecisionCache cache;
  const std::uint64_t before = cache.generation();
  cache.BumpGeneration();  // the policy reload that raced the evaluation
  cache.Insert("p", "r", "a", true, before);
  EXPECT_FALSE(cache.Lookup("p", "r", "a").has_value());
  // Re-evaluated under the new policy, the verdict caches normally.
  cache.Insert("p", "r", "a", true, cache.generation());
  ASSERT_TRUE(cache.Lookup("p", "r", "a").has_value());
  EXPECT_TRUE(*cache.Lookup("p", "r", "a"));
}

TEST(DecisionCacheTest, CapacitySweepClears) {
  DecisionCache::Options options;
  options.shards = 1;
  options.capacity_per_shard = 8;
  DecisionCache cache(options);
  for (int i = 0; i < 64; ++i) {
    cache.Insert(std::string("p").append(std::to_string(i)), "r", "a", true);
  }
  auto stats = cache.stats();
  EXPECT_GE(stats.capacity_sweeps, 1u);
  EXPECT_EQ(stats.insertions, 64u);
  // Re-inserting an existing key at capacity does not sweep.
  cache.Insert("p63", "r", "a", true);
  EXPECT_EQ(cache.stats().capacity_sweeps, stats.capacity_sweeps);
}

// ------------------------------------------------- fast-path authorization

/// PolicyTest's world plus ISSUE 10 machinery: token authority, decision
/// cache, and a collecting audit sink.
class FastPathTest : public ::testing::Test {
 protected:
  FastPathTest()
      : rng_(13),
        ca_("/O=Grid/CN=CA", rng_),
        clock_(kSecond),
        authorizer_(policy_, {ca_.ca_certificate()}, clock_) {
    policy_.AddUseCondition("gw.lbl",
                            {{action::kQuery}, "/O=LBNL/*", "", ""});
    policy_.AddUseCondition(
        "gw.lbl", {{action::kSubscribe}, "", "group", "didc"});
    policy_.AddUseCondition(
        "gw.lbl", {{action::kPublish, action::kStartSensor},
                   "/O=LBNL/CN=admin", "", ""});
    Rng authority_rng(91);
    authorizer_.EnableTokens(TokenAuthority("gw.lbl", authority_rng));
    authorizer_.EnableDecisionCache();
    authorizer_.SetAuditSink([this](const ulm::Record& rec) {
      std::lock_guard<std::mutex> lock(audit_mu_);
      audits_.push_back(rec);
    });
  }

  Certificate Identity(const std::string& subject) {
    KeyPair keys = GenerateKeyPair(rng_);
    return ca_.IssueIdentity(subject, keys.public_key, 0, kHour);
  }

  std::size_t AuditCount(std::string_view event) {
    std::lock_guard<std::mutex> lock(audit_mu_);
    std::size_t n = 0;
    for (const auto& rec : audits_) {
      if (rec.event_name() == event) ++n;
    }
    return n;
  }

  Rng rng_;
  CertificateAuthority ca_;
  SimClock clock_;
  PolicyEngine policy_;
  Authorizer authorizer_;
  std::mutex audit_mu_;
  std::vector<ulm::Record> audits_;
};

TEST_F(FastPathTest, MintRequiresSessionAndGrantedActions) {
  // No session: denied and audited.
  EXPECT_FALSE(authorizer_.MintToken("gw.lbl", "/CN=ghost", kSecond).ok());
  EXPECT_EQ(AuditCount(audit::kDeny), 1u);

  auto alice = authorizer_.Authenticate(Identity("/O=LBNL/CN=alice"));
  ASSERT_TRUE(alice.ok());
  // No actions on an unknown resource: denied.
  EXPECT_FALSE(authorizer_.MintToken("gw.unknown", *alice, kSecond).ok());
  EXPECT_EQ(AuditCount(audit::kDeny), 2u);

  auto token = authorizer_.MintToken("gw.lbl", *alice, 30 * kSecond);
  ASSERT_TRUE(token.ok());
  EXPECT_EQ(token->principal, *alice);
  EXPECT_TRUE(token->HasAction(action::kQuery));
  EXPECT_FALSE(token->HasAction(action::kSubscribe));
  EXPECT_EQ(token->not_before, clock_.Now());
  EXPECT_EQ(token->not_after, clock_.Now() + 30 * kSecond);
  EXPECT_EQ(AuditCount(audit::kTokenMint), 1u);
}

TEST_F(FastPathTest, TokenSessionAnswersUntilExactExpiry) {
  auto alice = authorizer_.Authenticate(Identity("/O=LBNL/CN=alice"));
  ASSERT_TRUE(alice.ok());
  auto token = authorizer_.MintToken("gw.lbl", *alice, 10 * kSecond);
  ASSERT_TRUE(token.ok());

  // A remote verifier shares the authority's key pair (same seed) but has
  // no certificate session for alice — every verdict comes from the token.
  PolicyEngine empty_policy;
  Authorizer verifier(empty_policy, {ca_.ca_certificate()}, clock_);
  Rng authority_rng(91);
  verifier.EnableTokens(TokenAuthority("gw.lbl", authority_rng));
  ASSERT_TRUE(verifier.AdoptToken(*token).ok());

  EXPECT_TRUE(verifier.Check("gw.lbl", action::kQuery, *alice));
  EXPECT_FALSE(verifier.Check("gw.lbl", action::kSubscribe, *alice));

  // Exactly at not_after the token is still good (inclusive window)...
  clock_.Set(token->not_after);
  EXPECT_TRUE(verifier.Check("gw.lbl", action::kQuery, *alice));
  // ...one tick past it the session lazily expires and nothing backs the
  // principal any more.
  clock_.Set(token->not_after + 1);
  EXPECT_FALSE(verifier.Check("gw.lbl", action::kQuery, *alice));
  // Adopting the expired token is refused too.
  EXPECT_FALSE(verifier.AdoptToken(*token).ok());
}

TEST_F(FastPathTest, TokensOutlivePolicyReloadNewVerdictsDoNot) {
  auto alice = authorizer_.Authenticate(Identity("/O=LBNL/CN=alice"));
  ASSERT_TRUE(alice.ok());
  auto token = authorizer_.MintToken("gw.lbl", *alice, 30 * kSecond);
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(authorizer_.AdoptToken(*token).ok());

  // Cache a policy verdict: alice cannot subscribe.
  EXPECT_FALSE(authorizer_.Check("gw.lbl2", action::kSubscribe, *alice));

  // Stakeholders grant subscribe on gw.lbl2 — visible only after reload.
  policy_.AddUseCondition("gw.lbl2",
                          {{action::kSubscribe}, "/O=LBNL/*", "", ""});
  EXPECT_FALSE(authorizer_.Check("gw.lbl2", action::kSubscribe, *alice))
      << "cached verdict must hold until the policy reload is announced";
  authorizer_.PolicyReloaded();
  EXPECT_TRUE(authorizer_.Check("gw.lbl2", action::kSubscribe, *alice));
  EXPECT_EQ(AuditCount(audit::kPolicyReload), 1u);

  // The live token is deliberately NOT revoked by the reload: bearer
  // semantics, revocation = wait out the TTL.
  EXPECT_TRUE(authorizer_.Check("gw.lbl", action::kQuery, *alice));
  clock_.Advance(31 * kSecond);
  // Past expiry the token session dies; the cert session still answers.
  EXPECT_TRUE(authorizer_.Check("gw.lbl", action::kQuery, *alice));
  EXPECT_EQ(AuditCount(audit::kTokenExpired), 1u);
}

TEST_F(FastPathTest, ClockSkewedVerifierRegression) {
  auto alice = authorizer_.Authenticate(Identity("/O=LBNL/CN=alice"));
  ASSERT_TRUE(alice.ok());
  auto token = authorizer_.MintToken("gw.lbl", *alice, 10 * kSecond);
  ASSERT_TRUE(token.ok());

  PolicyEngine empty_policy;
  // A verifier whose clock runs BEHIND the minting authority sees a token
  // from the future and must refuse it until its own clock catches up.
  SimClock skewed_back(clock_.Now() - 5 * kSecond);
  Authorizer behind(empty_policy, {ca_.ca_certificate()}, skewed_back);
  Rng r1(91);
  behind.EnableTokens(TokenAuthority("gw.lbl", r1));
  EXPECT_FALSE(behind.AdoptToken(*token).ok());
  skewed_back.Set(token->not_before);
  EXPECT_TRUE(behind.AdoptToken(*token).ok());

  // A verifier AHEAD past not_after refuses it as expired.
  SimClock skewed_fwd(token->not_after + kSecond);
  Authorizer ahead(empty_policy, {ca_.ca_certificate()}, skewed_fwd);
  Rng r2(91);
  ahead.EnableTokens(TokenAuthority("gw.lbl", r2));
  EXPECT_FALSE(ahead.AdoptToken(*token).ok());
}

TEST_F(FastPathTest, CachedEqualsUncachedRandomSweep) {
  // Property (ISSUE 10): the decision cache is an invisible optimization —
  // over any interleaving of checks and policy changes (with reloads
  // announced), a cached authorizer and an uncached one sharing the same
  // policy must agree on every verdict.
  Authorizer uncached(policy_, {ca_.ca_certificate()}, clock_);

  const std::vector<std::string> subjects = {
      "/O=LBNL/CN=alice", "/O=LBNL/CN=admin", "/O=ANL/CN=bob",
      "/O=Evil/CN=mallory"};
  std::vector<std::string> principals;
  for (const auto& subject : subjects) {
    KeyPair keys = GenerateKeyPair(rng_);
    Certificate cert = ca_.IssueIdentity(subject, keys.public_key, 0, kHour);
    std::vector<Certificate> attrs;
    if (subject == "/O=ANL/CN=bob") {
      attrs.push_back(
          ca_.IssueAttribute(subject, {{"group", "didc"}}, 0, kHour));
    }
    ASSERT_TRUE(authorizer_.Authenticate(cert, attrs).ok());
    ASSERT_TRUE(uncached.Authenticate(cert, attrs).ok());
    principals.push_back(subject);
  }
  principals.push_back("/CN=never-authenticated");

  const std::vector<std::string> resources = {"gw.lbl", "gw.other"};
  const std::vector<std::string> actions = {
      action::kQuery, action::kSubscribe, action::kPublish,
      action::kStartSensor, action::kLookup};

  Rng sweep(2026);
  for (int i = 0; i < 600; ++i) {
    if (i == 200) {
      // Stakeholder edit mid-sweep: both sides see the new policy, the
      // cached side must invalidate via the announced reload.
      policy_.AddUseCondition("gw.other",
                              {{action::kLookup}, "/O=LBNL/*", "", ""});
      authorizer_.PolicyReloaded();
    }
    const auto& p = principals[sweep.Uniform(0, principals.size() - 1)];
    const auto& r = resources[sweep.Uniform(0, resources.size() - 1)];
    const auto& a = actions[sweep.Uniform(0, actions.size() - 1)];
    EXPECT_EQ(authorizer_.Check(r, a, p), uncached.Check(r, a, p))
        << p << " / " << r << " / " << a << " at i=" << i;
  }
  ASSERT_NE(authorizer_.decision_cache(), nullptr);
  EXPECT_GT(authorizer_.decision_cache()->stats().hits, 0u);
}

TEST_F(FastPathTest, AuditAccountingExact) {
  auto alice = authorizer_.Authenticate(Identity("/O=LBNL/CN=alice"));
  ASSERT_TRUE(alice.ok());

  EXPECT_TRUE(authorizer_.Check("gw.lbl", action::kQuery, *alice));   // grant
  EXPECT_TRUE(authorizer_.Check("gw.lbl", action::kQuery, *alice));   // cache hit: NO audit
  EXPECT_FALSE(authorizer_.Check("gw.lbl", action::kSubscribe, *alice));  // deny
  auto token = authorizer_.MintToken("gw.lbl", *alice, 10 * kSecond);  // mint
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(authorizer_.AdoptToken(*token).ok());                   // grant
  authorizer_.PolicyReloaded();                                       // reload
  clock_.Advance(11 * kSecond);
  // Token session expired (audited) + falls through to the cert session,
  // which still grants query (audited: the reload emptied the cache).
  EXPECT_TRUE(authorizer_.Check("gw.lbl", action::kQuery, *alice));

  EXPECT_EQ(AuditCount(audit::kGrant), 3u);
  EXPECT_EQ(AuditCount(audit::kDeny), 1u);
  EXPECT_EQ(AuditCount(audit::kTokenMint), 1u);
  EXPECT_EQ(AuditCount(audit::kTokenExpired), 1u);
  EXPECT_EQ(AuditCount(audit::kPolicyReload), 1u);
  // Audit records carry the principal and ride the ULM pipeline.
  std::lock_guard<std::mutex> lock(audit_mu_);
  for (const auto& rec : audits_) {
    EXPECT_EQ(rec.prog(), "security");
    if (rec.event_name() == audit::kPolicyReload) continue;  // no principal
    EXPECT_EQ(*rec.GetField("PRINCIPAL"), *alice);
  }
}

TEST_F(FastPathTest, AuthenticatorRefusesForeignTokensAndBareNames) {
  auto alice = authorizer_.Authenticate(Identity("/O=LBNL/CN=alice"));
  ASSERT_TRUE(alice.ok());
  // The policy also grants alice on a second resource this gateway does
  // NOT front.
  authorizer_.PolicyReloaded([](PolicyEngine& p) {
    p.AddUseCondition("gw.other", {{action::kQuery}, "/O=LBNL/*", "", ""});
  });
  auto authenticator = authorizer_.GatewayAuthenticator("gw.lbl");

  // A token minted for gw.other is signature-valid but scoped elsewhere:
  // it must not establish an identity on gw.lbl's connection.
  auto foreign = authorizer_.MintToken("gw.other", *alice, 30 * kSecond);
  ASSERT_TRUE(foreign.ok());
  auto refused = authenticator(MakeTokenAuthPayload(*foreign), "peer");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kPermissionDenied);

  // The same principal's token for THIS resource is accepted.
  auto scoped = authorizer_.MintToken("gw.lbl", *alice, 30 * kSecond);
  ASSERT_TRUE(scoped.ok());
  auto accepted = authenticator(MakeTokenAuthPayload(*scoped), "peer");
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted->principal, *alice);

  // A bare principal line is refused even though alice holds a live
  // session: DNs are public, a name alone proves nothing.
  auto bare = authenticator(*alice, "peer");
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(FastPathTest, ConcurrentChurn) {
  // TSan food: checks racing re-authentication, policy reloads, token
  // mint/adopt, and cache generation bumps. Correctness here is "no data
  // race, no deadlock"; verdict equivalence is the property test above.
  Certificate alice_cert = Identity("/O=LBNL/CN=alice");
  Certificate admin_cert = Identity("/O=LBNL/CN=admin");
  ASSERT_TRUE(authorizer_.Authenticate(alice_cert).ok());
  ASSERT_TRUE(authorizer_.Authenticate(admin_cert).ok());

  std::vector<std::thread> checkers;
  for (int t = 0; t < 4; ++t) {
    checkers.emplace_back([this, t] {
      const std::string principal =
          (t % 2 == 0) ? "/O=LBNL/CN=alice" : "/O=LBNL/CN=admin";
      for (int i = 0; i < 500; ++i) {
        authorizer_.Check("gw.lbl", action::kQuery, principal);
        authorizer_.Check("gw.lbl", action::kPublish, principal);
        authorizer_.AllowedActions("gw.lbl", principal);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    authorizer_.PolicyReloaded();
    ASSERT_TRUE(authorizer_.Authenticate(alice_cert).ok());  // re-auth bump
    auto token =
        authorizer_.MintToken("gw.lbl", "/O=LBNL/CN=admin", 10 * kSecond);
    ASSERT_TRUE(token.ok());
    ASSERT_TRUE(authorizer_.AdoptToken(*token).ok());
  }
  for (auto& thread : checkers) thread.join();
  EXPECT_GE(AuditCount(audit::kPolicyReload), 50u);
}

// ------------------------------------------- end-to-end enforcement points

/// ISSUE 10 acceptance: authorization enforced at the directory, at
/// gateway subscription (via the gw.auth handshake), and at sensor start
/// (manager-side hook), plus the manager's known-peer allowlist — with an
/// authorized consumer's sensor→gateway→client flow unchanged.
TEST(SecurityEndToEnd, ThreePointEnforcementAndManagerAllowlist) {
  SimClock clock(kSecond);
  Rng rng(101);
  CertificateAuthority ca("/O=Grid/CN=CA", rng);

  PolicyEngine policy;
  policy.AddUseCondition(
      "gw.host", {{action::kSubscribe, action::kQuery, action::kLookup},
                  "/O=LBNL/*", "", ""});
  policy.AddUseCondition(
      "gw.host", {{action::kStartSensor, action::kPublish},
                  "/O=LBNL/CN=admin", "", ""});
  Authorizer authorizer(policy, {ca.ca_certificate()}, clock);
  Rng authority_rng(55);
  authorizer.EnableTokens(TokenAuthority("gw.host", authority_rng));
  authorizer.EnableDecisionCache();

  KeyPair alice_keys = GenerateKeyPair(rng);
  Certificate alice_cert =
      ca.IssueIdentity("/O=LBNL/CN=alice", alice_keys.public_key, 0, kHour);
  KeyPair admin_keys = GenerateKeyPair(rng);
  Certificate admin_cert =
      ca.IssueIdentity("/O=LBNL/CN=admin", admin_keys.public_key, 0, kHour);
  KeyPair evil_keys = GenerateKeyPair(rng);
  // Mallory's certificate is perfectly valid — the CA vouches for the
  // NAME, the policy decides what the name may do.
  Certificate evil_cert =
      ca.IssueIdentity("/O=Evil/CN=mallory", evil_keys.public_key, 0, kHour);

  auto admin = authorizer.Authenticate(admin_cert);
  ASSERT_TRUE(admin.ok());
  auto alice = authorizer.Authenticate(alice_cert);
  ASSERT_TRUE(alice.ok());
  auto mallory = authorizer.Authenticate(evil_cert);
  ASSERT_TRUE(mallory.ok());

  // --- Enforcement point 1: directory lookup/search --------------------
  auto suffix = *directory::Dn::Parse("ou=sensors, o=jamm");
  directory::DirectoryServer dir(suffix, "ldap://dir");
  dir.SetAccessChecker(authorizer.DirectoryChecker("gw.host"));
  auto entry = directory::schema::MakeHostEntry(suffix, "h1");
  ASSERT_TRUE(dir.Add(entry, *admin).ok());
  EXPECT_TRUE(dir.Lookup(entry.dn(), *alice).ok());
  auto denied_lookup = dir.Lookup(entry.dn(), *mallory);
  ASSERT_FALSE(denied_lookup.ok());
  EXPECT_EQ(denied_lookup.status().code(), StatusCode::kPermissionDenied);
  EXPECT_FALSE(dir.Lookup(entry.dn(), "").ok());  // anonymous denied

  // --- Enforcement point 2: gateway subscription via gw.auth -----------
  transport::InProcNetwork net;
  gateway::EventGateway gw("gw.host", clock);
  gw.SetAccessChecker(authorizer.GatewayChecker("gw.host"));
  auto listener = net.Listen("gw.host");
  ASSERT_TRUE(listener.ok());
  gateway::GatewayService service(gw, std::move(*listener));
  service.SetAuthenticator(
      authorizer.GatewayAuthenticator("gw.host", 30 * kSecond));
  auto dial = [&net] { return net.Dial("gw.host"); };

  // Authorized consumer: cert-bundle handshake, then the normal stream.
  gateway::GatewayClient good(dial);
  ASSERT_TRUE(
      good.AuthenticateWithAsync(
              MakeCertAuthPayload(alice_cert, alice_keys.private_key))
          .ok());
  ASSERT_TRUE(good.SubscribeAsync("alice", {}).ok());
  service.PollOnce();
  gw.Publish(ulm::Record(clock.Now(), "h1", "sensor", "Usage", "CPU_LOAD"));
  service.PollOnce();
  auto events = good.DrainEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event_name(), "CPU_LOAD");
  // The handshake minted a capability token and the client adopted it.
  ASSERT_FALSE(good.token().empty());
  auto minted = DecodeToken(good.token());
  ASSERT_TRUE(minted.ok());
  EXPECT_EQ(minted->principal, *alice);

  // Unauthorized consumer: valid certificate, but the policy grants
  // mallory nothing — the handshake itself is refused (no actions to
  // seal into a token) and the connection stays unauthenticated.
  gateway::GatewayClient bad(dial);
  ASSERT_TRUE(bad.AuthenticateWithAsync(
                     MakeCertAuthPayload(evil_cert, evil_keys.private_key))
                  .ok());
  ASSERT_TRUE(bad.SubscribeAsync("mallory", {}).ok());
  service.PollOnce();
  gw.Publish(ulm::Record(clock.Now(), "h1", "sensor", "Usage", "CPU_LOAD"));
  service.PollOnce();
  EXPECT_TRUE(bad.DrainEvents().empty());
  EXPECT_TRUE(bad.token().empty());
  EXPECT_TRUE(bad.subscription_id(0).empty());

  // A bare principal line (no proof) is worth nothing — EVEN for a
  // principal with a live session. DNs are public; if a bare name were
  // honored against the session table, any peer could assume alice's
  // identity the moment she authenticated anywhere (the bypass REVIEW
  // flagged). Here the liar names admin, who authenticated above.
  gateway::GatewayClient liar(dial);
  ASSERT_TRUE(liar.AuthenticateWithAsync(*admin).ok());
  ASSERT_TRUE(liar.SubscribeAsync("liar", {}).ok());
  service.PollOnce();
  gw.Publish(ulm::Record(clock.Now(), "h1", "sensor", "Usage", "CPU_LOAD"));
  service.PollOnce();
  EXPECT_TRUE(liar.DrainEvents().empty());
  EXPECT_TRUE(liar.auth_rejected());
  gateway::GatewayClient ghost(dial);
  ASSERT_TRUE(ghost.AuthenticateWithAsync("/CN=ghost").ok());
  ASSERT_TRUE(ghost.SubscribeAsync("ghost", {}).ok());
  service.PollOnce();
  gw.Publish(ulm::Record(clock.Now(), "h1", "sensor", "Usage", "CPU_LOAD"));
  service.PollOnce();
  EXPECT_TRUE(ghost.DrainEvents().empty());

  // Token resume: a new connection presenting the minted token streams
  // without re-running the certificate evaluation.
  gateway::GatewayClient resumed(dial);
  ASSERT_TRUE(resumed
                  .AuthenticateWithAsync(
                      std::string(gateway::kAuthTokenPrefix) + good.token())
                  .ok());
  ASSERT_TRUE(resumed.SubscribeAsync("alice-resumed", {}).ok());
  service.PollOnce();
  gw.Publish(ulm::Record(clock.Now(), "h1", "sensor", "Usage", "MEM_USED"));
  service.PollOnce();
  auto resumed_events = resumed.DrainEvents();
  ASSERT_EQ(resumed_events.size(), 1u);
  EXPECT_EQ(resumed_events[0].event_name(), "MEM_USED");

  // --- Enforcement point 3: sensor start at the manager ----------------
  // The manager's own gateway carries no checker, so the manager-side
  // hook is the only gate — proving the paper's "defense in depth" layer
  // works even when a gateway is misconfigured wide open.
  sysmon::SimHost host("h1", clock);
  gateway::EventGateway mgr_gw("gw.mgr", clock);
  manager::SensorManager::Options mopts;
  mopts.clock = &clock;
  mopts.host = &host;
  mopts.gateway = &mgr_gw;
  mopts.control_access = authorizer.ManagerControlChecker("gw.host");
  manager::SensorManager manager(std::move(mopts));
  // admin holds start-sensor: passes authorization, fails on the missing
  // sensor (NotFound proves the gate opened).
  EXPECT_EQ(mgr_gw.StartSensor("cpu", *admin).code(), StatusCode::kNotFound);
  // alice does not: refused before the manager even looks.
  EXPECT_EQ(mgr_gw.StartSensor("cpu", *alice).code(),
            StatusCode::kPermissionDenied);

  // --- Manager peer allowlist (secure channel) -------------------------
  auto mgr_listener = net.Listen("mgr.rpc");
  ASSERT_TRUE(mgr_listener.ok());
  KeyPair mgr_keys = GenerateKeyPair(rng);
  SecureChannelOptions mgr_opts;
  mgr_opts.local_cert = ca.IssueIdentity("/CN=sensor-manager",
                                         mgr_keys.public_key, 0, kHour);
  mgr_opts.local_private_key = mgr_keys.private_key;
  mgr_opts.trusted_roots = {ca.ca_certificate()};
  mgr_opts.allowed_peers = {"/CN=gateway-1"};
  SecureListener secured(std::move(*mgr_listener), mgr_opts);

  auto make_peer_options = [&](const std::string& subject) {
    KeyPair keys = GenerateKeyPair(rng);
    SecureChannelOptions options;
    options.local_cert = ca.IssueIdentity(subject, keys.public_key, 0, kHour);
    options.local_private_key = keys.private_key;
    options.trusted_roots = {ca.ca_certificate()};
    return options;
  };

  // The known gateway agent connects and traffic flows.
  auto gw1_dial = MakeSecureDialer([&net] { return net.Dial("mgr.rpc"); },
                                   make_peer_options("/CN=gateway-1"));
  auto gw1 = gw1_dial();
  ASSERT_TRUE(gw1.ok());
  auto mgr_side = secured.Accept(kSecond);
  ASSERT_TRUE(mgr_side.ok());
  ASSERT_TRUE((*gw1)->Send({"mgr.ping", "1"}).ok());
  auto ping = (*mgr_side)->Receive(kSecond);
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping->type, "mgr.ping");
  EXPECT_EQ((*mgr_side)->peer(), "tls:/CN=gateway-1");

  // A rogue service with a perfectly valid CA-signed certificate is still
  // refused: it is not on the manager's known-gateways list.
  auto rogue_dial = MakeSecureDialer([&net] { return net.Dial("mgr.rpc"); },
                                     make_peer_options("/CN=rogue-gw"));
  auto rogue = rogue_dial();
  ASSERT_TRUE(rogue.ok());
  auto rogue_side = secured.Accept(kSecond);
  ASSERT_TRUE(rogue_side.ok());
  ASSERT_TRUE((*rogue)->Send({"mgr.ping", "2"}).ok());
  auto refused = (*rogue_side)->Receive(kSecond);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kPermissionDenied);
  EXPECT_FALSE((*rogue_side)->IsOpen());
}

}  // namespace
}  // namespace jamm::security
