// Tests for the LDAP-model directory service: DN algebra, filter parsing
// and matching (with property sweeps), the server's tree integrity, search
// scopes, referrals, bind/access control, change log, replication, pool
// failover, and the ISSUE-9 fault-tolerance layer: WAL crash recovery,
// RCU snapshot reads under write saturation, referral chasing across
// shards, and online shard migration.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <thread>

#include "common/rng.hpp"
#include "directory/dn.hpp"
#include "directory/filter.hpp"
#include "directory/replication.hpp"
#include "directory/schema.hpp"
#include "directory/server.hpp"
#include "directory/shard.hpp"
#include "directory/wal.hpp"
#include "telemetry/metrics.hpp"

namespace jamm::directory {
namespace {

Dn MustParse(std::string_view text) {
  auto dn = Dn::Parse(text);
  EXPECT_TRUE(dn.ok()) << text;
  return *dn;
}

Filter MustFilter(std::string_view text) {
  auto f = Filter::Parse(text);
  EXPECT_TRUE(f.ok()) << text << ": " << f.status().ToString();
  return *f;
}

// --------------------------------------------------------------------- DN

TEST(DnTest, ParseAndToString) {
  Dn dn = MustParse("cn=vmstat, host=dpss1.lbl.gov, ou=sensors, o=jamm");
  EXPECT_EQ(dn.depth(), 4u);
  EXPECT_EQ(dn.leaf().attr, "cn");
  EXPECT_EQ(dn.leaf().value, "vmstat");
  EXPECT_EQ(dn.ToString(), "cn=vmstat, host=dpss1.lbl.gov, ou=sensors, o=jamm");
}

TEST(DnTest, AttributeNamesCaseFold) {
  EXPECT_EQ(MustParse("CN=x, O=y"), MustParse("cn=x, o=y"));
  EXPECT_NE(MustParse("cn=X"), MustParse("cn=x"));  // values case-sensitive
}

TEST(DnTest, RootParsesFromEmpty) {
  Dn root = MustParse("");
  EXPECT_TRUE(root.IsRoot());
  EXPECT_EQ(root.ToString(), "");
  EXPECT_TRUE(root.Parent().IsRoot());
}

TEST(DnTest, ParentAndChild) {
  Dn base = MustParse("ou=sensors, o=jamm");
  Dn child = base.Child("host", "dpss1");
  EXPECT_EQ(child.ToString(), "host=dpss1, ou=sensors, o=jamm");
  EXPECT_EQ(child.Parent(), base);
  EXPECT_TRUE(child.IsChildOf(base));
  EXPECT_FALSE(base.IsChildOf(child));
}

TEST(DnTest, IsUnderSemantics) {
  Dn base = MustParse("ou=sensors, o=jamm");
  Dn deep = MustParse("cn=vmstat, host=dpss1, ou=sensors, o=jamm");
  EXPECT_TRUE(deep.IsUnder(base));
  EXPECT_TRUE(base.IsUnder(base));
  EXPECT_FALSE(base.IsUnder(deep));
  EXPECT_FALSE(deep.IsChildOf(base));  // two levels down, not a child
  EXPECT_FALSE(MustParse("ou=sensors, o=other").IsUnder(base));
  EXPECT_TRUE(deep.IsUnder(Dn{}));  // everything is under the root
}

TEST(DnTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Dn::Parse("noequals").ok());
  EXPECT_FALSE(Dn::Parse("=value").ok());
  EXPECT_FALSE(Dn::Parse("cn=").ok());
  EXPECT_FALSE(Dn::Parse("cn=a,,o=b").ok());
}

// ----------------------------------------------------------------- Filter

Entry SensorEntry() {
  Entry e(MustParse("cn=vmstat, host=dpss1.lbl.gov, ou=sensors, o=jamm"));
  e.Set("objectclass", "jammSensor");
  e.Set("sensortype", "cpu");
  e.Set("host", "dpss1.lbl.gov");
  e.Set("frequencyms", "1000");
  return e;
}

TEST(FilterTest, EqualityMatch) {
  EXPECT_TRUE(MustFilter("(sensortype=cpu)").Matches(SensorEntry()));
  EXPECT_FALSE(MustFilter("(sensortype=memory)").Matches(SensorEntry()));
  EXPECT_FALSE(MustFilter("(absent=x)").Matches(SensorEntry()));
}

TEST(FilterTest, AttributeNameCaseInsensitive) {
  EXPECT_TRUE(MustFilter("(SensorType=cpu)").Matches(SensorEntry()));
}

TEST(FilterTest, PresenceAndSubstring) {
  EXPECT_TRUE(MustFilter("(objectclass=*)").Matches(SensorEntry()));
  EXPECT_FALSE(MustFilter("(nope=*)").Matches(SensorEntry()));
  EXPECT_TRUE(MustFilter("(host=dpss*.lbl.gov)").Matches(SensorEntry()));
  EXPECT_FALSE(MustFilter("(host=dpss*.anl.gov)").Matches(SensorEntry()));
  EXPECT_TRUE(MustFilter("(host=*lbl*)").Matches(SensorEntry()));
}

TEST(FilterTest, NumericComparisons) {
  EXPECT_TRUE(MustFilter("(frequencyms>=500)").Matches(SensorEntry()));
  EXPECT_TRUE(MustFilter("(frequencyms<=1000)").Matches(SensorEntry()));
  EXPECT_FALSE(MustFilter("(frequencyms>=2000)").Matches(SensorEntry()));
  // Numeric, not lexicographic: "1000" >= "500" numerically though "1" < "5".
  EXPECT_TRUE(MustFilter("(frequencyms>=999)").Matches(SensorEntry()));
}

TEST(FilterTest, BooleanCombinators) {
  EXPECT_TRUE(MustFilter("(&(objectclass=jammSensor)(sensortype=cpu))")
                  .Matches(SensorEntry()));
  EXPECT_FALSE(MustFilter("(&(objectclass=jammSensor)(sensortype=mem))")
                   .Matches(SensorEntry()));
  EXPECT_TRUE(MustFilter("(|(sensortype=mem)(sensortype=cpu))")
                  .Matches(SensorEntry()));
  EXPECT_TRUE(MustFilter("(!(sensortype=mem))").Matches(SensorEntry()));
  EXPECT_TRUE(
      MustFilter("(&(objectclass=*)(|(sensortype=cpu)(sensortype=mem))"
                 "(!(host=evil.example)))")
          .Matches(SensorEntry()));
}

TEST(FilterTest, MultiValuedAttributesAnyMatch) {
  Entry e(MustParse("cn=x, o=jamm"));
  e.Add("port", "21");
  e.Add("port", "8080");
  EXPECT_TRUE(MustFilter("(port=8080)").Matches(e));
  EXPECT_TRUE(MustFilter("(port=21)").Matches(e));
  EXPECT_FALSE(MustFilter("(port=80)").Matches(e));
}

TEST(FilterTest, MatchAllMatchesAnythingWithClass) {
  EXPECT_TRUE(Filter::MatchAll().Matches(SensorEntry()));
}

TEST(FilterTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Filter::Parse("").ok());
  EXPECT_FALSE(Filter::Parse("sensortype=cpu").ok());   // missing parens
  EXPECT_FALSE(Filter::Parse("(sensortype=cpu").ok());  // unterminated
  EXPECT_FALSE(Filter::Parse("(&)").ok());              // empty conjunction
  EXPECT_FALSE(Filter::Parse("(=cpu)").ok());           // empty attr
  EXPECT_FALSE(Filter::Parse("(a=b)(c=d)").ok());       // trailing junk
  EXPECT_FALSE(Filter::Parse("(nocomparison)").ok());
}

TEST(FilterTest, ToStringRoundTripsThroughParse) {
  const char* filters[] = {
      "(sensortype=cpu)",
      "(objectclass=*)",
      "(host=dpss*.lbl.gov)",
      "(frequencyms>=500)",
      "(frequencyms<=99)",
      "(&(a=1)(b=2))",
      "(|(a=1)(!(b=2)))",
  };
  for (const char* text : filters) {
    Filter f = MustFilter(text);
    Filter again = MustFilter(f.ToString());
    EXPECT_EQ(f.ToString(), again.ToString()) << text;
  }
}

TEST(FilterTest, PropertyRandomFiltersAgreeWithDirectEval) {
  // Random equality/AND/OR trees evaluated against random entries must
  // agree with a straightforward recursive evaluation oracle.
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    Entry e(MustParse("cn=x, o=p"));
    const int attr_count = static_cast<int>(rng.Uniform(0, 4));
    for (int a = 0; a < attr_count; ++a) {
      e.Set(std::string("a").append(std::to_string(a)),
            std::to_string(rng.Uniform(0, 2)));
    }
    // (a0=0) and (a1=1) ground truth:
    const bool m0 = e.Get("a0") == "0";
    const bool m1 = e.Get("a1") == "1";
    EXPECT_EQ(MustFilter("(&(a0=0)(a1=1))").Matches(e), m0 && m1);
    EXPECT_EQ(MustFilter("(|(a0=0)(a1=1))").Matches(e), m0 || m1);
    EXPECT_EQ(MustFilter("(!(a0=0))").Matches(e), !m0);
  }
}

TEST(FilterTest, CandidateTermsFollowTheIndexRule) {
  const auto key = [](const char* attr, const char* value) {
    return Filter::IndexKey(attr, value);
  };
  using Terms = Filter::IndexTerms;
  // Equality on an indexed attribute is its posting; attribute names
  // fold case, values do not.
  EXPECT_EQ(MustFilter("(objectClass=jammSensor)").CandidateTerms(),
            (Terms{{key("objectclass", "jammSensor")}}));
  EXPECT_NE(MustFilter("(host=H1)").CandidateTerms(),
            MustFilter("(host=h1)").CandidateTerms());
  // `&` keeps its indexable children, `|` lists its children's terms.
  EXPECT_EQ(MustFilter("(|(objectclass=jammArchive)(&(objectclass=jammSensor)"
                       "(sensortype=cpu)(host=h1)))")
                .CandidateTerms(),
            (Terms{{key("objectclass", "jammArchive")},
                   {key("objectclass", "jammSensor"), key("host", "h1")}}));
  EXPECT_EQ(MustFilter("(&(|(host=a)(host=b))(objectclass=x))").CandidateTerms(),
            (Terms{{key("host", "a"), key("objectclass", "x")},
                   {key("host", "b"), key("objectclass", "x")}}));
  // Anything else scans: unindexed attributes, presence, substrings,
  // orderings, negation, and a `|` with any such child.
  for (const char* text :
       {"(sensortype=cpu)", "(host=*)", "(host=h*)", "(host>=h)",
        "(!(host=h1))", "(|(host=h1)(sensortype=cpu))",
        "(leaseexpires=5)", "(&(!(host=h1))(sensortype=cpu))"}) {
    EXPECT_TRUE(MustFilter(text).CandidateTerms().empty()) << text;
  }
}

/// `levels` copies of `open` ("(!" or "(&") around one leaf: the leaf is
/// depth 1, so the whole filter is depth `levels + 1`.
std::string NestedFilter(std::string_view open, std::size_t levels) {
  std::string text;
  text.reserve(levels * (open.size() + 1) + 5);
  for (std::size_t i = 0; i < levels; ++i) text += open;
  text += "(a=b)";
  text.append(levels, ')');
  return text;
}

TEST(FilterTest, NestingDepthIsBounded) {
  for (std::string_view open : {"(!", "(&", "(|"}) {
    EXPECT_TRUE(Filter::Parse(NestedFilter(open, Filter::kMaxDepth - 1)).ok())
        << open;
    EXPECT_EQ(Filter::Parse(NestedFilter(open, Filter::kMaxDepth))
                  .status()
                  .code(),
              StatusCode::kParseError)
        << open;
  }
  // Deep enough to overflow the stack of an unbounded recursive parser.
  EXPECT_EQ(Filter::Parse(NestedFilter("(!", 100000)).status().code(),
            StatusCode::kParseError);
}

/// A random valid filter over a small alphabet, at most `depth` levels.
std::string CorpusFilter(Rng& rng, int depth) {
  static const char* const kAttrs[] = {"objectclass", "SensorType", "host",
                                       "port", "a"};
  static const char* const kValues[] = {"*", "cpu", "dpss*.lbl.gov", "8080",
                                        "*x*", "", "jammSensor"};
  if (depth > 1 && rng.Chance(0.5)) {
    const int kind = static_cast<int>(rng.Uniform(0, 2));
    if (kind == 2) return "(!" + CorpusFilter(rng, depth - 1) + ")";
    std::string out = kind == 0 ? "(&" : "(|";
    const int children = static_cast<int>(rng.Uniform(1, 3));
    for (int c = 0; c < children; ++c) out += CorpusFilter(rng, depth - 1);
    return out + ")";
  }
  static const char* const kOps[] = {"=", ">=", "<="};
  return std::string("(") + kAttrs[rng.Uniform(0, 4)] +
         kOps[rng.Uniform(0, 2)] + kValues[rng.Uniform(0, 6)] + ")";
}

/// The parser contract under fire: any input parses or fails cleanly, and
/// whatever parses evaluates and round-trips through ToString.
void MustParseSafely(const std::string& text) {
  auto parsed = Filter::Parse(text);
  if (!parsed.ok()) return;  // clean rejection is success
  (void)parsed->Matches(SensorEntry());
  const std::string canonical = parsed->ToString();
  auto again = Filter::Parse(canonical);
  ASSERT_TRUE(again.ok()) << "canonical form of '" << text
                          << "' does not parse: " << canonical;
  EXPECT_EQ(again->ToString(), canonical) << text;
}

TEST(FilterFuzzTest, TruncationsSplicesAndByteFlipsParseOrError) {
  // Seeded corpus in the style of ulm_fuzz_test: deterministic, so a
  // failure reproduces from the trial number.
  Rng rng(0xF17E01);
  static const char kInteresting[] = "()&|!=<>* \0";
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string base = CorpusFilter(rng, 5);
    MustParseSafely(base);
    ASSERT_TRUE(Filter::Parse(base).ok()) << base;
    // Every truncation.
    for (std::size_t cut = 0; cut < base.size(); ++cut) {
      MustParseSafely(base.substr(0, cut));
    }
    // A splice of two valid filters at random cut points.
    const std::string other = CorpusFilter(rng, 5);
    auto cut = [&rng](const std::string& text) {
      return static_cast<std::size_t>(
          rng.Uniform(0, static_cast<std::int64_t>(text.size())));
    };
    const std::size_t head = cut(base);
    const std::size_t tail = cut(other);
    MustParseSafely(base.substr(0, head) + other.substr(tail));
    // 1–6 byte flips, insertions or deletions, biased to syntax bytes.
    std::string mutant = base;
    const int edits = static_cast<int>(rng.Uniform(1, 6));
    for (int e = 0; e < edits && !mutant.empty(); ++e) {
      const std::size_t pos = static_cast<std::size_t>(
          rng.Uniform(0, static_cast<std::int64_t>(mutant.size()) - 1));
      const char byte =
          rng.Chance(0.7)
              ? kInteresting[rng.Uniform(0, sizeof(kInteresting) - 2)]
              : static_cast<char>(rng.Uniform(0, 255));
      switch (rng.Uniform(0, 2)) {
        case 0: mutant[pos] = byte; break;
        case 1: mutant.insert(pos, 1, byte); break;
        default: mutant.erase(pos, 1); break;
      }
    }
    MustParseSafely(mutant);
  }
}

// ----------------------------------------------------------------- Server

class ServerTest : public ::testing::Test {
 protected:
  ServerTest()
      : suffix_(MustParse("ou=sensors, o=jamm")),
        server_(suffix_, "ldap://primary") {}

  void AddHostAndSensor(const std::string& host, const std::string& sensor,
                        const std::string& type = "cpu") {
    (void)server_.Upsert(schema::MakeHostEntry(suffix_, host));
    ASSERT_TRUE(server_
                    .Add(schema::MakeSensorEntry(suffix_, host, sensor, type,
                                                 "inproc:gw." + host, 1000, 0))
                    .ok());
  }

  Dn suffix_;
  DirectoryServer server_;
};

TEST_F(ServerTest, AddLookupRoundTrip) {
  AddHostAndSensor("dpss1", "vmstat");
  auto entry = server_.Lookup(schema::SensorDn(suffix_, "dpss1", "vmstat"));
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(schema::kAttrSensorType), "cpu");
  EXPECT_EQ(entry->Get(schema::kAttrGateway), "inproc:gw.dpss1");
}

TEST_F(ServerTest, AddRequiresParent) {
  Entry orphan(MustParse("cn=x, host=ghost, ou=sensors, o=jamm"));
  auto s = server_.Add(orphan);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, AddRejectsOutsideSuffix) {
  Entry alien(MustParse("cn=x, o=elsewhere"));
  auto s = server_.Add(alien);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, DuplicateAddRejectedUpsertAccepted) {
  AddHostAndSensor("dpss1", "vmstat");
  auto dup = schema::MakeSensorEntry(suffix_, "dpss1", "vmstat", "cpu",
                                     "inproc:gw.dpss1", 1000, 0);
  EXPECT_EQ(server_.Add(dup).code(), StatusCode::kAlreadyExists);
  dup.Set(schema::kAttrStatus, "stopped");
  ASSERT_TRUE(server_.Upsert(dup).ok());
  auto entry = server_.Lookup(dup.dn());
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(schema::kAttrStatus), "stopped");
}

TEST_F(ServerTest, DeleteLeafOnlyAndChildrenBlock) {
  AddHostAndSensor("dpss1", "vmstat");
  const Dn host_dn = schema::HostDn(suffix_, "dpss1");
  auto blocked = server_.Delete(host_dn);
  ASSERT_FALSE(blocked.ok());
  ASSERT_TRUE(
      server_.Delete(schema::SensorDn(suffix_, "dpss1", "vmstat")).ok());
  EXPECT_TRUE(server_.Delete(host_dn).ok());
  EXPECT_EQ(server_.Lookup(host_dn).status().code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, SearchScopes) {
  AddHostAndSensor("dpss1", "vmstat", "cpu");
  AddHostAndSensor("dpss1", "netstat", "network");
  AddHostAndSensor("dpss2", "vmstat", "cpu");

  auto all = server_.Search(suffix_, SearchScope::kSubtree,
                            MustFilter("(objectclass=jammSensor)"));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->entries.size(), 3u);

  auto hosts = server_.Search(suffix_, SearchScope::kOneLevel,
                              MustFilter("(objectclass=*)"));
  ASSERT_TRUE(hosts.ok());
  EXPECT_EQ(hosts->entries.size(), 2u);  // the two host entries

  auto base = server_.Search(schema::HostDn(suffix_, "dpss1"),
                             SearchScope::kBase, MustFilter("(objectclass=*)"));
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->entries.size(), 1u);

  auto cpu = server_.Search(suffix_, SearchScope::kSubtree,
                            MustFilter("(&(objectclass=jammSensor)"
                                       "(sensortype=cpu))"));
  ASSERT_TRUE(cpu.ok());
  EXPECT_EQ(cpu->entries.size(), 2u);
}

// A search must see every structural write acked before it began, even
// with other searches in flight: a result computed from an older snapshot
// must never be served after the write. The looping reader keeps scans
// running across every add and delete.
TEST_F(ServerTest, SearchSeesEveryAckedStructuralWrite) {
  ASSERT_TRUE(server_.Upsert(schema::MakeHostEntry(suffix_, "dpss1")).ok());
  const Entry sensor = schema::MakeSensorEntry(
      suffix_, "dpss1", "vmstat", "cpu", "inproc:gw.dpss1", 1000, 0);
  const Filter filter = MustFilter("(objectclass=jammSensor)");
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)server_.Search(suffix_, SearchScope::kSubtree, filter);
    }
  });
  auto count = [&]() -> std::size_t {
    auto result = server_.Search(suffix_, SearchScope::kSubtree, filter);
    return result.ok() ? result->entries.size() : SIZE_MAX;
  };
  constexpr int kIterations = 100000;
  int failed_writes = 0;
  int stale = 0;
  for (int i = 0; i < kIterations; ++i) {
    if (!server_.Add(sensor).ok()) ++failed_writes;
    if (count() != 1) ++stale;
    if (!server_.Delete(sensor.dn()).ok()) ++failed_writes;
    if (count() != 0) ++stale;
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(failed_writes, 0);
  EXPECT_EQ(stale, 0) << "searches missed an acked add or delete";
}

TEST_F(ServerTest, ReferralsReturnedForIntersectingSubtrees) {
  server_.AddReferral(MustParse("site=anl, ou=sensors, o=jamm"),
                      "ldap://anl-directory");
  auto result = server_.Search(suffix_, SearchScope::kSubtree,
                               Filter::MatchAll());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->referrals.size(), 1u);
  EXPECT_EQ(result->referrals[0].target, "ldap://anl-directory");

  auto narrow = server_.Search(MustParse("host=x, site=anl, ou=sensors, o=jamm"),
                               SearchScope::kSubtree, Filter::MatchAll());
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow->referrals.size(), 1u);
}

TEST_F(ServerTest, BindChecksCredentials) {
  const Dn user = MustParse("uid=tierney, ou=people, o=jamm");
  server_.SetCredential(user, "s3cret");
  EXPECT_TRUE(server_.Bind(user, "s3cret").ok());
  EXPECT_EQ(server_.Bind(user, "wrong").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(server_.Bind(MustParse("uid=nobody, o=jamm"), "x").code(),
            StatusCode::kPermissionDenied);
}

TEST_F(ServerTest, AccessCheckerEnforced) {
  AddHostAndSensor("dpss1", "vmstat");
  server_.SetAccessChecker([](Operation op, const Dn&, const std::string& who) {
    return op == Operation::kRead ? !who.empty() : who == "admin";
  });
  EXPECT_EQ(server_.Lookup(schema::SensorDn(suffix_, "dpss1", "vmstat"), "")
                .status()
                .code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(
      server_.Lookup(schema::SensorDn(suffix_, "dpss1", "vmstat"), "alice")
          .ok());
  EXPECT_EQ(server_.Upsert(schema::MakeHostEntry(suffix_, "h9"), "alice").code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(server_.Upsert(schema::MakeHostEntry(suffix_, "h9"), "admin").ok());
}

TEST_F(ServerTest, DownServerUnavailable) {
  AddHostAndSensor("dpss1", "vmstat");
  server_.SetAlive(false);
  EXPECT_EQ(server_.Lookup(schema::HostDn(suffix_, "dpss1")).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(server_.Upsert(schema::MakeHostEntry(suffix_, "x")).code(),
            StatusCode::kUnavailable);
  server_.SetAlive(true);
  EXPECT_TRUE(server_.Lookup(schema::HostDn(suffix_, "dpss1")).ok());
}

TEST_F(ServerTest, ChangeLogRecordsSequence) {
  AddHostAndSensor("dpss1", "vmstat");
  auto changes = server_.ChangesSince(0);
  ASSERT_EQ(changes.size(), 2u);  // host + sensor
  EXPECT_EQ(changes[0].seq, 1u);
  EXPECT_EQ(changes[1].seq, 2u);
  EXPECT_EQ(server_.ChangesSince(2).size(), 0u);
  EXPECT_EQ(server_.last_seq(), 2u);
}

// ------------------------------------------------------------ Replication

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest()
      : suffix_(MustParse("ou=sensors, o=jamm")),
        primary_(std::make_shared<DirectoryServer>(suffix_, "ldap://primary")),
        replica_(std::make_shared<DirectoryServer>(suffix_, "ldap://replica")),
        replicator_(primary_) {
    replicator_.AddReplica(replica_);
  }

  Dn suffix_;
  std::shared_ptr<DirectoryServer> primary_;
  std::shared_ptr<DirectoryServer> replica_;
  Replicator replicator_;
};

TEST_F(ReplicationTest, ChangesPropagate) {
  (void)primary_->Upsert(schema::MakeHostEntry(suffix_, "dpss1"));
  (void)primary_->Upsert(schema::MakeSensorEntry(suffix_, "dpss1", "vmstat",
                                                 "cpu", "gw", 1000, 0));
  EXPECT_FALSE(replicator_.Converged());
  EXPECT_EQ(replicator_.SyncAll(), 2u);
  EXPECT_TRUE(replicator_.Converged());
  auto entry = replica_->Lookup(schema::SensorDn(suffix_, "dpss1", "vmstat"));
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get(schema::kAttrSensorType), "cpu");
}

TEST_F(ReplicationTest, ModifyAndDeletePropagate) {
  (void)primary_->Upsert(schema::MakeHostEntry(suffix_, "dpss1"));
  (void)replicator_.SyncAll();
  auto host = schema::MakeHostEntry(suffix_, "dpss1");
  host.Set("status", "degraded");
  (void)primary_->Modify(host);
  (void)replicator_.SyncAll();
  auto entry = replica_->Lookup(schema::HostDn(suffix_, "dpss1"));
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->Get("status"), "degraded");

  (void)primary_->Delete(schema::HostDn(suffix_, "dpss1"));
  (void)replicator_.SyncAll();
  EXPECT_EQ(replica_->Lookup(schema::HostDn(suffix_, "dpss1")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ReplicationTest, DownReplicaCatchesUpLater) {
  replica_->SetAlive(false);
  (void)primary_->Upsert(schema::MakeHostEntry(suffix_, "dpss1"));
  EXPECT_EQ(replicator_.SyncAll(), 0u);
  replica_->SetAlive(true);
  EXPECT_EQ(replicator_.SyncAll(), 1u);
  EXPECT_TRUE(replica_->Lookup(schema::HostDn(suffix_, "dpss1")).ok());
}

TEST_F(ReplicationTest, SyncIsIdempotent) {
  (void)primary_->Upsert(schema::MakeHostEntry(suffix_, "dpss1"));
  EXPECT_EQ(replicator_.SyncAll(), 1u);
  EXPECT_EQ(replicator_.SyncAll(), 0u);
}

TEST_F(ReplicationTest, PropertyRandomOpsConverge) {
  Rng rng(17);
  std::vector<std::string> hosts;
  for (int op = 0; op < 300; ++op) {
    const int kind = static_cast<int>(rng.Uniform(0, 2));
    if (kind == 0 || hosts.empty()) {
      std::string host = std::string("h").append(std::to_string(op));
      (void)primary_->Upsert(schema::MakeHostEntry(suffix_, host));
      hosts.push_back(host);
    } else if (kind == 1) {
      auto e = schema::MakeHostEntry(
          suffix_, hosts[static_cast<std::size_t>(
                       rng.Uniform(0, static_cast<std::int64_t>(hosts.size()) - 1))]);
      e.Set("load", std::to_string(rng.Uniform(0, 100)));
      (void)primary_->Upsert(e);
    } else {
      const std::size_t idx = static_cast<std::size_t>(
          rng.Uniform(0, static_cast<std::int64_t>(hosts.size()) - 1));
      (void)primary_->Delete(schema::HostDn(suffix_, hosts[idx]));
      hosts.erase(hosts.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    if (rng.Chance(0.2)) (void)replicator_.SyncAll();
  }
  (void)replicator_.SyncAll();
  EXPECT_TRUE(replicator_.Converged());
  auto p = primary_->Search(suffix_, SearchScope::kSubtree, Filter::MatchAll());
  auto r = replica_->Search(suffix_, SearchScope::kSubtree, Filter::MatchAll());
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(p->entries.size(), r->entries.size());
}

// ---------------------------------------------------------------- Failover

TEST_F(ReplicationTest, PoolFailsOverToReplica) {
  (void)primary_->Upsert(schema::MakeHostEntry(suffix_, "dpss1"));
  (void)replicator_.SyncAll();

  DirectoryPool pool;
  pool.AddServer(primary_);
  pool.AddServer(replica_);

  ASSERT_TRUE(pool.Lookup(schema::HostDn(suffix_, "dpss1")).ok());
  EXPECT_EQ(pool.last_served_by(), "ldap://primary");

  primary_->SetAlive(false);  // the paper's "failure of the sensor
                              // directory server" scenario
  ASSERT_TRUE(pool.Lookup(schema::HostDn(suffix_, "dpss1")).ok());
  EXPECT_EQ(pool.last_served_by(), "ldap://replica");

  auto search = pool.Search(suffix_, SearchScope::kSubtree, Filter::MatchAll());
  ASSERT_TRUE(search.ok());
  EXPECT_EQ(search->entries.size(), 1u);

  // Writes fail over too: the live replica is promoted to write primary
  // (ISSUE 2 — previously this returned bare Unavailable).
  EXPECT_TRUE(pool.Upsert(schema::MakeHostEntry(suffix_, "x")).ok());
  EXPECT_EQ(pool.write_primary(), "ldap://replica");
  ASSERT_TRUE(replica_->Lookup(schema::HostDn(suffix_, "x")).ok());

  replica_->SetAlive(false);
  EXPECT_EQ(pool.Lookup(schema::HostDn(suffix_, "dpss1")).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(pool.Upsert(schema::MakeHostEntry(suffix_, "y")).code(),
            StatusCode::kUnavailable);
}

TEST(DirectoryPoolTest, EmptyPoolUnavailable) {
  DirectoryPool pool;
  EXPECT_EQ(pool.Lookup(MustParse("o=x")).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(pool.Upsert(Entry(MustParse("o=x"))).code(),
            StatusCode::kUnavailable);
}

// ------------------------------------------------------------------ Schema

TEST(SchemaTest, SensorEntryShape) {
  const Dn suffix = MustParse("ou=sensors, o=jamm");
  Entry e = schema::MakeSensorEntry(suffix, "dpss1.lbl.gov", "netstat",
                                    "network", "inproc:gw.dpss1", 500,
                                    42 * kSecond);
  EXPECT_EQ(e.dn().ToString(),
            "cn=netstat, host=dpss1.lbl.gov, ou=sensors, o=jamm");
  EXPECT_EQ(e.Get(schema::kAttrObjectClass), "jammSensor");
  EXPECT_EQ(e.Get(schema::kAttrFrequencyMs), "500");
  EXPECT_EQ(e.Get(schema::kAttrStatus), "running");
  EXPECT_EQ(e.Get(schema::kAttrStartTime), "19700101000042.000000");
}

TEST(SchemaTest, GatewayArchiveSummaryShapes) {
  const Dn suffix = MustParse("ou=sensors, o=jamm");
  Entry gw = schema::MakeGatewayEntry(suffix, "dpss1", "inproc:gw.dpss1");
  EXPECT_EQ(gw.Get(schema::kAttrObjectClass), "jammGateway");
  EXPECT_EQ(gw.dn().leaf().value, "gateway");

  Entry ar = schema::MakeArchiveEntry(suffix, "main", "inproc:archive",
                                      "router+host data");
  EXPECT_EQ(ar.Get(schema::kAttrObjectClass), "jammArchive");
  EXPECT_TRUE(ar.dn().IsUnder(suffix));

  Entry sum = schema::MakeSummaryEntry(suffix, "dpss1", "net.throughput.mbps",
                                       140.0);
  EXPECT_EQ(sum.Get(schema::kAttrObjectClass), "jammSummary");
  EXPECT_EQ(sum.Get(schema::kAttrMetric), "net.throughput.mbps");
}

// -------------------------------------------------------- Leases (ISSUE 4)

class LeaseTest : public ::testing::Test {
 protected:
  LeaseTest()
      : clock_(0),
        suffix_(MustParse("ou=sensors, o=jamm")),
        server_(suffix_, "ldap://primary") {
    server_.SetClock(&clock_);
  }

  /// Host (immortal) + leased sensor entry expiring at `expiry`.
  Dn AddLeasedSensor(const std::string& host, const std::string& sensor,
                     TimePoint expiry) {
    (void)server_.Upsert(schema::MakeHostEntry(suffix_, host));
    auto entry = schema::MakeSensorEntry(suffix_, host, sensor, "cpu",
                                         "inproc:gw." + host, 1000, 0);
    schema::StampLease(entry, expiry);
    EXPECT_TRUE(server_.Upsert(entry).ok());
    return entry.dn();
  }

  SimClock clock_;
  Dn suffix_;
  DirectoryServer server_;
};

TEST_F(LeaseTest, StampAndReadBack) {
  Entry e(MustParse("host=h, ou=sensors, o=jamm"));
  EXPECT_FALSE(schema::LeaseExpiry(e).has_value());  // immortal
  schema::StampLease(e, 42 * kSecond);
  ASSERT_TRUE(schema::LeaseExpiry(e).has_value());
  EXPECT_EQ(*schema::LeaseExpiry(e), 42 * kSecond);
}

TEST_F(LeaseTest, RenewBatchUpdatesExpiryAndReportsMissing) {
  Dn live = AddLeasedSensor("dpss1", "vmstat", 10 * kSecond);
  Dn ghost = schema::SensorDn(suffix_, "dpss1", "never-registered");
  std::vector<Dn> missing;
  auto renewed =
      server_.RenewLeases({live, ghost}, 60 * kSecond, "", &missing);
  ASSERT_TRUE(renewed.ok());
  EXPECT_EQ(*renewed, 1u);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], ghost);
  auto entry = server_.Lookup(live);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(*schema::LeaseExpiry(*entry), 60 * kSecond);
  EXPECT_EQ(server_.stats().leases_renewed, 1u);
}

TEST_F(LeaseTest, ReaperTombstonesOverdueEntries) {
  Dn doomed = AddLeasedSensor("dpss1", "vmstat", 10 * kSecond);
  Dn safe = AddLeasedSensor("dpss1", "netstat", 90 * kSecond);
  auto reaped = server_.ExpireLeases(30 * kSecond);
  ASSERT_TRUE(reaped.ok());
  EXPECT_EQ(*reaped, 1u);
  EXPECT_EQ(server_.Lookup(doomed).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(server_.Lookup(safe).ok());
  // The immortal host entry survives.
  EXPECT_TRUE(server_.Lookup(schema::HostDn(suffix_, "dpss1")).ok());
  EXPECT_EQ(server_.stats().leases_expired, 1u);
}

TEST_F(LeaseTest, ReaperSparesExpiredParentWithLiveChild) {
  // An expired parent whose child still lives must survive the sweep
  // (tree integrity: deletes are leaf-only).
  (void)server_.Upsert(schema::MakeHostEntry(suffix_, "dpss1"));
  auto parent = Entry(MustParse("cn=group, host=dpss1, ou=sensors, o=jamm"));
  schema::StampLease(parent, 10 * kSecond);
  ASSERT_TRUE(server_.Upsert(parent).ok());
  auto child =
      Entry(MustParse("cn=leaf, cn=group, host=dpss1, ou=sensors, o=jamm"));
  schema::StampLease(child, 90 * kSecond);
  ASSERT_TRUE(server_.Upsert(child).ok());

  auto reaped = server_.ExpireLeases(30 * kSecond);
  ASSERT_TRUE(reaped.ok());
  EXPECT_EQ(*reaped, 0u);  // parent reprieved by its live child
  EXPECT_TRUE(server_.Lookup(parent.dn()).ok());

  // Once the child expires too, both go in one sweep — and the tombstones
  // must replay cleanly (child before parent) on a replica.
  auto replica = std::make_shared<DirectoryServer>(suffix_, "ldap://replica");
  auto primary_alias = std::shared_ptr<DirectoryServer>(
      std::shared_ptr<DirectoryServer>(), &server_);
  Replicator replicator(primary_alias);
  replicator.AddReplica(replica);
  ASSERT_GT(replicator.SyncAll(), 0u);
  ASSERT_TRUE(replica->Lookup(child.dn()).ok());

  auto both = server_.ExpireLeases(120 * kSecond);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(*both, 2u);
  replicator.SyncAll();
  EXPECT_TRUE(replicator.Converged());
  EXPECT_EQ(replica->Lookup(parent.dn()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(replica->Lookup(child.dn()).status().code(),
            StatusCode::kNotFound);
}

TEST_F(LeaseTest, LiveOnlyLookupHidesExpiredBeforeSweep) {
  Dn dn = AddLeasedSensor("dpss1", "vmstat", 10 * kSecond);
  clock_.Advance(20 * kSecond);  // past expiry; reaper has not run
  EXPECT_TRUE(server_.Lookup(dn).ok());  // plain reads still see it
  auto live = server_.Lookup(dn, "", /*live_only=*/true);
  EXPECT_EQ(live.status().code(), StatusCode::kNotFound);
  EXPECT_GE(server_.stats().live_only_filtered, 1u);
  // Renewal resurrects it for live readers.
  ASSERT_TRUE(server_.RenewLeases({dn}, clock_.Now() + 30 * kSecond).ok());
  EXPECT_TRUE(server_.Lookup(dn, "", /*live_only=*/true).ok());
}

TEST_F(LeaseTest, LiveOnlyRequiresClock) {
  DirectoryServer clockless(suffix_, "ldap://clockless");
  auto s = clockless.Lookup(schema::HostDn(suffix_, "x"), "", true);
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LeaseTest, LiveOnlySearchFiltersCachedResults) {
  Dn dn = AddLeasedSensor("dpss1", "vmstat", 10 * kSecond);
  Filter all = MustFilter("(objectclass=jammSensor)");
  // Prime the search cache while the entry is live.
  auto warm = server_.Search(suffix_, SearchScope::kSubtree, all, "", true);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->entries.size(), 1u);
  clock_.Advance(20 * kSecond);
  // Renewals do not invalidate the cache, so this is a cache hit — the
  // live filter must still consult the authoritative lease and hide the
  // now-expired entry.
  auto stale = server_.Search(suffix_, SearchScope::kSubtree, all, "", true);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->entries.empty());
  // And the other direction: a renewal must resurrect the cached entry.
  ASSERT_TRUE(server_.RenewLeases({dn}, clock_.Now() + 30 * kSecond).ok());
  auto fresh = server_.Search(suffix_, SearchScope::kSubtree, all, "", true);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->entries.size(), 1u);
}

TEST_F(LeaseTest, PoolForwardsRenewalsWithFailover) {
  auto primary =
      std::make_shared<DirectoryServer>(suffix_, "ldap://primary2");
  auto replica =
      std::make_shared<DirectoryServer>(suffix_, "ldap://replica2");
  Replicator replicator(primary);
  replicator.AddReplica(replica);
  DirectoryPool pool;
  pool.AddServer(primary);
  pool.AddServer(replica);
  (void)primary->Upsert(schema::MakeHostEntry(suffix_, "dpss1"));
  auto entry = schema::MakeSensorEntry(suffix_, "dpss1", "vmstat", "cpu",
                                       "inproc:gw", 1000, 0);
  schema::StampLease(entry, 10 * kSecond);
  ASSERT_TRUE(primary->Upsert(entry).ok());
  replicator.SyncAll();

  // Primary dies: the renewal batch fails over to the replica and the
  // out-params reflect only the server that took the write.
  primary->SetAlive(false);
  std::vector<Dn> missing;
  auto renewed =
      pool.RenewLeases({entry.dn()}, 60 * kSecond, "", &missing);
  ASSERT_TRUE(renewed.ok());
  EXPECT_EQ(*renewed, 1u);
  EXPECT_TRUE(missing.empty());
  auto on_replica = replica->Lookup(entry.dn());
  ASSERT_TRUE(on_replica.ok());
  EXPECT_EQ(*schema::LeaseExpiry(*on_replica), 60 * kSecond);
}

// ----------------------------------------------- WAL + recovery (ISSUE 9)

TEST(WalCodecTest, RoundTripsEveryChangeType) {
  std::vector<Change> originals;

  Change add;
  add.seq = 7;
  add.type = Change::Type::kAdd;
  add.entry = Entry(MustParse("host=h1, ou=sensors, o=jamm"));
  add.entry.Set("objectclass", "jammHost");
  add.entry.Add("tag", "alpha");  // multi-valued attribute
  add.entry.Add("tag", "beta");
  originals.push_back(add);

  Change modify = add;
  modify.seq = 8;
  modify.type = Change::Type::kModify;
  originals.push_back(modify);

  Change del;
  del.seq = 9;
  del.type = Change::Type::kDelete;
  del.entry = Entry(MustParse("host=h1, ou=sensors, o=jamm"));
  originals.push_back(del);

  Change lease;
  lease.seq = 10;
  lease.type = Change::Type::kLease;
  lease.entry = Entry(MustParse("cn=vmstat, host=h1, ou=sensors, o=jamm"));
  lease.lease_expiry = 42 * kSecond;
  originals.push_back(lease);

  Change referral;
  referral.seq = 11;
  referral.type = Change::Type::kReferral;
  referral.entry = Entry(MustParse("site=anl, ou=sensors, o=jamm"));
  referral.referral_target = "ldap://anl-directory";
  originals.push_back(referral);

  for (const Change& original : originals) {
    std::vector<std::uint8_t> buf;
    EncodeChange(original, &buf);
    Change decoded;
    ASSERT_TRUE(DecodeChange(buf.data(), buf.size(), &decoded));
    EXPECT_EQ(decoded.seq, original.seq);
    EXPECT_EQ(decoded.type, original.type);
    EXPECT_EQ(decoded.entry.dn(), original.entry.dn());
    EXPECT_EQ(decoded.entry.attrs(), original.entry.attrs());
    EXPECT_EQ(decoded.lease_expiry, original.lease_expiry);
    EXPECT_EQ(decoded.referral_target, original.referral_target);
    // Truncation and trailing garbage are both malformed.
    EXPECT_FALSE(DecodeChange(buf.data(), buf.size() - 1, &decoded));
    buf.push_back(0);
    EXPECT_FALSE(DecodeChange(buf.data(), buf.size(), &decoded));
  }
}

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : suffix_(MustParse("ou=sensors, o=jamm")) {}
  Dn suffix_;
};

TEST_F(RecoveryTest, CrashRecoversToLastAckedWrite) {
  auto storage = std::make_shared<WalStorage>();
  DirectoryServer server(suffix_, "ldap://durable", storage);
  ASSERT_TRUE(server.Upsert(schema::MakeHostEntry(suffix_, "dpss1")).ok());
  ASSERT_TRUE(server.Upsert(schema::MakeHostEntry(suffix_, "dpss2")).ok());
  auto sensor = schema::MakeSensorEntry(suffix_, "dpss1", "vmstat", "cpu",
                                        "inproc:gw.dpss1", 1000, 0);
  ASSERT_TRUE(server.Upsert(sensor).ok());
  const std::uint64_t acked_seq = server.last_seq();

  server.Crash();
  EXPECT_FALSE(server.alive());
  EXPECT_EQ(server.Lookup(sensor.dn()).status().code(),
            StatusCode::kUnavailable);

  auto recovery = server.Restart();
  EXPECT_EQ(recovery.records_replayed, 3u);
  EXPECT_EQ(recovery.truncated_bytes, 0u);
  EXPECT_EQ(recovery.entries, 3u);
  EXPECT_EQ(recovery.last_seq, acked_seq);
  EXPECT_TRUE(server.alive());
  EXPECT_TRUE(server.Lookup(sensor.dn()).ok());
  EXPECT_TRUE(server.Lookup(schema::HostDn(suffix_, "dpss2")).ok());
  // Post-recovery writes continue the recovered sequence.
  ASSERT_TRUE(server.Upsert(schema::MakeHostEntry(suffix_, "dpss3")).ok());
  EXPECT_EQ(server.last_seq(), acked_seq + 1);
}

TEST_F(RecoveryTest, TornTailTruncatedOnRestart) {
  auto storage = std::make_shared<WalStorage>();
  DirectoryServer server(suffix_, "ldap://torn", storage);
  ASSERT_TRUE(server.Upsert(schema::MakeHostEntry(suffix_, "a")).ok());
  ASSERT_TRUE(server.Upsert(schema::MakeHostEntry(suffix_, "b")).ok());
  ASSERT_TRUE(server.Upsert(schema::MakeHostEntry(suffix_, "c")).ok());
  // Chop mid-way through the last frame: a crash mid-append.
  storage->TruncateRaw(storage->size() - 3);
  server.Crash();
  auto recovery = server.Restart();
  EXPECT_EQ(recovery.records_replayed, 2u);
  EXPECT_GT(recovery.truncated_bytes, 0u);
  EXPECT_TRUE(server.Lookup(schema::HostDn(suffix_, "b")).ok());
  EXPECT_EQ(server.Lookup(schema::HostDn(suffix_, "c")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RecoveryTest, CorruptTailCaughtByChecksum) {
  auto storage = std::make_shared<WalStorage>();
  DirectoryServer server(suffix_, "ldap://corrupt", storage);
  ASSERT_TRUE(server.Upsert(schema::MakeHostEntry(suffix_, "a")).ok());
  ASSERT_TRUE(server.Upsert(schema::MakeHostEntry(suffix_, "b")).ok());
  ASSERT_GT(storage->CorruptTail(4), 0u);  // flip bytes inside the last frame
  server.Crash();
  auto recovery = server.Restart();
  EXPECT_EQ(recovery.records_replayed, 1u);
  EXPECT_GT(recovery.truncated_bytes, 0u);
  EXPECT_TRUE(server.Lookup(schema::HostDn(suffix_, "a")).ok());
  EXPECT_EQ(server.Lookup(schema::HostDn(suffix_, "b")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RecoveryTest, FreshServerAdoptsCommittedStorage) {
  auto storage = std::make_shared<WalStorage>();
  {
    DirectoryServer writer(suffix_, "ldap://old", storage);
    ASSERT_TRUE(writer.Upsert(schema::MakeHostEntry(suffix_, "dpss1")).ok());
  }  // old process gone; the storage (the "disk") survives
  DirectoryServer heir(suffix_, "ldap://new", storage);
  EXPECT_TRUE(heir.Lookup(schema::HostDn(suffix_, "dpss1")).ok());
  EXPECT_EQ(heir.last_seq(), 1u);
}

TEST_F(RecoveryTest, LeaseRenewalsAndReferralsSurviveCrash) {
  SimClock clock(0);
  auto storage = std::make_shared<WalStorage>();
  DirectoryServer server(suffix_, "ldap://leases", storage);
  server.SetClock(&clock);
  ASSERT_TRUE(server.Upsert(schema::MakeHostEntry(suffix_, "dpss1")).ok());
  auto sensor = schema::MakeSensorEntry(suffix_, "dpss1", "vmstat", "cpu",
                                        "inproc:gw.dpss1", 1000, 0);
  schema::StampLease(sensor, 10 * kSecond);
  ASSERT_TRUE(server.Upsert(sensor).ok());
  // The renewal is a lease-cell store plus a compact kLease WAL record —
  // no snapshot swap — but it must still be durable.
  ASSERT_TRUE(server.RenewLeases({sensor.dn()}, 60 * kSecond).ok());
  server.AddReferral(MustParse("site=anl, ou=sensors, o=jamm"), "ldap://anl");

  server.Crash();
  server.Restart();
  auto back = server.Lookup(sensor.dn());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*schema::LeaseExpiry(*back), 60 * kSecond);
  auto ref =
      server.MatchReferral(MustParse("host=x, site=anl, ou=sensors, o=jamm"));
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->target, "ldap://anl");
}

TEST_F(RecoveryTest, UpsertBatchIsOneGroupCommit) {
  DirectoryServer server(suffix_, "ldap://bulk");
  std::vector<Entry> batch;
  batch.push_back(schema::MakeHostEntry(suffix_, "dpss1"));
  for (int i = 0; i < 8; ++i) {
    batch.push_back(schema::MakeSensorEntry(
        suffix_, "dpss1", std::string("s").append(std::to_string(i)), "cpu",
        "inproc:gw.dpss1", 1000, 0));
  }
  const auto commits_before = server.stats().wal_commits;
  ASSERT_TRUE(server.UpsertBatch(batch).ok());
  EXPECT_EQ(server.stats().wal_commits, commits_before + 1);
  EXPECT_EQ(server.stats().entries, 9u);
  // A bad entry mid-batch aborts the whole transaction: nothing published.
  std::vector<Entry> bad;
  bad.push_back(schema::MakeHostEntry(suffix_, "dpss2"));
  bad.push_back(Entry(MustParse("cn=orphan, host=nope, ou=sensors, o=jamm")));
  EXPECT_FALSE(server.UpsertBatch(bad).ok());
  EXPECT_EQ(server.Lookup(schema::HostDn(suffix_, "dpss2")).status().code(),
            StatusCode::kNotFound);
}

// The PR-4 staleness regression (ISSUE 9 satellite): a plain Search used
// to carry the pre-renewal `leaseexpires`. A renewal stores into the lease
// cell without publishing a snapshot, and every search restamps from it.
TEST_F(LeaseTest, SearchServesRenewedLease) {
  Dn dn = AddLeasedSensor("dpss1", "vmstat", 10 * kSecond);
  Filter sensors = MustFilter("(objectclass=jammSensor)");
  auto warm = server_.Search(suffix_, SearchScope::kSubtree, sensors);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->entries.size(), 1u);
  EXPECT_EQ(*schema::LeaseExpiry(warm->entries[0]), 10 * kSecond);

  const auto swaps_before = server_.stats().snapshot_swaps;
  ASSERT_TRUE(server_.RenewLeases({dn}, 300 * kSecond).ok());
  EXPECT_EQ(server_.stats().snapshot_swaps, swaps_before);  // not structural

  auto renewed = server_.Search(suffix_, SearchScope::kSubtree, sensors);
  ASSERT_TRUE(renewed.ok());
  ASSERT_EQ(renewed->entries.size(), 1u);
  EXPECT_EQ(*schema::LeaseExpiry(renewed->entries[0]), 300 * kSecond);
}

// ------------------------------------------- RCU snapshot reads (ISSUE 9)

TEST(SnapshotReadTest, ReadsProceedUnderWriteSaturation) {
  SimClock clock(0);
  Dn suffix = MustParse("ou=sensors, o=jamm");
  DirectoryServer server(suffix, "ldap://rcu");
  server.SetClock(&clock);
  ASSERT_TRUE(server.Upsert(schema::MakeHostEntry(suffix, "dpss1")).ok());
  std::vector<Dn> dns;
  for (int i = 0; i < 32; ++i) {
    auto entry = schema::MakeSensorEntry(
        suffix, "dpss1", std::string("s").append(std::to_string(i)), "cpu",
        "inproc:gw.dpss1", 1000, 0);
    schema::StampLease(entry, kSecond);
    ASSERT_TRUE(server.Upsert(entry).ok());
    dns.push_back(entry.dn());
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> read_errors{0};
  std::atomic<std::uint64_t> reads_done{0};
  // Writer saturates the structural and renewal paths while a reader
  // hammers the snapshot; every read must succeed (renewals keep every
  // lease ahead of the frozen clock).
  std::thread writer([&] {
    TimePoint expiry = kSecond;
    for (int round = 0; round < 300; ++round) {
      expiry += kSecond;
      (void)server.RenewLeases(dns, expiry);
      (void)server.Upsert(
          schema::MakeHostEntry(suffix, "churn" + std::to_string(round % 8)));
    }
    stop.store(true);
  });
  std::thread reader([&] {
    Filter all = Filter::MatchAll();
    while (!stop.load()) {
      std::uint64_t i = reads_done.fetch_add(1);
      if (!server.Lookup(dns[i % dns.size()], "", /*live_only=*/true).ok()) {
        read_errors.fetch_add(1);
      }
      if (!server.Search(suffix, SearchScope::kSubtree, all, "", true).ok()) {
        read_errors.fetch_add(1);
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_GT(reads_done.load(), 0u);
  EXPECT_TRUE(server.Lookup(dns[0], "", true).ok());
}

TEST_F(LeaseTest, TombstoneExpiryRacesRepublication) {
  // Deterministic interleaving first: reap, re-publish the same DN, reap
  // again — the fresh lease must be spared by the next sweep.
  Dn dn = AddLeasedSensor("dpss1", "vmstat", 10 * kSecond);
  ASSERT_EQ(*server_.ExpireLeases(30 * kSecond), 1u);
  EXPECT_EQ(server_.Lookup(dn).status().code(), StatusCode::kNotFound);
  auto reborn = schema::MakeSensorEntry(suffix_, "dpss1", "vmstat", "cpu",
                                        "inproc:gw.dpss1", 1000, 0);
  schema::StampLease(reborn, 90 * kSecond);
  ASSERT_TRUE(server_.Upsert(reborn).ok());
  EXPECT_EQ(*server_.ExpireLeases(60 * kSecond), 0u);
  EXPECT_TRUE(server_.Lookup(dn).ok());

  // Then concurrently: the reaper's deepest-first sweep races an owner
  // re-publishing the same subtree. Any interleaving must keep the tree
  // consistent — a sensor present implies its host parent present.
  std::atomic<bool> stop{false};
  std::thread reaper([&] {
    for (int i = 1; i <= 150; ++i) {
      ASSERT_TRUE(server_.ExpireLeases(i * 5 * kSecond).ok());
    }
    stop.store(true);
  });
  std::thread owner([&] {
    std::uint64_t t = 0;
    while (!stop.load()) {
      ++t;
      auto host = schema::MakeHostEntry(suffix_, "dpss1");
      schema::StampLease(host, (t * 5 + 100) * kSecond);
      (void)server_.Upsert(host);
      auto sensor = schema::MakeSensorEntry(suffix_, "dpss1", "vmstat", "cpu",
                                            "inproc:gw.dpss1", 1000, 0);
      schema::StampLease(sensor, (t * 5 + 100) * kSecond);
      (void)server_.Upsert(sensor);  // may race the host's tombstone; fine
    }
  });
  reaper.join();
  owner.join();
  if (server_.Lookup(dn).ok()) {
    EXPECT_TRUE(server_.Lookup(schema::HostDn(suffix_, "dpss1")).ok());
  }
}

// --------------------------------------- Referral chasing pool (ISSUE 9)

class ShardPoolTest : public ::testing::Test {
 protected:
  ShardPoolTest()
      : clock_(0),
        suffix_(MustParse("ou=sensors, o=jamm")),
        anl_(MustParse("site=anl, ou=sensors, o=jamm")),
        root_(std::make_shared<DirectoryServer>(suffix_, "ldap://root")),
        shard_(std::make_shared<DirectoryServer>(anl_, "ldap://anl")) {
    root_->SetClock(&clock_);
    shard_->SetClock(&clock_);
    pool_.AddServer(root_);
    pool_.SetResolver([this](const std::string& address)
                          -> std::shared_ptr<DirectoryServer> {
      return address == "ldap://anl" ? shard_ : nullptr;
    });
    pool_.SetReferralCacheTtl(30 * kSecond, clock_);
    Entry base(suffix_);
    base.Set(schema::kAttrObjectClass, "organization");
    EXPECT_TRUE(root_->Add(base).ok());
    Entry site(anl_);
    site.Set(schema::kAttrObjectClass, "organizationalUnit");
    EXPECT_TRUE(shard_->Add(site).ok());
    root_->AddReferral(anl_, "ldap://anl");
  }

  SimClock clock_;
  Dn suffix_;
  Dn anl_;
  std::shared_ptr<DirectoryServer> root_;
  std::shared_ptr<DirectoryServer> shard_;
  DirectoryPool pool_;
};

TEST_F(ShardPoolTest, LookupChasesReferralAndCachesRoute) {
  ASSERT_TRUE(shard_->Upsert(schema::MakeHostEntry(anl_, "mcs1")).ok());
  auto found = pool_.Lookup(schema::HostDn(anl_, "mcs1"));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(pool_.last_served_by(), "ldap://anl");
  EXPECT_EQ(pool_.referral_cache_size(), 1u);
  // The second lookup rides the cached route (no referral round trip).
  auto& hits = telemetry::Metrics().counter(
      "directory.pool.referral_cache_hits");
  const auto hits_before = hits.Value();
  ASSERT_TRUE(pool_.Lookup(schema::HostDn(anl_, "mcs1")).ok());
  EXPECT_GT(hits.Value(), hits_before);
}

TEST_F(ShardPoolTest, WritesChaseReferral) {
  auto host = schema::MakeHostEntry(anl_, "mcs2");
  ASSERT_TRUE(pool_.Upsert(host).ok());  // root aborts; the pool chases
  EXPECT_TRUE(shard_->Lookup(host.dn()).ok());
  EXPECT_EQ(root_->Lookup(host.dn()).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(pool_.Delete(host.dn()).ok());
  EXPECT_EQ(shard_->Lookup(host.dn()).status().code(), StatusCode::kNotFound);
}

TEST_F(ShardPoolTest, SearchMergesChasedShardResults) {
  ASSERT_TRUE(root_->Upsert(schema::MakeHostEntry(suffix_, "lbl1")).ok());
  ASSERT_TRUE(shard_->Upsert(schema::MakeHostEntry(anl_, "mcs1")).ok());
  auto result =
      pool_.Search(suffix_, SearchScope::kSubtree, Filter::MatchAll());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->referrals.empty());  // chased, not surfaced
  std::vector<std::string> dns;
  for (const Entry& e : result->entries) dns.push_back(e.dn().ToString());
  EXPECT_NE(std::find(dns.begin(), dns.end(),
                      schema::HostDn(suffix_, "lbl1").ToString()),
            dns.end());
  EXPECT_NE(std::find(dns.begin(), dns.end(),
                      schema::HostDn(anl_, "mcs1").ToString()),
            dns.end());
  // Merged and deduplicated: every DN appears exactly once.
  std::vector<std::string> uniq = dns;
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  EXPECT_EQ(uniq.size(), dns.size());
}

TEST_F(ShardPoolTest, RenewalsRegroupAcrossShards) {
  ASSERT_TRUE(root_->Upsert(schema::MakeHostEntry(suffix_, "lbl1")).ok());
  auto local = schema::MakeSensorEntry(suffix_, "lbl1", "vmstat", "cpu",
                                       "inproc:gw.lbl1", 1000, 0);
  schema::StampLease(local, 10 * kSecond);
  ASSERT_TRUE(root_->Upsert(local).ok());
  ASSERT_TRUE(shard_->Upsert(schema::MakeHostEntry(anl_, "mcs1")).ok());
  auto remote = schema::MakeSensorEntry(anl_, "mcs1", "netstat", "network",
                                        "inproc:gw.mcs1", 1000, 0);
  schema::StampLease(remote, 10 * kSecond);
  ASSERT_TRUE(shard_->Upsert(remote).ok());

  // One heartbeat batch spanning both shards: the root renews its own,
  // refers the anl DN away, and the pool re-groups and renews it there.
  std::vector<Dn> missing;
  auto renewed = pool_.RenewLeases({local.dn(), remote.dn()}, 60 * kSecond,
                                   "", &missing);
  ASSERT_TRUE(renewed.ok());
  EXPECT_EQ(*renewed, 2u);
  EXPECT_TRUE(missing.empty());
  EXPECT_EQ(*schema::LeaseExpiry(*root_->Lookup(local.dn())), 60 * kSecond);
  EXPECT_EQ(*schema::LeaseExpiry(*shard_->Lookup(remote.dn())), 60 * kSecond);
}

TEST_F(ShardPoolTest, ReferralCacheExpiresWithLeaseTtl) {
  ASSERT_TRUE(shard_->Upsert(schema::MakeHostEntry(anl_, "mcs1")).ok());
  ASSERT_TRUE(pool_.Lookup(schema::HostDn(anl_, "mcs1")).ok());
  EXPECT_EQ(pool_.referral_cache_size(), 1u);
  clock_.Advance(31 * kSecond);  // past the TTL (== the lease bound)
  // The cached route is expired: the next lookup drops it and re-chases
  // through the root's referral, then re-caches with a fresh TTL.
  auto& chases =
      telemetry::Metrics().counter("directory.pool.referral_chases");
  const auto chases_before = chases.Value();
  ASSERT_TRUE(pool_.Lookup(schema::HostDn(anl_, "mcs1")).ok());
  EXPECT_GT(chases.Value(), chases_before);
  EXPECT_EQ(pool_.referral_cache_size(), 1u);
}

// ------------------------------------------- Replication depth (ISSUE 9)

TEST(ReplicatorQuorumTest, QuorumSeqTracksMajority) {
  Dn suffix = MustParse("ou=sensors, o=jamm");
  auto primary = std::make_shared<DirectoryServer>(suffix, "ldap://p");
  auto r1 = std::make_shared<DirectoryServer>(suffix, "ldap://r1");
  auto r2 = std::make_shared<DirectoryServer>(suffix, "ldap://r2");
  Replicator replicator(primary);
  replicator.AddReplica(r1);
  replicator.AddReplica(r2);
  ASSERT_TRUE(primary->Upsert(schema::MakeHostEntry(suffix, "a")).ok());
  ASSERT_TRUE(primary->Upsert(schema::MakeHostEntry(suffix, "b")).ok());
  ASSERT_TRUE(primary->Upsert(schema::MakeHostEntry(suffix, "c")).ok());
  // Only the primary holds seq 3: one of three is not a majority.
  EXPECT_EQ(replicator.QuorumSeq(), 0u);
  r2->SetAlive(false);
  replicator.SyncAll();  // r1 catches up; r2 stays dark
  EXPECT_EQ(replicator.QuorumSeq(), 3u);  // primary + r1 = 2 of 3
}

TEST(ReplicatorBackoffTest, DownReplicaBacksOffThenResyncs) {
  Dn suffix = MustParse("ou=sensors, o=jamm");
  auto primary = std::make_shared<DirectoryServer>(suffix, "ldap://p");
  auto replica = std::make_shared<DirectoryServer>(suffix, "ldap://r");
  Replicator replicator(primary);
  replicator.AddReplica(replica);
  replicator.set_max_backoff_rounds(4);
  ASSERT_TRUE(primary->Upsert(schema::MakeHostEntry(suffix, "a")).ok());

  auto& lagging = telemetry::Metrics().counter("dir.replica.lagging");
  auto& resynced = telemetry::Metrics().counter("dir.replica.resynced");
  const auto lag_before = lagging.Value();
  const auto resynced_before = resynced.Value();

  replica->SetAlive(false);
  for (int round = 0; round < 6; ++round) {
    EXPECT_EQ(replicator.SyncAll(), 0u);
    EXPECT_EQ(replicator.replica_offset(0), 0u);
  }
  EXPECT_GT(lagging.Value(), lag_before);
  EXPECT_EQ(resynced.Value(), resynced_before);
  EXPECT_TRUE(replicator.Converged());  // down replicas don't count as live

  // Back up: the next round probes immediately (no residual backoff),
  // ships the backlog, and ticks the resync counter exactly once.
  replica->SetAlive(true);
  EXPECT_GT(replicator.SyncAll(), 0u);
  EXPECT_TRUE(replicator.Converged());
  EXPECT_TRUE(replica->Lookup(schema::HostDn(suffix, "a")).ok());
  EXPECT_EQ(resynced.Value(), resynced_before + 1);
}

TEST(ReplicatorBackoffTest, ReplicaSurvivesItsOwnCrash) {
  Dn suffix = MustParse("ou=sensors, o=jamm");
  auto primary = std::make_shared<DirectoryServer>(suffix, "ldap://p");
  auto replica = std::make_shared<DirectoryServer>(suffix, "ldap://r");
  Replicator replicator(primary);
  replicator.AddReplica(replica);
  ASSERT_TRUE(primary->Upsert(schema::MakeHostEntry(suffix, "a")).ok());
  ASSERT_TRUE(primary->Upsert(schema::MakeHostEntry(suffix, "b")).ok());
  ASSERT_GT(replicator.SyncAll(), 0u);
  ASSERT_TRUE(replicator.Converged());

  // Replicated changes are WAL-logged on the replica too: its own crash
  // loses nothing it acked, and shipping resumes where it left off.
  replica->Crash();
  auto recovery = replica->Restart();
  EXPECT_EQ(recovery.entries, 2u);
  EXPECT_TRUE(replica->Lookup(schema::HostDn(suffix, "a")).ok());
  ASSERT_TRUE(primary->Upsert(schema::MakeHostEntry(suffix, "c")).ok());
  EXPECT_GT(replicator.SyncAll(), 0u);
  EXPECT_TRUE(replicator.Converged());
  EXPECT_TRUE(replica->Lookup(schema::HostDn(suffix, "c")).ok());
}

// --------------------------------------------- Shard migration (ISSUE 9)

TEST(ShardMigrationTest, OnlineSplitServesEveryRead) {
  SimClock clock(0);
  Dn suffix = MustParse("ou=sensors, o=jamm");
  Dn anl = MustParse("site=anl, ou=sensors, o=jamm");
  auto source = std::make_shared<DirectoryServer>(suffix, "ldap://root");
  auto target = std::make_shared<DirectoryServer>(anl, "ldap://anl");
  source->SetClock(&clock);
  target->SetClock(&clock);

  Entry base(suffix);
  base.Set(schema::kAttrObjectClass, "organization");
  ASSERT_TRUE(source->Add(base).ok());
  Entry site(anl);
  site.Set(schema::kAttrObjectClass, "organizationalUnit");
  ASSERT_TRUE(source->Add(site).ok());
  std::vector<Dn> population;
  for (int i = 0; i < 12; ++i) {
    auto host = schema::MakeHostEntry(anl, "mcs" + std::to_string(i));
    ASSERT_TRUE(source->Upsert(host).ok());
    population.push_back(host.dn());
  }
  ASSERT_TRUE(source->Upsert(schema::MakeHostEntry(suffix, "lbl1")).ok());

  DirectoryPool pool;
  pool.AddServer(source);
  pool.SetResolver([&](const std::string& address)
                       -> std::shared_ptr<DirectoryServer> {
    return address == "ldap://anl" ? target : nullptr;
  });

  ShardMigrator::Options options;
  options.copy_batch = 4;  // several copy steps so traffic interleaves
  ShardMigrator migrator(source, target, anl, options);
  std::uint64_t failed_reads = 0;
  int round = 0;
  while (migrator.phase() != ShardMigrator::Phase::kDone) {
    ASSERT_LT(round, 1000) << "migration failed to converge";
    auto phase = migrator.Step();
    ASSERT_TRUE(phase.ok()) << phase.status().ToString();
    // Zero failed reads: the whole population answers at every point.
    for (const Dn& dn : population) {
      if (!pool.Lookup(dn).ok()) ++failed_reads;
    }
    // Writes keep landing mid-migration (on the source until the cutover,
    // chased to the target after). Bounded so the catch-up loop drains.
    if (round < 6) {
      auto churn = schema::MakeHostEntry(anl, "new" + std::to_string(round));
      ASSERT_TRUE(pool.Upsert(churn).ok());
      population.push_back(churn.dn());
    }
    ++round;
  }
  EXPECT_EQ(failed_reads, 0u);
  EXPECT_GT(migrator.stats().copied, 0u);

  // Accounting exact: the subtree lives on the target once each; the
  // source answers it with a referral and holds no local copies.
  auto moved = target->Search(anl, SearchScope::kSubtree, Filter::MatchAll());
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->entries.size(), 1 + population.size());  // site + hosts
  auto ref = source->MatchReferral(population.front());
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->target, "ldap://anl");
  EXPECT_EQ(source->Lookup(population.front()).status().code(),
            StatusCode::kNotFound);
  for (const Dn& dn : population) {
    EXPECT_TRUE(pool.Lookup(dn).ok()) << dn.ToString();
  }
  // The entry outside the subtree never moved.
  EXPECT_TRUE(source->Lookup(schema::HostDn(suffix, "lbl1")).ok());
  EXPECT_FALSE(target->Lookup(schema::HostDn(suffix, "lbl1")).ok());
}

TEST(ShardMigrationTest, RevivedPrimaryRejoinsMidMigration) {
  Dn suffix = MustParse("ou=sensors, o=jamm");
  Dn anl = MustParse("site=anl, ou=sensors, o=jamm");
  auto primary = std::make_shared<DirectoryServer>(suffix, "ldap://primary");
  auto replica = std::make_shared<DirectoryServer>(suffix, "ldap://replica");
  auto target = std::make_shared<DirectoryServer>(anl, "ldap://anl");
  Replicator replicator(primary);
  replicator.AddReplica(replica);
  DirectoryPool pool;
  pool.AddServer(primary);
  pool.AddServer(replica);
  pool.SetResolver([&](const std::string& address)
                       -> std::shared_ptr<DirectoryServer> {
    return address == "ldap://anl" ? target : nullptr;
  });

  Entry base(suffix);
  base.Set(schema::kAttrObjectClass, "organization");
  ASSERT_TRUE(primary->Add(base).ok());
  Entry site(anl);
  site.Set(schema::kAttrObjectClass, "organizationalUnit");
  ASSERT_TRUE(primary->Add(site).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        primary->Upsert(schema::MakeHostEntry(anl, "mcs" + std::to_string(i)))
            .ok());
  }
  replicator.SyncAll();
  ASSERT_TRUE(replicator.Converged());

  // The primary dies; a write promotes the replica (sticky failover).
  primary->SetAlive(false);
  ASSERT_TRUE(pool.Upsert(schema::MakeHostEntry(suffix, "lbl9")).ok());
  EXPECT_EQ(pool.write_primary(), "ldap://replica");

  // The promoted replica starts splitting the anl subtree off…
  ShardMigrator::Options options;
  options.copy_batch = 2;
  ShardMigrator migrator(replica, target, anl, options);
  ASSERT_TRUE(migrator.Step().ok());  // mid-copy

  // …and the old primary revives mid-migration. Failover is sticky:
  // writes stay on the promoted replica; the stale primary takes no write.
  primary->SetAlive(true);
  ASSERT_TRUE(pool.Upsert(schema::MakeHostEntry(suffix, "lbl10")).ok());
  EXPECT_EQ(pool.write_primary(), "ldap://replica");
  EXPECT_FALSE(primary->Lookup(schema::HostDn(suffix, "lbl10")).ok());

  ASSERT_TRUE(migrator.Run().ok());

  // Reconvergence: a replicator rooted at the promoted server pushes the
  // revived primary everything it missed — the failover writes, the
  // tombstones, and the durable referral from the cutover.
  Replicator reverse(replica);
  reverse.AddReplica(primary);
  reverse.SyncAll();
  EXPECT_TRUE(reverse.Converged());
  EXPECT_TRUE(primary->Lookup(schema::HostDn(suffix, "lbl10")).ok());
  auto ref = primary->MatchReferral(schema::HostDn(anl, "mcs0"));
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->target, "ldap://anl");
  EXPECT_FALSE(primary->Lookup(schema::HostDn(anl, "mcs0")).ok());
  // Whichever pool member answers, every entry is reachable (the primary
  // is first in read order, so this exercises its referral too).
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(pool.Lookup(schema::HostDn(anl, "mcs" + std::to_string(i)))
                    .ok());
  }
  EXPECT_TRUE(pool.Lookup(schema::HostDn(suffix, "lbl9")).ok());
}

// ---------------------------------------------- equality index ≡ scan

// The index only chooses candidates; Search must return exactly what a
// brute-force Matches over every held entry returns, whatever write path
// built the snapshot. Values differ only in case on purpose: equality is
// case-sensitive, attribute names are not.
constexpr const char* kIdxHosts[] = {"h1", "H1", "h2", "h10"};
constexpr const char* kIdxClasses[] = {"jammSensor", "JammSensor", "top",
                                       "jammHost", "jammArchive"};
constexpr const char* kIdxTypes[] = {"cpu", "CPU", "net"};

template <typename Array>
std::string Pick(Rng& rng, const Array& values) {
  return values[rng.Uniform(0, static_cast<std::int64_t>(std::size(values)) -
                                   1)];
}

Entry RandomIndexedEntry(Rng& rng, const Dn& dn) {
  Entry e(dn);
  // Zero, one or two objectclass/host values (duplicates allowed).
  for (auto n = rng.Uniform(0, 2); n > 0; --n) {
    e.Add(rng.Chance(0.5) ? "objectClass" : "objectclass",
          Pick(rng, kIdxClasses));
  }
  for (auto n = rng.Uniform(0, 2); n > 0; --n) {
    e.Add(rng.Chance(0.5) ? "HOST" : "host", Pick(rng, kIdxHosts));
  }
  if (rng.Chance(0.7)) e.Set("sensortype", Pick(rng, kIdxTypes));
  if (rng.Chance(0.5)) {
    e.Set("frequencyms", std::to_string(rng.Uniform(0, 2000)));
  }
  if (rng.Chance(0.3)) schema::StampLease(e, rng.Uniform(1, 100) * kSecond);
  return e;
}

std::string RandomIndexLeaf(Rng& rng) {
  constexpr const char* kClassAttr[] = {"objectclass", "objectClass"};
  constexpr const char* kHostAttr[] = {"host", "Host"};
  switch (rng.Uniform(0, 8)) {
    case 0:
    case 1:
      return "(" + Pick(rng, kClassAttr) + "=" + Pick(rng, kIdxClasses) + ")";
    case 2:
    case 3:
      return "(" + Pick(rng, kHostAttr) + "=" + Pick(rng, kIdxHosts) + ")";
    case 4:
      return "(sensortype=" + Pick(rng, kIdxTypes) + ")";
    case 5: {
      constexpr const char* kPresent[] = {"host", "objectclass", "sensortype",
                                          "leaseexpires"};
      return "(" + Pick(rng, kPresent) + "=*)";
    }
    case 6: {
      constexpr const char* kSubstrings[] = {"(host=h*)", "(host=*1)",
                                             "(objectclass=*Sensor)"};
      return Pick(rng, kSubstrings);
    }
    case 7:
      return "(frequencyms>=" + std::to_string(rng.Uniform(0, 2000)) + ")";
    default:
      return "(frequencyms<=" + std::to_string(rng.Uniform(0, 2000)) + ")";
  }
}

std::string RandomIndexFilter(Rng& rng, int depth) {
  if (depth == 0 || rng.Chance(0.3)) return RandomIndexLeaf(rng);
  if (rng.Chance(0.2)) return "(!" + RandomIndexFilter(rng, depth - 1) + ")";
  std::string out = rng.Chance(0.5) ? "(&" : "(|";
  for (auto n = rng.Uniform(1, 3); n > 0; --n) {
    out += RandomIndexFilter(rng, depth - 1);
  }
  return out + ")";
}

class IndexPropertyTest : public ::testing::Test {
 protected:
  IndexPropertyTest() : suffix_(MustParse("ou=sensors, o=jamm")) {
    // Host containers and an archive container, five leaves under each;
    // kept in DN-key order, the order Search returns.
    std::vector<Dn> parents;
    for (const char* host : kIdxHosts) {
      parents.push_back(schema::HostDn(suffix_, host));
    }
    parents.push_back(suffix_.Child("ou", "archives"));
    for (const Dn& parent : parents) {
      dns_.push_back(parent);
      for (int i = 0; i < 5; ++i) {
        dns_.push_back(
            parent.Child("cn", std::string("s").append(std::to_string(i))));
      }
    }
    std::sort(dns_.begin(), dns_.end(), [](const Dn& a, const Dn& b) {
      return a.ToString() < b.ToString();
    });
  }

  /// Random Add/Modify/Delete/Upsert; failures (missing parent, existing
  /// entry, children, referred subtree) are part of the mix.
  void Mutate(DirectoryServer& server, Rng& rng, int ops) {
    for (int op = 0; op < ops; ++op) {
      const Dn& dn = dns_[rng.Uniform(0, static_cast<std::int64_t>(dns_.size()) - 1)];
      switch (rng.Uniform(0, 3)) {
        case 0: (void)server.Add(RandomIndexedEntry(rng, dn)); break;
        case 1: (void)server.Modify(RandomIndexedEntry(rng, dn)); break;
        case 2: (void)server.Upsert(RandomIndexedEntry(rng, dn)); break;
        default: (void)server.Delete(dn); break;
      }
    }
  }

  /// Random filters over all three scopes against the brute-force oracle:
  /// every held entry, read through Lookup (which never consults the
  /// index), in scope and passing Matches.
  void ExpectSearchEqualsScan(const DirectoryServer& server, Rng& rng,
                              const std::string& stage) {
    std::vector<Entry> held;
    for (const Dn& dn : dns_) {
      if (auto entry = server.Lookup(dn); entry.ok()) held.push_back(*entry);
    }
    for (int trial = 0; trial < 80; ++trial) {
      const Filter filter = MustFilter(RandomIndexFilter(rng, 3));
      const auto scope = static_cast<SearchScope>(rng.Uniform(0, 2));
      const Dn base =
          rng.Chance(0.3)
              ? suffix_
              : dns_[rng.Uniform(0, static_cast<std::int64_t>(dns_.size()) - 1)];
      std::vector<Entry> want;
      for (const Entry& entry : held) {
        const Dn& dn = entry.dn();
        const bool in_scope = scope == SearchScope::kBase       ? dn == base
                              : scope == SearchScope::kOneLevel ? dn.IsChildOf(base)
                                                                : dn.IsUnder(base);
        if (in_scope && filter.Matches(entry)) want.push_back(entry);
      }
      auto got = server.Search(base, scope, filter);
      ASSERT_TRUE(got.ok()) << stage;
      if (!want.empty()) ++nonempty_;
      ASSERT_EQ(got->entries, want)
          << stage << ": " << filter.ToString() << " scope "
          << static_cast<int>(scope) << " base " << base.ToString();
    }
  }

  Dn suffix_;
  std::vector<Dn> dns_;
  int nonempty_ = 0;  // searches whose oracle found something
};

TEST_F(IndexPropertyTest, SearchEqualsBruteForceScanOnEveryWritePath) {
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    SimClock clock(0);
    DirectoryServer server(suffix_, "ldap://primary");
    server.SetClock(&clock);
    DirectoryServer replica(suffix_, "ldap://replica");

    // Bulk load, parents first (dns_ is in key order, which puts the
    // "cn=…" leaves before their parents; sort by depth).
    std::vector<Dn> by_depth = dns_;
    std::stable_sort(by_depth.begin(), by_depth.end(),
                     [](const Dn& a, const Dn& b) { return a.depth() < b.depth(); });
    std::vector<Entry> batch;
    for (const Dn& dn : by_depth) {
      const bool parent_loaded =
          dn.Parent() == suffix_ ||
          std::any_of(batch.begin(), batch.end(),
                      [&](const Entry& e) { return e.dn() == dn.Parent(); });
      if (parent_loaded && rng.Chance(0.8)) {
        batch.push_back(RandomIndexedEntry(rng, dn));
      }
    }
    ASSERT_TRUE(server.UpsertBatch(batch).ok());
    ExpectSearchEqualsScan(server, rng, "UpsertBatch");

    Mutate(server, rng, 60);
    ExpectSearchEqualsScan(server, rng, "Add/Modify/Upsert/Delete");

    clock.Set(50 * kSecond);
    ASSERT_TRUE(server.ExpireLeases(clock.Now()).ok());
    ExpectSearchEqualsScan(server, rng, "ExpireLeases");

    ASSERT_TRUE(replica.ApplyReplicatedBatch(server.ChangesSince(0)).ok());
    ExpectSearchEqualsScan(replica, rng, "ApplyReplicatedBatch");

    ASSERT_TRUE(server
                    .CutoverSubtree(schema::HostDn(suffix_, "h1"),
                                    "ldap://other")
                    .ok());
    ExpectSearchEqualsScan(server, rng, "CutoverSubtree");

    Mutate(server, rng, 40);
    server.Crash();
    server.Restart();
    ExpectSearchEqualsScan(server, rng, "Crash+Restart");

    ASSERT_TRUE(replica
                    .ApplyReplicatedBatch(
                        server.ChangesSince(replica.last_seq()))
                    .ok());
    ExpectSearchEqualsScan(replica, rng, "replica catch-up");
  }
  EXPECT_GT(nonempty_, 4 * 7 * 80 / 4) << "the oracle matched too little";
}

}  // namespace
}  // namespace jamm::directory
