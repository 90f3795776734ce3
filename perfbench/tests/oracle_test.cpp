// Tests of the benchmark's correctness oracle: it must notice a dropped
// event, a duplicated event, a changed event and a wrong query answer,
// both on hand-made observations and on a real archive whose contents or
// answers were tampered with.
//
// Run: python3 perfbench/run.py --self-test
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "archive/analysis.hpp"
#include "archive/archive.hpp"
#include "oracle.hpp"
#include "ulm/record.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("  FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;

std::vector<Event> Inputs(std::uint64_t seed, std::uint32_t hosts,
                          std::size_t n) {
  Generator gen(seed, hosts);
  std::vector<Event> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

std::vector<Observed> Expect(const std::vector<Event>& events) {
  std::vector<Observed> out;
  for (const auto& e : events) out.push_back({e.seq, ContentHash(e)});
  return out;
}

jamm::ulm::Record ToRecord(const Event& e) {
  jamm::ulm::Record rec(EventTs(e.seq), HostName(e.host), kProg, kLvl,
                        KindName(e.kind));
  rec.SetField(kValField, std::to_string(e.val));
  rec.SetField(kSeqField, std::to_string(e.seq));
  if (e.obj != 0) rec.SetField(kObjField, ObjectId(e.obj));
  return rec;
}

std::uint64_t HashOf(const jamm::ulm::Record& rec) {
  std::vector<std::pair<std::string_view, std::string_view>> fields;
  for (const auto& [k, v] : rec.fields()) fields.emplace_back(k, v);
  return ContentHash(rec.host(), rec.prog(), rec.lvl(), rec.event_name(),
                     rec.timestamp(), fields);
}

/// Reads an archive back the way the benchmark does: (seq, content hash).
std::vector<Observed> ReadBack(const jamm::archive::EventArchive& archive,
                               std::size_t n) {
  std::vector<Observed> out;
  for (const auto& rec : archive.QueryRange(EventTs(0), EventTs(n + 1))) {
    out.push_back({static_cast<std::uint64_t>(*rec.GetInt(kSeqField)),
                   HashOf(rec)});
  }
  return out;
}

void TestReconcileExact() {
  const auto events = Inputs(7, 4, 200);
  const Tally t = Reconcile(Expect(events), Expect(events));
  CHECK(t.expected == 200 && t.matched == 200 && t.failed() == 0);
}

void TestReconcileCatchesDrop() {
  const auto events = Inputs(7, 4, 200);
  auto seen = Expect(events);
  seen.erase(seen.begin() + 57);
  const Tally t = Reconcile(Expect(events), seen);
  CHECK(t.missing == 1 && t.duplicated == 0 && t.wrong == 0);
}

void TestReconcileCatchesDuplicate() {
  const auto events = Inputs(7, 4, 200);
  auto seen = Expect(events);
  seen.push_back(seen[123]);
  const Tally t = Reconcile(Expect(events), seen);
  CHECK(t.duplicated == 1 && t.missing == 0 && t.wrong == 0);
}

void TestReconcileCatchesChangedAndStray() {
  const auto events = Inputs(7, 4, 200);
  auto seen = Expect(events);
  seen[10].hash ^= 1;                  // same event, different content
  seen.push_back({999999, 42});        // an event nobody logged
  const Tally t = Reconcile(Expect(events), seen);
  CHECK(t.wrong == 2 && t.missing == 1 && t.duplicated == 0);
}

void TestReconcileCountsMultiplicity() {
  // Two subscriptions on one connection both pass event 5: it is expected
  // twice, so seeing it once is a loss.
  const auto events = Inputs(7, 4, 20);
  auto expected = Expect(events);
  expected.push_back(expected[5]);
  const Tally once = Reconcile(expected, Expect(events));
  CHECK(once.missing == 1 && once.matched == 20);
  auto twice = Expect(events);
  twice.push_back(twice[5]);
  CHECK(Reconcile(expected, twice).failed() == 0);
}

void TestContentHashIgnoresTraceFieldsOnly() {
  const Event e = Inputs(3, 2, 1)[0];
  auto rec = ToRecord(e);
  CHECK(HashOf(rec) == ContentHash(e));
  rec.SetField("TRACE.ID", "abc");
  rec.SetField("HOP.ARCHIVER", "17");
  CHECK(HashOf(rec) == ContentHash(e));
  rec.SetField(kValField, std::to_string(e.val + 1));
  CHECK(HashOf(rec) != ContentHash(e));
}

void TestXmlEvent() {
  Event e;
  e.seq = 42;
  e.host = 3;
  e.kind = 11;
  e.val = 7;
  e.obj = 9;
  // 1700000000000042 µs = 2023-11-14 22:13:20.000042 UTC.
  const std::string xml =
      "<event date=\"20231114221320.000042\" host=\"node0003.lbl.gov\" "
      "prog=\"app\" lvl=\"Usage\" name=\"XFER_READ\"><field "
      "name=\"VAL\">7</field><field name=\"SEQ\">42</field><field "
      "name=\"OBJ.ID\">o9</field><field name=\"TRACE.ID\">ff</field></event>";
  std::uint64_t seq = 0, hash = 0;
  CHECK(ObserveXmlEvent(xml, seq, hash));
  CHECK(seq == 42 && hash == ContentHash(e));
  std::string wrong = xml;
  wrong.replace(wrong.find(">7<"), 3, ">8<");
  CHECK(ObserveXmlEvent(wrong, seq, hash) && hash != ContentHash(e));
  CHECK(!ObserveXmlEvent("<nonsense/>", seq, hash));
}

void TestGeneratorIsSeeded() {
  const auto a = Inputs(11, 8, 500), b = Inputs(11, 8, 500),
             c = Inputs(12, 8, 500);
  CHECK(Expect(a).size() == 500);
  bool same = true, differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same &= ContentHash(a[i]) == ContentHash(b[i]);
    differs |= ContentHash(a[i]) != ContentHash(c[i]);
  }
  CHECK(same && differs);
}

void TestReferenceFilters() {
  auto run = [](FilterRef spec, const std::vector<int>& vals) {
    RefFilter f(std::move(spec));
    std::string out;
    for (int v : vals) {
      Event e;
      e.kind = 0;  // CPU_LOAD
      e.val = v;
      out += f.Pass(e) ? '1' : '0';
    }
    return out;
  };
  using M = FilterRef::Mode;
  const std::vector<int> vals = {10, 10, 60, 60, 40, 70, 60, 100};
  CHECK(run({M::kAll, "", 0}, vals) == "11111111");
  CHECK(run({M::kAll, "MEM_*", 0}, vals) == "00000000");
  CHECK(run({M::kOnChange, "CPU_*", 0}, vals) == "10101111");
  CHECK(run({M::kThreshold, "", 50}, vals) == "00101100");
  CHECK(run({M::kDelta, "", 20}, vals) == "10101101");
  // Boundaries: a change of exactly the delta passes; a value equal to
  // the threshold is not above it.
  CHECK(run({M::kDelta, "", 20}, {10, 12, 12, 9}) == "1101");
  CHECK(run({M::kThreshold, "", 50}, {50, 51, 50}) == "011");
  CHECK(FilterRef({M::kDelta, "CPU_*", 20}).Spec() == "delta:20|CPU_*");
}

/// A real archive: the reference answers match the engine's on the true
/// contents, and stop matching when the archive lost or gained an event.
void TestArchiveAnswers() {
  const auto events = Inputs(5, 6, 4000);
  jamm::archive::SegmentConfig config;
  config.max_records = 512;
  config.compress_sealed = true;
  auto build = [&](std::size_t skip, std::size_t twice) {
    auto a = std::make_unique<jamm::archive::EventArchive>("t", 1, config);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i == skip) continue;
      a->Ingest(ToRecord(events[i]));
      if (i == twice) a->Ingest(ToRecord(events[i]));
    }
    a->SealActive();
    return a;
  };
  const ArchiveRef ref(events);
  const std::int64_t t0 = EventTs(1000), t1 = EventTs(3000);
  jamm::archive::AnalysisSpec agg;
  agg.value_field = kValField;
  jamm::archive::AnalysisSpec life;
  life.event_glob = "XFER_*";
  life.id_fields = {kObjField};
  jamm::archive::AnalysisSpec load;
  load.event_glob = "NET_*";
  load.value_field = kValField;
  load.bucket = 250;

  auto answers_match = [&](const jamm::archive::EventArchive& a) {
    jamm::archive::AnalysisEngine engine(a);
    std::vector<RefAggRow> rows;
    for (const auto& r : engine.Aggregate(agg, t0, t1)) {
      rows.push_back({r.event, r.count, r.value_count, r.sum, r.mean, r.min,
                      r.max, r.p50, r.p95});
    }
    std::vector<RefLifeline> lines;
    for (const auto& l : engine.Lifelines(life, t0, t1)) {
      RefLifeline line{l.object_id, {}};
      for (const auto& h : l.hops) line.hops.push_back({h.ts, h.event, h.host, h.prog});
      lines.push_back(std::move(line));
    }
    std::vector<RefBucket> buckets;
    for (const auto& b : engine.Loadline(load, t0, t1)) {
      buckets.push_back({b.bucket_start, b.count, b.value_count, b.mean, b.min,
                         b.max, b.pct});
    }
    return std::vector<bool>{rows == ref.Aggregate("", t0, t1),
                             lines == ref.Lifelines("XFER_*", t0, t1),
                             buckets == ref.Loadline("NET_*", "", 250, 95, t0, t1)};
  };

  const auto good = build(SIZE_MAX, SIZE_MAX);
  CHECK(Reconcile(Expect(events), ReadBack(*good, events.size())).failed() == 0);
  CHECK((answers_match(*good) == std::vector<bool>{true, true, true}));

  // Drop a stage event inside the window: the read-back misses it and the
  // aggregate and lifeline answers no longer equal the reference.
  std::size_t stage = 1500;
  while (events[stage].obj == 0) ++stage;
  const auto dropped = build(stage, SIZE_MAX);
  const Tally lost = Reconcile(Expect(events), ReadBack(*dropped, events.size()));
  CHECK(lost.missing == 1 && lost.failed() == 1);
  const auto after_drop = answers_match(*dropped);
  CHECK(!after_drop[0] && !after_drop[1]);

  // Store a NET_* event twice: a duplicate, and a wrong loadline.
  std::size_t net = 2000;
  while (std::string(KindName(events[net].kind)).rfind("NET_", 0) != 0) ++net;
  const auto doubled = build(SIZE_MAX, net);
  const Tally dup = Reconcile(Expect(events), ReadBack(*doubled, events.size()));
  CHECK(dup.duplicated == 1 && dup.failed() == 1);
  const auto after_dup = answers_match(*doubled);
  CHECK(!after_dup[0] && !after_dup[2]);
}

}  // namespace

int main() {
  const std::vector<std::pair<const char*, std::function<void()>>> tests = {
      {"ReconcileExact", TestReconcileExact},
      {"ReconcileCatchesDrop", TestReconcileCatchesDrop},
      {"ReconcileCatchesDuplicate", TestReconcileCatchesDuplicate},
      {"ReconcileCatchesChangedAndStray", TestReconcileCatchesChangedAndStray},
      {"ReconcileCountsMultiplicity", TestReconcileCountsMultiplicity},
      {"ContentHashIgnoresTraceFieldsOnly", TestContentHashIgnoresTraceFieldsOnly},
      {"XmlEvent", TestXmlEvent},
      {"GeneratorIsSeeded", TestGeneratorIsSeeded},
      {"ReferenceFilters", TestReferenceFilters},
      {"ArchiveAnswers", TestArchiveAnswers},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("%s %s\n", g_failures == before ? "ok  " : "FAIL", name);
  }
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
