// The benchmark's inputs and its correctness oracle.
//
// Inputs come only from the seed: Generator yields the events simulated
// applications log, in a fixed order. The oracle never asks the code under
// test what the answer should be: it replays the generator and computes
// every expected delivery, archive content and query answer itself, with
// its own small reference implementations of the gateway filters and of
// the lifeline / loadline / aggregate primitives.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

// ------------------------------------------------------------------ inputs

inline constexpr int kSpecies = 10;  // plain event species, each with VAL
inline constexpr int kStages = 4;    // stages of a multi-stage object
inline constexpr int kKinds = kSpecies + kStages;
/// Event name of kind k: species 0..9, then object stages 10..13.
const char* KindName(int kind);

inline constexpr char kProg[] = "app";
inline constexpr char kLvl[] = "Usage";
inline constexpr char kSeqField[] = "SEQ";
inline constexpr char kValField[] = "VAL";
inline constexpr char kObjField[] = "OBJ.ID";
/// Event time of the first input (µs); input seq n is logged at
/// kEpochUs + n, so event times are unique and increase with seq.
inline constexpr std::int64_t kEpochUs = 1'700'000'000'000'000;
inline std::int64_t EventTs(std::uint64_t seq) {
  return kEpochUs + static_cast<std::int64_t>(seq);
}

std::string HostName(std::uint32_t host);
std::string ObjectId(std::uint32_t obj);

struct Event {
  std::uint64_t seq = 0;
  std::uint32_t host = 0;
  std::uint32_t obj = 0;  // object id for stage events, else 0
  std::int32_t val = 0;
  std::uint8_t kind = 0;
};

/// The seeded event stream. Hosts take turns in blocks of `block`
/// consecutive events. Species values random-walk per (host, species)
/// with frequent repeats, so on-change, threshold and delta filters all
/// pass some events and drop others. About one event in eight advances
/// one of 16 in-flight objects through its four stages; consecutive
/// stages land on whichever host logs next, so lifelines cross hosts.
class Generator {
 public:
  Generator(std::uint64_t seed, std::uint32_t hosts, std::uint32_t block = 1);
  Event Next();
  std::uint64_t count() const { return next_seq_; }

 private:
  struct Obj {
    std::uint32_t id = 0;
    std::uint8_t stage = 0;
  };
  Rng rng_;
  std::uint32_t hosts_;
  std::uint32_t block_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::int32_t> vals_;  // [host * kSpecies + species]
  std::vector<Obj> active_;
  std::uint32_t next_obj_ = 1;
};

/// FNV-1a over a byte string; Digest folds records order-independently.
std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h = 1469598103934665603ULL);

/// Content hash of one record: host, prog, level, event, timestamp and
/// every payload field except the trace fields (TRACE.*, SPAN.*, HOP.*),
/// which carry ids seeded from the clock. Field order does not matter.
std::uint64_t ContentHash(
    std::string_view host, std::string_view prog, std::string_view lvl,
    std::string_view event, std::int64_t ts,
    std::vector<std::pair<std::string_view, std::string_view>> fields);
std::uint64_t ContentHash(const Event& e);
bool IsTraceField(std::string_view key);

/// Reads one gw.event.xml payload (<event date=.. host=.. prog=.. lvl=..
/// name=..><field name="K">V</field>...</event>) into its seq and content
/// hash. False when the text is not such an event.
bool ObserveXmlEvent(std::string_view xml, std::uint64_t& seq,
                     std::uint64_t& hash);

/// Order-independent digest of a set of records: count plus the sum of
/// their content hashes.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  void Add(std::uint64_t hash) {
    ++count;
    sum += hash;
  }
};
// ---------------------------------------------------------- delivery check

/// One record as a consumer or the archive saw it.
struct Observed {
  std::uint64_t seq = 0;
  std::uint64_t hash = 0;
};
struct Tally {
  std::uint64_t expected = 0;
  std::uint64_t matched = 0;
  std::uint64_t missing = 0;     // expected, never seen
  std::uint64_t duplicated = 0;  // seen more often than expected
  std::uint64_t wrong = 0;       // content differs, or never expected
  std::uint64_t failed() const { return missing + duplicated + wrong; }
  Tally& operator+=(const Tally& o);
};
/// Compares multisets: each expected (seq, hash) must be observed exactly
/// as often as it is expected (an event two subscriptions on one
/// connection both pass is expected twice).
Tally Reconcile(std::vector<Observed> expected, std::vector<Observed> observed);

// ------------------------------------------------------ reference filters

/// '*' and '?' globbing, the subset the workloads' filters use.
bool Glob(std::string_view pattern, std::string_view text);

struct FilterRef {
  enum class Mode { kAll, kOnChange, kThreshold, kDelta };
  Mode mode = Mode::kAll;
  std::string glob;  // "" = every event
  double arg = 0;    // threshold, or delta percent
  /// Wire form, as gw.subscribe takes it ("delta:20|CPU_*").
  std::string Spec() const;
};

/// The gateway's filter semantics, restated: per source (host, event)
/// state; on-change passes a value different from the last seen one;
/// threshold passes each crossing (and a first sample already above);
/// delta passes a change of at least arg percent from the last passed.
class RefFilter {
 public:
  explicit RefFilter(FilterRef spec) : spec_(std::move(spec)) {}
  bool Pass(const Event& e);

 private:
  struct State {
    bool has_last = false;
    double last = 0;
    bool has_side = false;
    bool above = false;
  };
  FilterRef spec_;
  std::map<std::pair<std::uint32_t, int>, State> state_;
};

// ----------------------------------------------------- reference analysis

struct RefHop {
  std::int64_t ts = 0;
  std::string event, host, prog;
  friend bool operator==(const RefHop&, const RefHop&) = default;
};
struct RefLifeline {
  std::string id;
  std::vector<RefHop> hops;
  friend bool operator==(const RefLifeline&, const RefLifeline&) = default;
};
struct RefBucket {
  std::int64_t start = 0;
  std::uint64_t count = 0, value_count = 0;
  double mean = 0, min = 0, max = 0, pct = 0;
  friend bool operator==(const RefBucket&, const RefBucket&) = default;
};
struct RefAggRow {
  std::string event;
  std::uint64_t count = 0, value_count = 0;
  double sum = 0, mean = 0, min = 0, max = 0, p50 = 0, p95 = 0;
  friend bool operator==(const RefAggRow&, const RefAggRow&) = default;
};

/// `archived` holds the events the archive should contain, ascending by
/// seq. Windows are [t0, t1) in event time.
class ArchiveRef {
 public:
  explicit ArchiveRef(std::vector<Event> archived)
      : events_(std::move(archived)) {}

  /// Objects with at least one hop matching `glob` in the window, ordered
  /// by object id; hops in time order.
  std::vector<RefLifeline> Lifelines(const std::string& glob, std::int64_t t0,
                                     std::int64_t t1) const;
  /// Sparse VAL loadline on the grid t0 + k*bucket (host "" = all hosts).
  std::vector<RefBucket> Loadline(const std::string& glob,
                                  const std::string& host, std::int64_t bucket,
                                  int pct, std::int64_t t0,
                                  std::int64_t t1) const;
  /// Per event name VAL summary rows, ordered by event name.
  std::vector<RefAggRow> Aggregate(const std::string& glob, std::int64_t t0,
                                   std::int64_t t1) const;

 private:
  template <typename Fn>
  void ForWindow(std::int64_t t0, std::int64_t t1, Fn&& fn) const;
  std::vector<Event> events_;
};

}  // namespace perfbench
