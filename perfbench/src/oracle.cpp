#include "oracle.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr const char* kKindNames[kKinds] = {
    "CPU_LOAD",   "CPU_USER",   "MEM_FREE",  "MEM_SWAP",    "NET_RX",
    "NET_TX",     "NET_RETRANS", "DISK_READ", "DISK_WRITE", "APP_LOCKS",
    "XFER_START", "XFER_READ",  "XFER_WRITE", "XFER_END"};

constexpr std::size_t kActiveObjects = 16;

std::string Decimal(std::int64_t v) { return std::to_string(v); }

// Nearest rank on ascending values, pct in 0..100.
double Rank(const std::vector<double>& sorted, int pct) {
  if (sorted.empty()) return 0;
  if (pct <= 0) return sorted.front();
  std::size_t rank = (static_cast<std::size_t>(pct) * sorted.size() + 99) / 100;
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

bool Matches(const std::string& glob, std::string_view name) {
  return glob.empty() || Glob(glob, name);
}

double SumAscending(const std::vector<double>& sorted) {
  double sum = 0;
  for (double v : sorted) sum += v;
  return sum;
}

}  // namespace

const char* KindName(int kind) { return kKindNames[kind]; }

std::string HostName(std::uint32_t host) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "node%04u.lbl.gov", host);
  return buf;
}

std::string ObjectId(std::uint32_t obj) {
  std::string id = "o";
  id += std::to_string(obj);
  return id;
}

Generator::Generator(std::uint64_t seed, std::uint32_t hosts,
                     std::uint32_t block)
    : rng_(seed), hosts_(hosts), block_(block),
      vals_(std::size_t{hosts} * kSpecies),
      active_(kActiveObjects) {
  for (auto& v : vals_) v = static_cast<std::int32_t>(rng_.Below(1001));
  for (auto& o : active_) o.id = next_obj_++;
}

Event Generator::Next() {
  Event e;
  e.seq = next_seq_++;
  e.host = static_cast<std::uint32_t>((e.seq / block_) % hosts_);
  const std::uint64_t r = rng_.Next();
  if (r % 8 == 0) {
    Obj& o = active_[(r >> 8) % kActiveObjects];
    e.kind = static_cast<std::uint8_t>(kSpecies + o.stage);
    e.obj = o.id;
    e.val = static_cast<std::int32_t>((r >> 20) % 1000);
    if (++o.stage == kStages) o = Obj{next_obj_++, 0};
    return e;
  }
  const int species = static_cast<int>((r >> 8) % kSpecies);
  std::int32_t& v = vals_[std::size_t{e.host} * kSpecies + species];
  if ((r >> 16) % 10 >= 3) {  // 30% of samples repeat the last value
    v = std::clamp<std::int32_t>(
        v + static_cast<std::int32_t>((r >> 24) % 201) - 100, 0, 1000);
  }
  e.kind = static_cast<std::uint8_t>(species);
  e.val = v;
  return e;
}

std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

bool IsTraceField(std::string_view key) {
  return key.starts_with("TRACE.") || key.starts_with("SPAN.") ||
         key.starts_with("HOP.");
}

std::uint64_t ContentHash(
    std::string_view host, std::string_view prog, std::string_view lvl,
    std::string_view event, std::int64_t ts,
    std::vector<std::pair<std::string_view, std::string_view>> fields) {
  std::erase_if(fields, [](const auto& f) { return IsTraceField(f.first); });
  std::sort(fields.begin(), fields.end());
  std::uint64_t h = Fnv1a(host);
  for (auto part : {prog, lvl, event}) h = Fnv1a(part, Fnv1a("\x1f", h));
  h = Fnv1a(Decimal(ts), Fnv1a("\x1f", h));
  for (const auto& [k, v] : fields) {
    h = Fnv1a(v, Fnv1a("=", Fnv1a(k, Fnv1a("\x1e", h))));
  }
  // Final avalanche so Digest sums of near-identical records stay apart.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

std::uint64_t ContentHash(const Event& e) {
  const std::string host = HostName(e.host), seq = Decimal(e.seq),
                    val = Decimal(e.val), obj = ObjectId(e.obj);
  std::vector<std::pair<std::string_view, std::string_view>> fields = {
      {kValField, val}, {kSeqField, seq}};
  if (e.obj != 0) fields.emplace_back(kObjField, obj);
  return ContentHash(host, kProg, kLvl, KindName(e.kind), EventTs(e.seq),
                     std::move(fields));
}

namespace {

// Value of attribute `name` in the tag starting at `tag` ("" if absent).
std::string_view Attr(std::string_view tag, std::string_view name) {
  std::string key = " ";
  key += name;
  key += "=\"";
  const auto at = tag.find(key);
  if (at == std::string_view::npos) return {};
  const auto begin = at + key.size();
  const auto end = tag.find('"', begin);
  return end == std::string_view::npos ? std::string_view{}
                                       : tag.substr(begin, end - begin);
}

// Days since 1970-01-01 of a proleptic Gregorian date.
std::int64_t DaysFromCivil(std::int64_t y, std::int64_t m, std::int64_t d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const std::int64_t yoe = y - era * 400;
  const std::int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const std::int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

// "YYYYMMDDhhmmss.ffffff" (UTC) to µs since the epoch. Restated rather
// than taken from common/time_util, like Glob below: the oracle shares no
// code with the program it checks.
bool ParseUlmDate(std::string_view text, std::int64_t& us) {
  if (text.size() != 21 || text[14] != '.') return false;
  auto num = [&](std::size_t at, std::size_t len, std::int64_t& out) {
    out = 0;
    for (std::size_t i = at; i < at + len; ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      out = out * 10 + (text[i] - '0');
    }
    return true;
  };
  std::int64_t y, mo, d, h, mi, s, f;
  if (!num(0, 4, y) || !num(4, 2, mo) || !num(6, 2, d) || !num(8, 2, h) ||
      !num(10, 2, mi) || !num(12, 2, s) || !num(15, 6, f)) {
    return false;
  }
  us = ((DaysFromCivil(y, mo, d) * 24 + h) * 60 + mi) * 60 + s;
  us = us * 1'000'000 + f;
  return true;
}

}  // namespace

bool ObserveXmlEvent(std::string_view xml, std::uint64_t& seq,
                     std::uint64_t& hash) {
  if (!xml.starts_with("<event ")) return false;
  const auto tag_end = xml.find('>');
  if (tag_end == std::string_view::npos) return false;
  const std::string_view tag = xml.substr(0, tag_end);
  std::int64_t ts = 0;
  if (!ParseUlmDate(Attr(tag, "date"), ts)) return false;
  std::vector<std::pair<std::string_view, std::string_view>> fields;
  const std::string_view open = "<field name=\"", close = "</field>";
  std::optional<std::uint64_t> seq_value;
  for (auto at = xml.find(open, tag_end); at != std::string_view::npos;
       at = xml.find(open, at)) {
    const auto name_begin = at + open.size();
    const auto name_end = xml.find("\">", name_begin);
    const auto value_end = xml.find(close, name_end);
    if (name_end == std::string_view::npos ||
        value_end == std::string_view::npos) {
      return false;
    }
    const auto name = xml.substr(name_begin, name_end - name_begin);
    const auto value = xml.substr(name_end + 2, value_end - name_end - 2);
    fields.emplace_back(name, value);
    if (name == kSeqField) {
      std::uint64_t v = 0;
      const auto r = std::from_chars(value.data(), value.data() + value.size(), v);
      if (r.ec != std::errc() || r.ptr != value.data() + value.size()) {
        return false;
      }
      seq_value = v;
    }
    at = value_end + close.size();
  }
  if (!seq_value) return false;
  seq = *seq_value;
  hash = ContentHash(Attr(tag, "host"), Attr(tag, "prog"), Attr(tag, "lvl"),
                     Attr(tag, "name"), ts, std::move(fields));
  return true;
}

Tally& Tally::operator+=(const Tally& o) {
  expected += o.expected;
  matched += o.matched;
  missing += o.missing;
  duplicated += o.duplicated;
  wrong += o.wrong;
  return *this;
}

Tally Reconcile(std::vector<Observed> expected, std::vector<Observed> observed) {
  auto by_seq = [](const Observed& a, const Observed& b) {
    return a.seq < b.seq || (a.seq == b.seq && a.hash < b.hash);
  };
  std::sort(expected.begin(), expected.end(), by_seq);
  std::sort(observed.begin(), observed.end(), by_seq);
  Tally t;
  t.expected = expected.size();
  std::size_t i = 0, j = 0;
  while (i < expected.size() || j < observed.size()) {
    const std::uint64_t seq =
        i < expected.size() && (j >= observed.size() ||
                                expected[i].seq <= observed[j].seq)
            ? expected[i].seq
            : observed[j].seq;
    std::uint64_t want = 0, got_right = 0, got_wrong = 0;
    std::uint64_t hash = 0;
    for (; i < expected.size() && expected[i].seq == seq; ++i) {
      hash = expected[i].hash;
      ++want;
    }
    for (; j < observed.size() && observed[j].seq == seq; ++j) {
      if (want > 0 && observed[j].hash == hash) {
        ++got_right;
      } else {
        ++got_wrong;
      }
    }
    const std::uint64_t matched = std::min(want, got_right);
    t.matched += matched;
    t.missing += want - matched;
    t.duplicated += got_right - matched;
    t.wrong += got_wrong;
  }
  return t;
}

bool Glob(std::string_view pattern, std::string_view text) {
  if (pattern.empty()) return text.empty();
  if (pattern.front() == '*') {
    for (std::size_t skip = 0; skip <= text.size(); ++skip) {
      if (Glob(pattern.substr(1), text.substr(skip))) return true;
    }
    return false;
  }
  if (text.empty()) return false;
  if (pattern.front() != '?' && pattern.front() != text.front()) return false;
  return Glob(pattern.substr(1), text.substr(1));
}

std::string FilterRef::Spec() const {
  char arg_text[32];
  std::snprintf(arg_text, sizeof(arg_text), "%g", arg);
  std::string out;
  switch (mode) {
    case Mode::kAll: out = "all"; break;
    case Mode::kOnChange: out = "on-change"; break;
    case Mode::kThreshold: out = std::string("threshold:") + arg_text; break;
    case Mode::kDelta: out = std::string("delta:") + arg_text; break;
  }
  if (!glob.empty()) out += "|" + glob;
  return out;
}

bool RefFilter::Pass(const Event& e) {
  if (!spec_.glob.empty() && !Glob(spec_.glob, KindName(e.kind))) return false;
  const double v = e.val;
  State& s = state_[{e.host, e.kind}];
  switch (spec_.mode) {
    case FilterRef::Mode::kAll:
      return true;
    case FilterRef::Mode::kOnChange: {
      const bool pass = !s.has_last || v != s.last;
      s.has_last = true;
      s.last = v;
      return pass;
    }
    case FilterRef::Mode::kThreshold: {
      const bool above = v > spec_.arg;
      const bool pass = s.has_side ? above != s.above : above;
      s.has_side = true;
      s.above = above;
      return pass;
    }
    case FilterRef::Mode::kDelta: {
      if (!s.has_last) {
        s.has_last = true;
        s.last = v;
        return true;
      }
      const double base = std::abs(s.last);
      const double change = std::abs(v - s.last);
      const double pct =
          base > 0 ? 100.0 * change / base : (change > 0 ? spec_.arg : 0);
      if (pct < spec_.arg) return false;
      s.last = v;
      return true;
    }
  }
  return true;
}

template <typename Fn>
void ArchiveRef::ForWindow(std::int64_t t0, std::int64_t t1, Fn&& fn) const {
  auto lo = std::lower_bound(
      events_.begin(), events_.end(), t0,
      [](const Event& e, std::int64_t t) { return EventTs(e.seq) < t; });
  for (auto it = lo; it != events_.end() && EventTs(it->seq) < t1; ++it) {
    fn(*it);
  }
}

std::vector<RefLifeline> ArchiveRef::Lifelines(const std::string& glob,
                                               std::int64_t t0,
                                               std::int64_t t1) const {
  std::map<std::string, RefLifeline> by_id;
  ForWindow(t0, t1, [&](const Event& e) {
    if (e.obj == 0 || !Matches(glob, KindName(e.kind))) return;
    RefLifeline& line = by_id[ObjectId(e.obj)];
    line.id = ObjectId(e.obj);
    line.hops.push_back({EventTs(e.seq), KindName(e.kind), HostName(e.host),
                         kProg});
  });
  std::vector<RefLifeline> out;
  for (auto& [id, line] : by_id) out.push_back(std::move(line));
  return out;
}

std::vector<RefBucket> ArchiveRef::Loadline(const std::string& glob,
                                            const std::string& host,
                                            std::int64_t bucket, int pct,
                                            std::int64_t t0,
                                            std::int64_t t1) const {
  std::map<std::int64_t, std::vector<double>> grid;
  ForWindow(t0, t1, [&](const Event& e) {
    if (!Matches(glob, KindName(e.kind))) return;
    if (!host.empty() && HostName(e.host) != host) return;
    grid[(EventTs(e.seq) - t0) / bucket].push_back(e.val);
  });
  std::vector<RefBucket> out;
  for (auto& [idx, values] : grid) {
    std::sort(values.begin(), values.end());
    RefBucket b;
    b.start = t0 + idx * bucket;
    b.count = b.value_count = values.size();
    b.min = values.front();
    b.max = values.back();
    b.mean = SumAscending(values) / static_cast<double>(values.size());
    b.pct = Rank(values, pct);
    out.push_back(b);
  }
  return out;
}

std::vector<RefAggRow> ArchiveRef::Aggregate(const std::string& glob,
                                             std::int64_t t0,
                                             std::int64_t t1) const {
  std::map<std::string, std::vector<double>> groups;
  ForWindow(t0, t1, [&](const Event& e) {
    if (Matches(glob, KindName(e.kind))) groups[KindName(e.kind)].push_back(e.val);
  });
  std::vector<RefAggRow> out;
  for (auto& [event, values] : groups) {
    std::sort(values.begin(), values.end());
    RefAggRow row;
    row.event = event;
    row.count = row.value_count = values.size();
    row.min = values.front();
    row.max = values.back();
    row.sum = SumAscending(values);
    row.mean = row.sum / static_cast<double>(values.size());
    row.p50 = Rank(values, 50);
    row.p95 = Rank(values, 95);
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace perfbench
