// The directory server: a hierarchical, read-optimized entry store with
// LDAP semantics — the paper's sensor directory. Supports search scopes,
// referrals to other servers (hierarchical LDAP deployments with per-site
// referrals, §2.2), simple bind, an access-control hook (§7.1), and a
// durable change log that feeds both crash recovery and replication.
//
// ISSUE 9 rebuilt the store for fault tolerance under write saturation:
//
//  * RCU snapshot reads — the entry tree is an immutable, bucketed
//    copy-on-write Snapshot published through an atomic shared_ptr.
//    Lookup/Search/live_only never take the write lock: they load the
//    current snapshot and walk it freely while writers build the next
//    one. Structural writes (add/modify/delete/referral) clone only the
//    buckets they touch and swap the snapshot pointer.
//
//  * Equality index per bucket — each published bucket carries a sorted
//    (hash of attr\0value, entry) index over schema::kIndexedAttrs
//    (objectclass, host), built when the txn that cloned the bucket
//    publishes it and immutable after. Search asks the filter once for
//    its candidate rule (Filter::CandidateTerms) and, bucket by bucket,
//    checks only the entries of each term's rarest posting — or every
//    entry when no index applies. Every candidate is still checked in
//    full (scope + Filter::Matches), so a hash collision or a coarse rule
//    widens the work, never the result. A kBase search is one lookup.
//
//  * Lease renewals are not structural. Each leased entry owns a
//    LeaseCell (an atomic expiry shared by every snapshot generation), so
//    a heartbeat batch is a hash lookup plus an atomic store per entry —
//    no bucket cloning, no snapshot swap. Reads restamp `leaseexpires`
//    from the cell, so every read, live or plain, sees the authoritative
//    lease.
//
//  * Write-ahead log — every acked change is serialized, checksummed and
//    fsync-simulated (group commit per batch) into a WalStorage that
//    survives Crash(). Restart() replays the log (truncating a torn
//    tail) back to exactly the last acked write. The WAL doubles as the
//    replication feed (replication.hpp ships committed frames by offset).
//
// The paper's observation that LDAP servers "are optimized for read
// access, and do not work well in an environment with many updates"
// survives as a cost asymmetry: a discovery by object class and host
// touches only the entries that can match, while a structural write
// clones buckets, reindexes them, commits the WAL and swaps the snapshot
// (bench_directory, E9). Reads do not slow down under writes; the index
// is part of the generation it indexes, so there is nothing for a write
// to invalidate.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "directory/dn.hpp"
#include "directory/entry.hpp"
#include "directory/filter.hpp"

namespace jamm::directory {

class WalStorage;
class WriteAheadLog;

enum class SearchScope {
  kBase,      // the base entry only
  kOneLevel,  // direct children of the base
  kSubtree,   // base and everything beneath
};

enum class Operation { kRead, kWrite, kBind };

struct Referral {
  Dn suffix;            // subtree this referral covers
  std::string target;   // address of the server holding it
};

struct SearchResult {
  std::vector<Entry> entries;
  std::vector<Referral> referrals;  // continuation references hit
};

/// Change-log record: the unit of the WAL and of replication.
struct Change {
  enum class Type {
    kAdd,
    kModify,
    kDelete,
    kLease,     // lease renewal: dn + expiry only (compact hot-path record)
    kReferral,  // referral install (shard split cutover): dn + target
  };
  std::uint64_t seq = 0;
  Type type = Type::kAdd;
  Entry entry;                   // kDelete/kLease/kReferral use only the dn
  TimePoint lease_expiry = 0;    // kLease
  std::string referral_target;   // kReferral
};

class DirectoryServer {
 public:
  /// `suffix` roots this server's tree (e.g. "ou=sensors, o=jamm");
  /// `address` is its dialable name for referrals/diagnostics. `storage`
  /// is the durable medium for the WAL — share one across Crash()/
  /// restart cycles (and hand it to a fresh server to adopt the data);
  /// null creates a private one.
  DirectoryServer(Dn suffix, std::string address,
                  std::shared_ptr<WalStorage> storage = nullptr);
  ~DirectoryServer();

  const Dn& suffix() const { return suffix_; }
  const std::string& address() const { return address_; }

  // ------------------------------------------------------------- writes
  //
  // Every write is WAL-appended and fsync-simulated before it returns OK:
  // an acked write survives Crash()+Restart(). Writes targeting a DN the
  // server has referred away (shard split cutover) fail kAborted with the
  // referral target in the message — DirectoryPool chases instead.

  /// Add an entry. Its DN must be the suffix itself or have an existing
  /// parent under the suffix (LDAP tree integrity).
  Status Add(const Entry& entry, const std::string& principal = "");

  /// Replace the attributes of an existing entry (DN unchanged).
  Status Modify(const Entry& entry, const std::string& principal = "");

  /// Add or modify, whichever applies.
  Status Upsert(const Entry& entry, const std::string& principal = "");

  /// Upsert many entries in one transaction: one bucket-clone pass, one
  /// WAL group commit, one snapshot publication. The bulk-load path
  /// (shard migration copy, bench population). Entries must be ordered
  /// parents-first; the batch fails atomically on the first bad entry.
  Status UpsertBatch(const std::vector<Entry>& entries,
                     const std::string& principal = "");

  /// Delete a leaf entry.
  Status Delete(const Dn& dn, const std::string& principal = "");

  // ------------------------------------------------------------- leases
  //
  // ISSUE 4: the read-optimized directory's weak spot is staleness — a
  // crashed sensor manager leaves entries consumers dial forever. Entries
  // stamped with schema::kAttrLeaseExpires are liveness-tracked: owners
  // renew them via heartbeat batches; the reaper tombstones overdue ones
  // (the tombstones replicate like any delete, so replicas converge).

  /// Renew the lease of every entry in `dns` to `expiry` in one batch.
  /// Missing entries (already reaped or referred to another shard — the
  /// owner should re-publish through the pool) are appended to `missing`
  /// when given. Renewals are atomic stores into the entries' lease
  /// cells plus one WAL group commit: no snapshot swap, and every read
  /// restamps from the cell so nothing stale is ever served. Returns
  /// renewals.
  Result<std::size_t> RenewLeases(const std::vector<Dn>& dns, TimePoint expiry,
                                  const std::string& principal = "",
                                  std::vector<Dn>* missing = nullptr);

  /// Reap every entry whose lease expired at or before `now`, logging a
  /// kDelete tombstone each. An expired entry with a surviving descendant
  /// is kept (tree integrity) until its subtree drains. Returns the number
  /// of entries tombstoned.
  Result<std::size_t> ExpireLeases(TimePoint now);

  /// Clock for live_only reads (lease expiry is checked against it).
  /// Without one, live_only requests fail InvalidArgument.
  void SetClock(const Clock* clock);

  // -------------------------------------------------------------- reads
  //
  // Reads never take the write lock: they walk the published snapshot.
  // Search reads one snapshot, through its equality index where the
  // filter allows, and returns its matches in DN order.

  /// `live_only` (ISSUE 4) filters out entries whose lease has expired but
  /// that the reaper has not yet swept — consumers never dial the dead.
  Result<Entry> Lookup(const Dn& dn, const std::string& principal = "",
                       bool live_only = false) const;

  Result<SearchResult> Search(const Dn& base, SearchScope scope,
                              const Filter& filter,
                              const std::string& principal = "",
                              bool live_only = false) const;

  // ------------------------------------------------------ bind / access

  /// Register a simple-bind credential ("user/password style protection",
  /// §7.1). Passwords are stored as-is: the paper notes they normally
  /// travel in clear text; the security module layers certificates on top.
  void SetCredential(const Dn& user, const std::string& password);
  Status Bind(const Dn& user, const std::string& password) const;

  /// Authorization hook consulted on every operation when set; principal
  /// is whatever identity the caller presented (possibly empty).
  using AccessChecker =
      std::function<bool(Operation op, const Dn& target,
                         const std::string& principal)>;
  void SetAccessChecker(AccessChecker checker);

  // ---------------------------------------------------------- referrals

  /// Install a referral: `suffix` subtree lives at `target`. WAL-logged
  /// and replicated (shard layout must survive crashes and reach
  /// replicas).
  void AddReferral(Dn suffix, std::string target);

  /// The referral covering `dn`, if any (deepest match wins).
  std::optional<Referral> MatchReferral(const Dn& dn) const;

  /// Shard-split cutover: atomically install a referral for `subtree` at
  /// `target_address` and tombstone every local entry beneath it — one
  /// snapshot swap, so a concurrent read sees either the entries or the
  /// referral, never neither. Returns the final authoritative entries
  /// (leases restamped), parents-first, for the migrator to flush to the
  /// target shard. See shard.hpp.
  Result<std::vector<Entry>> CutoverSubtree(const Dn& subtree,
                                            const std::string& target_address,
                                            const std::string& principal = "");

  // -------------------------------------------------------- replication

  /// Changes with seq > `after_seq`, decoded from the committed WAL —
  /// kept for coarse catch-up and tests; Replicator ships by byte offset.
  std::vector<Change> ChangesSince(std::uint64_t after_seq) const;
  std::uint64_t last_seq() const;

  /// Apply a replicated change without re-minting a sequence number; the
  /// change is WAL-logged locally (a replica must also survive its own
  /// crash) and bypasses referral write-guards (log order is authority).
  Status ApplyReplicated(const Change& change);

  /// Apply a batch under one lock / one WAL commit / one snapshot swap.
  /// Stops at the first failure; `*applied` (optional) reports how many
  /// changes landed either way.
  Status ApplyReplicatedBatch(const std::vector<Change>& changes,
                              std::size_t* applied = nullptr);

  /// The server's log, for offset-based replication shipping.
  const WriteAheadLog& wal() const { return *wal_; }
  std::shared_ptr<WalStorage> wal_storage() const;

  // ---------------------------------------------------- crash / recovery

  /// Simulated soft-down for failover experiments: a down server returns
  /// Unavailable from every operation but keeps its state.
  void SetAlive(bool alive);
  bool alive() const;

  /// Hard crash: every volatile structure (entry tree, lease cells,
  /// sequence counter) is lost, along with any WAL bytes not yet
  /// fsync-simulated. The server is down until Restart().
  /// Deployment configuration (clock, credentials, access checker)
  /// survives, as it would in config files.
  void Crash();

  struct RecoveryStats {
    std::uint64_t records_replayed = 0;
    std::uint64_t truncated_bytes = 0;  // torn WAL tail removed
    std::uint64_t entries = 0;          // live entries after replay
    std::uint64_t last_seq = 0;
  };

  /// Replay the WAL from byte 0 (truncating a torn tail), rebuild the
  /// snapshot, and come back up. Every write acked before the crash is
  /// present afterwards.
  RecoveryStats Restart();

  // --------------------------------------------------------------- stats

  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t entries = 0;
    std::uint64_t leases_renewed = 0;   // heartbeat renewals applied
    std::uint64_t leases_expired = 0;   // entries tombstoned by the reaper
    std::uint64_t live_only_filtered = 0;  // expired entries hidden on read
    std::uint64_t snapshot_swaps = 0;   // structural publications
    std::uint64_t wal_commits = 0;      // simulated fsyncs acked
  };
  Stats stats() const;

 private:
  // ---- RCU snapshot structures --------------------------------------
  static constexpr std::size_t kBuckets = 256;

  /// Authoritative lease expiry, shared by every snapshot generation
  /// holding the entry — renewals store here without republishing.
  struct LeaseCell {
    std::atomic<TimePoint> expires{0};
  };

  struct Node {
    std::shared_ptr<const Entry> entry;
    std::shared_ptr<LeaseCell> lease;  // null == immortal
  };

  /// One shard of a snapshot generation. Immutable once published, index
  /// included: `index` points into `nodes` and is rebuilt whenever a txn
  /// publishes a clone, never patched.
  struct Bucket {
    using Nodes = std::map<std::string, Node>;  // key: normalized DN string
    using Posting = std::pair<std::uint64_t, const Nodes::value_type*>;
    Nodes nodes;
    /// Equality index over schema::kIndexedAttrs: (Filter::IndexKey of
    /// one attribute value, entry), sorted by key.
    std::vector<Posting> index;

    void Reindex();
  };

  struct Snapshot {
    std::array<std::shared_ptr<const Bucket>, kBuckets> buckets;
    std::vector<Referral> referrals;
    std::size_t entry_count = 0;
  };

  /// A structural write under construction: starts as a cheap copy of the
  /// current snapshot's bucket-pointer array and clones buckets lazily.
  struct Txn {
    std::shared_ptr<Snapshot> snap;
    std::array<Bucket*, kBuckets> cloned{};  // this txn's private clones
    bool dirty = false;
  };

  static std::size_t BucketOf(const std::string& key);
  std::shared_ptr<const Snapshot> LoadSnapshot() const;
  static const Node* FindNode(const Snapshot& snap, const std::string& key);
  /// Entry copy with `leaseexpires` restamped from the authoritative cell.
  static Entry Materialize(const Node& node);
  static bool LiveAt(const Node& node, TimePoint now);

  Txn BeginTxn();
  Bucket::Nodes& MutableBucket(Txn& txn, std::size_t index);
  /// Append `changes` to the WAL, group-commit and publish the txn
  /// snapshot (if dirty). The single ack barrier.
  void CommitLocked(Txn* txn, std::vector<Change> changes);
  /// Index the buckets `txn` cloned and swap its snapshot in.
  void PublishLocked(Txn& txn);

  Status AddTxn(Txn& txn, const Entry& entry);
  Status ModifyTxn(Txn& txn, const Entry& entry);
  Status DeleteTxn(Txn& txn, const Dn& dn);
  /// Shared apply path for replication and WAL replay (lenient: add
  /// collisions become modifies, missing deletes succeed).
  Status ApplyChangeTxn(Txn& txn, const Change& change);

  Status CheckAccess(Operation op, const Dn& target,
                     const std::string& principal) const;
  Status CheckAlive() const;
  static std::optional<Referral> MatchReferralIn(const Snapshot& snap,
                                                 const Dn& dn);

  Dn suffix_;
  std::string address_;
  std::atomic<const Clock*> clock_{nullptr};  // for live_only reads
  std::atomic<bool> alive_{true};

  // Writer lock: serializes structural writes, lease batches, WAL appends
  // and snapshot publication. Readers never take it.
  mutable std::mutex mu_;
  std::unique_ptr<WriteAheadLog> wal_;         // appended under mu_
  std::uint64_t next_seq_ = 1;                 // under mu_
  std::atomic<std::uint64_t> last_seq_{0};     // published for lock-free read
  std::map<std::string, std::string> creds_;   // user DN → password; under mu_

  // RCU handoff latch: held only to copy or swap a shared_ptr (a few
  // instructions), never while a bucket or the checker is used — readers
  // still never wait on mu_. Deliberately not std::atomic<shared_ptr>:
  // libstdc++ 12's _Sp_atomic is lock-based anyway and its relaxed
  // reader-side unlock gives TSan no happens-before edge to the next
  // writer, flagging every load/store pair.
  mutable std::mutex snap_mu_;
  std::shared_ptr<const AccessChecker> access_checker_;  // under snap_mu_
  std::shared_ptr<const Snapshot> snap_;                 // under snap_mu_

  struct Counters {
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> writes{0};
    std::atomic<std::uint64_t> leases_renewed{0};
    std::atomic<std::uint64_t> leases_expired{0};
    std::atomic<std::uint64_t> live_only_filtered{0};
    std::atomic<std::uint64_t> snapshot_swaps{0};
  };
  mutable Counters counters_;
};

}  // namespace jamm::directory
