#ifndef CYPHER_REPLICATION_REPLICA_H_
#define CYPHER_REPLICATION_REPLICA_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "cypher/database.h"
#include "replication/transport.h"
#include "storage/log_file.h"

namespace cypher::replication {

/// A follower's own durable state: its WAL (the leader's byte stream,
/// re-framed under the follower's bootstrap snapshot) plus a tiny metadata
/// file mapping the local log back to leader LSN coordinates.
///
/// The follower WAL's layout is [magic][kSnapshot bootstrap record][raw
/// leader record bytes...]: everything after the bootstrap record is a
/// byte-exact slice [attach_lsn, applied_lsn) of the leader's durable WAL.
/// That slice property is the promotion invariant — a caught-up follower
/// promoted to leader opens a log whose record stream is a byte prefix of
/// the dead leader's, so the promoted leader's durable history IS a
/// committed prefix of the old one's.
///
/// The meta file pins the two facts the log alone cannot recover: the
/// leader LSN the bootstrap snapshot covered (attach_lsn — local file
/// offsets shift by the bootstrap record size) and the follower's identity
/// token (how a reconnecting process proves to the leader it is the same
/// follower and may resume rather than re-bootstrap).
struct ReplicaDurability {
  std::unique_ptr<storage::LogFile> wal;
  std::unique_ptr<storage::LogFile> meta;
};

/// A read-only follower: wraps its own GraphDatabase, bootstraps from the
/// leader's snapshot frame, then applies committed statements in leader
/// order via the image applier crash recovery uses (storage::ApplyImage). Every
/// applied statement publishes an MVCC epoch, so BeginReadSession serves
/// snapshot-isolated reads at the follower's applied position, lock-free
/// against the applier.
///
/// The applied-LSN invariant: after any PollOnce, the follower's graph is
/// byte-for-byte (DumpGraphCanonical) the state some committed leader
/// statement prefix produced, and applied_lsn() names exactly which one. A
/// frame that is damaged (CRC), torn (record framing), gapped, or
/// overlapping is never applied — the replica requests a resend from its
/// applied position and discards the rest of the queue (the shipper rewinds
/// and re-reads the log). Duplicate frames are skipped idempotently.
///
/// Mid-stream kSnapshot records (an explicit leader Checkpoint) advance the
/// LSN without touching the graph: a contiguous follower is already in
/// exactly the state the snapshot encodes.
///
/// With a ReplicaDurability the follower is crash-safe: every applied
/// record's raw bytes are appended to its own WAL and synced before the ack
/// goes out (an ack is a promise the bytes are durable — acking past a
/// crash would open an unservable gap on re-attach). A `kill -9` mid-apply
/// loses at most the unsynced tail; Open() recovers the durable prefix,
/// truncates torn bytes, and the reconnect hello resumes the stream from
/// the recovered position. A fresh bootstrap snapshot (first attach, or a
/// stale follower past leader retention) rewrites the WAL whole.
///
/// Threading: one applier thread calls PollOnce; status getters are safe
/// from anywhere; concurrent reads go through BeginReadSession (one session
/// per reader thread, as on the leader).
class Replica {
 public:
  explicit Replica(std::shared_ptr<Transport> transport,
                   EvalOptions options = {});

  /// Durable follower. If the WAL already holds a recovered prefix (a
  /// restarted process), the graph is rebuilt from it, applied_lsn() maps
  /// back into leader coordinates, and bootstrapped() is already true — the
  /// transport's reconnect hello then resumes the stream from there.
  static Result<std::unique_ptr<Replica>> Open(
      std::shared_ptr<Transport> transport, ReplicaDurability durability,
      EvalOptions options = {});

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Drains every queued frame, applying in order. Returns the number of
  /// frames applied (bootstrap counts as one).
  Result<size_t> PollOnce();

  /// The LSN of the last applied record boundary (0 before bootstrap).
  uint64_t applied_lsn() const { return applied_lsn_.load(); }

  bool bootstrapped() const { return bootstrapped_.load(); }

  /// Statement records applied since bootstrap (or, after a durable
  /// restart, since the recovered WAL's latest snapshot).
  uint64_t statements_applied() const { return statements_.load(); }

  /// Bootstrap snapshots accepted (1 after the first attach; a second one
  /// means the follower went stale and re-bootstrapped from scratch).
  uint64_t bootstraps() const { return bootstraps_.load(); }

  /// The follower's identity across reconnects: nonzero, random at first
  /// construction, persisted in the meta file for durable followers. The
  /// hello a SocketTransport sends carries it so the leader can tell a
  /// returning follower from a new one.
  uint64_t token() const { return token_.load(); }

  /// Snapshot-isolated read session pinned at the applied epoch; requires a
  /// completed bootstrap (the database is MVCC-enabled from then on).
  Result<GraphDatabase::ReadSession> BeginReadSession() {
    return db_.BeginReadSession();
  }

  /// The wrapped database — inspection and read-only use only; writing to
  /// it would diverge from the leader stream. Call from the applier thread
  /// (or with it quiescent); concurrent readers use BeginReadSession.
  GraphDatabase& database() { return db_; }

  /// DumpGraphCanonical of the applied state (applier thread only).
  std::string CanonicalDump() const;

  // ---- Failover -------------------------------------------------------------

  /// Promotes this (durable, bootstrapped) follower to a standalone durable
  /// leader: seals the replica (no more frames apply, the transport is
  /// dropped), fsyncs its WAL, and opens a fresh GraphDatabase over it.
  /// Because the follower WAL's record stream is a byte slice of the dead
  /// leader's durable WAL ending at applied_lsn(), the promoted leader
  /// serves exactly the committed statement prefix the old leader had
  /// shipped — recovery replays it record by record — and every write it
  /// accepts from here on extends that prefix in its own right. Attach new
  /// followers to the returned database to rebuild the replication tree.
  ///
  /// The replica is unusable afterwards except for status getters.
  Result<GraphDatabase> PromoteToLeader(DurabilityOptions durability = {});

  bool sealed() const { return sealed_.load(); }

  /// The follower's own log file (durable mode; null otherwise) — tests
  /// compare its bytes against the leader's WAL, nothing else should.
  storage::LogFile* wal_file() {
    return durability_.wal ? durability_.wal.get() : nullptr;
  }

 private:
  Replica(std::shared_ptr<Transport> transport, ReplicaDurability durability,
          EvalOptions options);

  /// Rebuilds state from a durable WAL + meta left by a previous process.
  /// A fresh (empty/unusable) pair is not an error — the replica just
  /// starts un-bootstrapped.
  Status RecoverFromDurable();

  /// Validates and applies one frame; `*applied` increments when the frame
  /// advanced state. A non-OK return means "damaged or out of order" and
  /// triggers the resend protocol in PollOnce — unless `*apply_failed` is
  /// set: then a checksum-valid image failed to apply, which a resend of the
  /// same bytes cannot mend.
  Status ApplyFrame(const SegmentFrame& frame, size_t* applied,
                    bool* apply_failed);

  /// Persists the bootstrap snapshot: the WAL becomes [magic][kSnapshot
  /// record], the meta records attach_lsn + token.
  Status PersistBootstrap(const SegmentFrame& frame);

  std::shared_ptr<Transport> transport_;
  GraphDatabase db_;
  ReplicaDurability durability_;
  std::atomic<uint64_t> applied_lsn_{0};
  std::atomic<bool> bootstrapped_{false};
  std::atomic<bool> sealed_{false};
  std::atomic<uint64_t> statements_{0};
  std::atomic<uint64_t> bootstraps_{0};
  std::atomic<uint64_t> token_{0};
};

}  // namespace cypher::replication

#endif  // CYPHER_REPLICATION_REPLICA_H_
