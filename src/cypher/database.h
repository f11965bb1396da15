#ifndef CYPHER_CYPHER_DATABASE_H_
#define CYPHER_CYPHER_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <functional>

#include "common/read_pin.h"
#include "common/result.h"
#include "exec/interpreter.h"
#include "exec/options.h"
#include "graph/graph.h"
#include "replication/transport.h"
#include "storage/log_file.h"
#include "vm/plan_cache.h"

namespace cypher {

namespace storage {
class WalWriter;
}  // namespace storage

namespace replication {
class LogShipper;
}  // namespace replication

/// Durability configuration for OpenDurable.
struct DurabilityOptions {
  enum class SyncMode {
    /// fsync inside the commit hook: a statement only commits in memory
    /// once its log record is durable, so an fsync failure rolls the
    /// statement back atomically. One fsync per update statement.
    kEveryCommit,
    /// Append inside the commit hook, fsync after the execution lock is
    /// released: concurrent sessions batch their records into one fsync
    /// (group commit). On a sync failure the statement is applied in
    /// memory but not durable — the writer poisons itself, Execute
    /// surfaces kAborted, and recovery replays only the durable prefix.
    kGroupCommit,
  };

  SyncMode sync_mode = SyncMode::kEveryCommit;

  /// Size-threshold auto-checkpoint: when non-zero and a commit leaves the
  /// log larger than this many bytes, the log is compacted in place to
  /// [magic, fresh snapshot] (WalWriter::Rewrite — crash-atomic on disk),
  /// bounding growth for long-running mixed workloads without an operator
  /// Checkpoint(). A 2x-since-last-checkpoint hysteresis keeps a graph
  /// whose snapshot alone exceeds the threshold from rewriting on every
  /// commit. 0 (the default) disables the hook: the log is append-only
  /// forever, exactly as before.
  ///
  /// With followers attached (AttachFollower), compaction additionally
  /// waits for every follower's retention pin: bytes a lagging follower has
  /// not acked are never dropped, however far past the threshold the log
  /// grows, and detaching releases them (the next commit compacts).
  uint64_t auto_checkpoint_bytes = 0;
};

/// Knobs for AttachFollower.
struct ReplicationOptions {
  /// Target replication segment size (whole WAL records per segment, cut
  /// under this many bytes; one oversized record still ships alone).
  uint64_t segment_bytes = 64 * 1024;

  /// Staleness cap: a follower whose unacked backlog exceeds this many
  /// bytes is auto-detached (its retention pin released, a warning counted
  /// in ReplicationStatus) so a dead follower cannot pin WAL compaction
  /// forever. 0 (the default) never detaches. Applies to the shared
  /// shipper, so the first attach's value wins for the database.
  uint64_t max_retained_bytes = 0;
};

struct FollowerInfo {
  int id = 0;
  uint64_t acked_lsn = 0;
  uint64_t shipped_lsn = 0;
  /// Resend requests this follower issued (wire damage or reconnects).
  uint64_t resends = 0;
  /// Wire health: connection state, completed reconnects, and how long ago
  /// the peer was last heard from (socket transports; the in-process queue
  /// reports a static "in-process").
  replication::LinkStatus link;
};

/// What `replication_status` reports: per-follower cursors plus the
/// leader-side log coordinates lag is measured against.
struct ReplicationStatus {
  size_t followers = 0;
  uint64_t appended_lsn = 0;
  uint64_t durable_lsn = 0;
  /// Smallest acked LSN across followers (UINT64_MAX when none) — retention
  /// holds every log byte from here on.
  uint64_t min_acked_lsn = 0;
  /// Current WAL size — with a lagging follower attached this keeps growing
  /// past the auto-checkpoint threshold until the follower catches up.
  uint64_t log_bytes = 0;
  /// Followers auto-detached by the staleness cap, with the latest warning
  /// (empty when none) — the shell prints both under `:lag`.
  uint64_t stale_detaches = 0;
  std::string last_stale_warning;
  std::vector<FollowerInfo> detail;
};

/// The public entry point: an in-process property graph database speaking
/// the Cypher dialect of the paper, with both the legacy (Cypher 9) and the
/// revised (Sections 7-8) update semantics selectable per database or per
/// statement.
///
/// Typical use:
///
///   GraphDatabase db;                       // revised semantics by default
///   CYPHER_RETURN_NOT_OK(db.Run("CREATE (:User {id: 89, name: 'Bob'})"));
///   auto result = db.Execute(
///       "MATCH (u:User) WHERE u.id = $id RETURN u.name",
///       {{"id", Value::Int(89)}});
///
/// Statements are atomic: a failed statement (including a conflicting SET
/// or a dangling-relationship DELETE) leaves the graph unchanged.
///
/// Thread-safety: plain (non-durable) use is single-threaded; callers
/// serialize. After OpenDurable, concurrent Execute calls are allowed —
/// an internal lock serializes statement execution and, under group
/// commit, concurrent sessions batch their log fsyncs.
class GraphDatabase {
 public:
  explicit GraphDatabase(EvalOptions options = {});

  GraphDatabase(GraphDatabase&&) noexcept;
  GraphDatabase& operator=(GraphDatabase&&) noexcept;
  ~GraphDatabase();

  /// The stored graph; mutate directly only from loaders/tests.
  PropertyGraph& graph() { return graph_; }
  const PropertyGraph& graph() const { return graph_; }

  /// Session defaults, applied to Execute calls without explicit options.
  EvalOptions& options() { return options_; }
  const EvalOptions& options() const { return options_; }

  /// Parses and executes one statement with the session options.
  Result<QueryResult> Execute(std::string_view query) {
    return Execute(query, ValueMap());
  }
  Result<QueryResult> Execute(std::string_view query, const ValueMap& params) {
    return Execute(query, params, options_);
  }

  /// Parses and executes one statement with explicit options (benches use
  /// this to sweep semantics/variants without touching session state).
  Result<QueryResult> Execute(std::string_view query, const ValueMap& params,
                              const EvalOptions& options);

  /// Execute, discarding the result table; convenient for setup code.
  Status Run(std::string_view query) { return Execute(query).status(); }

  /// Splits a script on top-level semicolons (string-literal aware) and
  /// executes each statement in order, stopping at the first error.
  Result<std::vector<QueryResult>> ExecuteScript(std::string_view script);

  /// Serializes the graph to `path` in the DumpGraph text format.
  Status SaveToFile(const std::string& path) const;

  /// Replaces the graph with the contents of a DumpGraph-format file.
  Status LoadFromFile(const std::string& path);

  // ---- Durability -----------------------------------------------------------

  /// Attaches a write-ahead log and makes every later Execute crash-safe.
  ///
  /// An empty log is initialized with the magic and a snapshot of the
  /// current graph. A non-empty log is recovered first: the graph is
  /// REPLACED by the latest snapshot plus every whole committed statement
  /// after it, and the file is truncated to that valid prefix (dropping a
  /// torn tail from a crashed writer). From then on each committed update
  /// statement appends one checksummed record before it becomes visible.
  Status OpenDurable(std::unique_ptr<storage::LogFile> file,
                     DurabilityOptions durability = {});

  /// Appends a fresh snapshot record and syncs it; recovery after this
  /// point replays from the new snapshot instead of the whole statement
  /// history. The log is append-only, so the file keeps growing until the
  /// operator rotates it (crash-safe at every point in between).
  Status Checkpoint();

  /// True once OpenDurable succeeded.
  bool durable() const { return wal_ != nullptr; }

  /// The write-ahead log's sticky I/O error (OK while healthy); once set,
  /// every later update statement is refused with the same status.
  Status wal_error() const;

  /// The log writer; tests use it to reach the underlying LogFile.
  storage::WalWriter* wal_writer();

  // ---- Log-shipping replication ---------------------------------------------

  /// Attaches a read-only follower (a replication::Replica on the other end
  /// of `transport`): under the execution lock, snapshots the graph at the
  /// current end LSN, registers a WAL retention pin there, and starts
  /// streaming every later committed statement as record-aligned segments.
  /// Requires a write-ahead log (the statement stream IS the WAL). Commits
  /// pump the stream automatically; tests and pollers can PumpReplication()
  /// at any time. Returns the follower id for DetachFollower.
  Result<int> AttachFollower(std::shared_ptr<replication::Transport> transport,
                             ReplicationOptions options = {});

  /// Re-attaches a RETURNING follower that already holds every committed
  /// byte below `lsn` in its own durable log (a socket follower
  /// reconnecting after a crash): no snapshot is taken — the stream simply
  /// resumes at `lsn`, which must still be a record boundary the WAL can
  /// serve (at or above WalWriter::min_resume_lsn(), not past the durable
  /// end; callers that cannot guarantee it fall back to AttachFollower for
  /// a fresh bootstrap).
  Result<int> AttachFollowerAt(
      std::shared_ptr<replication::Transport> transport, uint64_t lsn,
      ReplicationOptions options = {});

  /// Releases the follower's retention pin and stops streaming to it. The
  /// next commit past the auto-checkpoint threshold can compact again.
  Status DetachFollower(int id);

  /// One replication round: process follower acks/resend requests, ship new
  /// durable bytes. Called automatically after each durable commit.
  Status PumpReplication();

  /// Lock-free: safe to poll from any thread, including while another
  /// thread attaches the first follower.
  ReplicationStatus replication_status() const;

  bool replicating() const { return shipper_.get() != nullptr; }

  // ---- Plan cache -----------------------------------------------------------

  /// The session's parametrized plan cache (see vm/plan_cache.h). Execute
  /// consults it unless EvalOptions::use_plan_cache is off: literals are
  /// auto-parametrized, the normalized shape keys the parametrized AST plus
  /// its stamped match-plan slots, and repeat statements skip parse and
  /// pattern compilation; the interpreter runs every statement. The
  /// cache is cleared whenever the graph object is replaced wholesale
  /// (LoadFromFile, WAL recovery) — cached match plans are stamped against
  /// graph statistics and must not survive a swap.
  PlanCache& plan_cache() { return *plan_cache_; }
  const PlanCache& plan_cache() const { return *plan_cache_; }

  /// The writer (default) session's own plan-cache hit/miss tally; snapshot
  /// read sessions carry their own (ReadSession::cache_counters). The
  /// shell's `:cache` reports these next to the global PlanCacheStats, and
  /// `:cache clear` resets them together with the global counters.
  const SessionCacheCounters& session_cache_counters() const {
    return session_counters_;
  }
  void ResetSessionCacheCounters() { session_counters_ = {}; }

  // ---- Snapshot read sessions -----------------------------------------------

  /// Switches the stored graph to epoch-based MVCC (DESIGN.md §4g) so
  /// BeginReadSession becomes available. Idempotent; call it between
  /// statements (never from inside one). The switch survives graph
  /// replacement (LoadFromFile, WAL recovery re-enable it on the new
  /// graph). Writer statements keep executing exactly as before — each
  /// successful one additionally publishes a new committed epoch and
  /// retires superseded record versions once no session pins them.
  Status EnableMvcc();

  bool mvcc_enabled() const { return graph_.mvcc_enabled(); }

  class ReadSession;

  /// Opens a read-only session pinned to the newest committed epoch.
  /// Requires EnableMvcc(). The session's statements (pure MATCH / UNWIND /
  /// WITH / RETURN) run lock-free and fully concurrently with writer
  /// Execute calls on this database — they never take the execution lock —
  /// and observe exactly the state as of the pinned epoch, however many
  /// statements the writer commits meanwhile. Update or DDL statements are
  /// refused. A session costs one registry slot (at most 256 concurrently)
  /// plus whatever superseded versions its pin holds back from
  /// reclamation; Refresh() or destruction lets them go. The session must
  /// not outlive the database, and the database must not be moved, loaded
  /// from a file, or recovered while sessions are open.
  Result<ReadSession> BeginReadSession();

 private:
  struct WalSession;
  friend class ReadSession;

  /// Runs one statement's executor under the WAL session: execution lock,
  /// DDL capture, the commit hook that encodes and appends (and, per sync
  /// mode, fsyncs) the statement image. The executor runs the interpreter,
  /// with or without a cached plan. On success the new epoch is published
  /// (MVCC) and the auto-checkpoint threshold consulted.
  using PlanExecutor = std::function<Result<QueryResult>(const CommitHook&)>;
  Result<QueryResult> ExecuteDurableWith(const PlanExecutor& run);

  /// Statement dispatch shared by every Execute path: pinned statements
  /// bypass the WAL session entirely (lock-free reads), writer statements
  /// take the durable route when a WAL is attached, and successful writer
  /// statements publish the next MVCC epoch.
  Result<QueryResult> RunStatement(const PlanExecutor& run,
                                   const EvalOptions& options);

  /// Execute with an explicit per-session counter sink (the public Execute
  /// uses the writer session's; ReadSession::Execute passes its own).
  Result<QueryResult> ExecuteWith(std::string_view query,
                                  const ValueMap& params,
                                  const EvalOptions& options,
                                  SessionCacheCounters* counters);

  /// The plan-cache route of Execute (use_plan_cache on).
  Result<QueryResult> ExecuteCached(std::string_view query,
                                    const ValueMap& params,
                                    const EvalOptions& options,
                                    SessionCacheCounters* counters);

  /// Under the execution lock, after a successful commit: compacts the log
  /// to [magic, snapshot] once it outgrows the configured threshold.
  void MaybeAutoCheckpoint();

  /// Lazily creates the shared shipper and returns it; the first attach's
  /// options win.
  replication::LogShipper* EnsureShipper(const ReplicationOptions& options);

  /// Owns the shipper. The first attach creates it, often on a replication
  /// server thread, while commits, checkpoints and status polls read it on
  /// other threads: it is published once with release semantics and read
  /// with acquire, so readers need no lock. Moving is safe only while no
  /// other thread can reach the database.
  class ShipperSlot {
   public:
    ShipperSlot() = default;
    ShipperSlot(ShipperSlot&& other) noexcept;
    ShipperSlot& operator=(ShipperSlot&& other) noexcept;
    ~ShipperSlot();

    replication::LogShipper* get() const {
      return ptr_.load(std::memory_order_acquire);
    }
    /// Publishes `shipper` unless one is already published; returns the
    /// published shipper either way.
    replication::LogShipper* Publish(
        std::unique_ptr<replication::LogShipper> shipper);

   private:
    std::atomic<replication::LogShipper*> ptr_{nullptr};
  };

  PropertyGraph graph_;
  EvalOptions options_;
  std::unique_ptr<WalSession> wal_;
  /// Declared after wal_: the shipper holds retention pins in wal_'s writer
  /// and must release them first on destruction.
  ShipperSlot shipper_;
  std::unique_ptr<PlanCache> plan_cache_;
  SessionCacheCounters session_counters_;
  bool mvcc_requested_ = false;
  /// Open ReadSession count (heap-allocated so the database stays movable;
  /// sessions hold a stable pointer to it). Guards graph replacement.
  std::unique_ptr<std::atomic<int>> open_read_sessions_;
};

/// A pinned snapshot session (see GraphDatabase::BeginReadSession). Movable,
/// not copyable; releases its pin on destruction. One session is one
/// thread's view — concurrent Execute calls on the same session are not
/// allowed (open one session per reader thread; they are cheap).
class GraphDatabase::ReadSession {
 public:
  ReadSession(ReadSession&& other) noexcept
      : db_(other.db_), pin_(other.pin_), counters_(other.counters_) {
    other.db_ = nullptr;
  }
  ReadSession& operator=(ReadSession&& other) noexcept {
    if (this != &other) {
      Close();
      db_ = other.db_;
      pin_ = other.pin_;
      counters_ = other.counters_;
      other.db_ = nullptr;
    }
    return *this;
  }
  ~ReadSession() { Close(); }

  /// The committed epoch every statement of this session observes.
  uint64_t epoch() const { return pin_.epoch; }

  /// Executes one read-only statement against the pinned epoch. Never
  /// blocks on the writer; rejects update/DDL statements.
  Result<QueryResult> Execute(std::string_view query) {
    return Execute(query, ValueMap());
  }
  Result<QueryResult> Execute(std::string_view query, const ValueMap& params);

  /// Execute + RenderResult in one call, with the pin installed around
  /// rendering too: node/relationship cells expand against the pinned
  /// epoch. (Rendering the QueryResult after Execute returns would expand
  /// entity handles against the writer's latest state instead.)
  Result<std::string> ExecuteRendered(std::string_view query,
                                      const ValueMap& params = {});

  /// Moves the pin forward to the newest committed epoch (like closing and
  /// reopening the session, but keeps the registry slot — the reclamation
  /// horizon only ever advances).
  void Refresh();

  /// This session's plan-cache hit/miss tally.
  const SessionCacheCounters& cache_counters() const { return counters_; }
  void ResetCacheCounters() { counters_ = {}; }

  /// Releases the pin early (destruction does the same); the session is
  /// unusable afterwards. Idempotent.
  void Close();

 private:
  friend class GraphDatabase;
  ReadSession(GraphDatabase* db, ReadPin pin) : db_(db), pin_(pin) {}

  GraphDatabase* db_ = nullptr;  // null = moved-from/closed
  ReadPin pin_;
  SessionCacheCounters counters_;
};

/// Splits a script into statements at top-level ';' boundaries using the
/// lexer (so ';' inside string literals does not split). Whitespace-only
/// statements are dropped.
Result<std::vector<std::string>> SplitStatements(std::string_view script);

}  // namespace cypher

#endif  // CYPHER_CYPHER_DATABASE_H_
