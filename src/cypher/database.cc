#include "cypher/database.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <sstream>

#include "ast/printer.h"
#include "common/check.h"
#include "common/strings.h"
#include "exec/render.h"
#include "graph/serialize.h"
#include "parser/lexer.h"
#include "parser/parser.h"
#include "replication/log_shipper.h"
#include "replication/transport.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "vm/compiler.h"
#include "vm/normalize.h"

namespace cypher {

namespace {

/// Execution options that could conceivably steer plan compilation are
/// folded into every cache key, so sessions running different semantics
/// never share an entry. (The interpreter reads all options at runtime, so
/// a cached AST does not depend on them — the fingerprint is cheap
/// insurance against that ever changing.)
std::string OptionsFingerprint(const EvalOptions& options) {
  std::string fp;
  fp += std::to_string(static_cast<int>(options.semantics));
  fp += '|';
  fp += std::to_string(static_cast<int>(options.match_mode));
  fp += '|';
  fp += options.strict_cypher9_syntax ? '1' : '0';
  fp += '|';
  fp += options.plain_merge_variant
            ? std::to_string(static_cast<int>(*options.plain_merge_variant))
            : std::string("-");
  fp += '|';
  return fp;
}

/// Appends the execution-tier row to an EXPLAIN plan, after the SEMANTICS
/// row: every statement runs on the interpreter, and `disposition` says how
/// the plan cache would treat it (hit / miss / disabled / uncacheable).
void AppendTierRow(QueryResult* result, const char* disposition) {
  int64_t step =
      result->rows.empty() ? 0 : result->rows.back().front().AsInt() + 1;
  result->rows.push_back(
      {Value::Int(step), Value::String("TIER"),
       Value::String(std::string("interpreter; plan cache: ") + disposition)});
}

}  // namespace

/// Write-ahead-log state of a durable database: the group-commit writer
/// plus the lock that serializes statement execution (parse and fsync
/// happen outside it, so concurrent sessions overlap everywhere the graph
/// itself is not involved).
struct GraphDatabase::WalSession {
  WalSession(std::unique_ptr<storage::LogFile> file, DurabilityOptions opts)
      : writer(std::move(file)), durability(opts) {}

  std::mutex exec_mu;
  storage::WalWriter writer;
  DurabilityOptions durability;
  /// Log size right after the last (auto or explicit) checkpoint; the
  /// auto-checkpoint hysteresis compares against it. Guarded by exec_mu.
  uint64_t last_checkpoint_bytes = 0;
};

GraphDatabase::GraphDatabase(EvalOptions options)
    : options_(std::move(options)),
      plan_cache_(std::make_unique<PlanCache>()),
      open_read_sessions_(std::make_unique<std::atomic<int>>(0)) {}
GraphDatabase::GraphDatabase(GraphDatabase&&) noexcept = default;
GraphDatabase& GraphDatabase::operator=(GraphDatabase&&) noexcept = default;
GraphDatabase::~GraphDatabase() = default;

Result<QueryResult> GraphDatabase::Execute(std::string_view query,
                                           const ValueMap& params,
                                           const EvalOptions& options) {
  return ExecuteWith(query, params, options, &session_counters_);
}

Result<QueryResult> GraphDatabase::ExecuteWith(std::string_view query,
                                               const ValueMap& params,
                                               const EvalOptions& options,
                                               SessionCacheCounters* counters) {
  if (options.use_plan_cache) {
    return ExecuteCached(query, params, options, counters);
  }
  CYPHER_ASSIGN_OR_RETURN(Query ast, ParseQuery(query));
  auto run = [&](const CommitHook& hook) -> Result<QueryResult> {
    return ExecuteQuery(&graph_, ast, params, options, hook);
  };
  Result<QueryResult> result = RunStatement(run, options);
  if (result.ok() && ast.mode == QueryMode::kExplain) {
    AppendTierRow(&*result, "disabled");
  }
  return result;
}

Result<QueryResult> GraphDatabase::ExecuteCached(std::string_view query,
                                                 const ValueMap& params,
                                                 const EvalOptions& options,
                                                 SessionCacheCounters* counters) {
  std::string fingerprint = OptionsFingerprint(options);
  std::string raw_key = fingerprint + "raw:" + std::string(query);

  std::shared_ptr<const CachedPlan> plan;
  std::vector<Value> literals;
  if (auto raw_hit = plan_cache_->LookupRaw(raw_key)) {
    counters->hits.fetch_add(1, std::memory_order_relaxed);
    plan = std::move(raw_hit->first);
    literals = std::move(raw_hit->second);
  } else {
    CYPHER_ASSIGN_OR_RETURN(Query ast, ParseQuery(query));
    if (ast.mode != QueryMode::kNormal || HasDdlClause(ast)) {
      // Uncacheable: EXPLAIN/PROFILE report on plans rather than produce
      // rows (and must print the statement's own literals, not $#N), and
      // DDL self-invalidates whatever it would cache. Run the interpreter
      // on the original, un-parametrized statement.
      bool ddl = HasDdlClause(ast);
      auto run = [&](const CommitHook& hook) -> Result<QueryResult> {
        return ExecuteQuery(&graph_, ast, params, options, hook);
      };
      Result<QueryResult> result = RunStatement(run, options);
      if (result.ok() && ast.mode == QueryMode::kExplain) {
        if (ddl) {
          AppendTierRow(&*result, "uncacheable (DDL)");
        } else {
          // What would a normal execution of this statement do right now?
          Query probe = CloneQuery(ast);
          probe.mode = QueryMode::kNormal;
          std::vector<Value> probe_literals;
          ParametrizeQuery(&probe, &probe_literals);
          bool warm = plan_cache_->PeekShape(fingerprint +
                                             "shape:" + ToCypher(probe));
          AppendTierRow(&*result, warm ? "hit" : "miss");
        }
      }
      return result;
    }

    ParametrizeQuery(&ast, &literals);
    std::string shape_key = fingerprint + "shape:" + ToCypher(ast);
    plan = plan_cache_->LookupShape(shape_key);
    if (plan == nullptr) {
      counters->misses.fetch_add(1, std::memory_order_relaxed);
      // Move the AST into the entry first, build the slots second: they
      // point into heap-allocated clause nodes, which do not move with the
      // Query object.
      auto fresh = std::make_shared<CachedPlan>();
      fresh->ast = std::move(ast);
      fresh->num_params = literals.size();
      fresh->match_slots = CompileStatement(fresh->ast);
      plan = std::move(fresh);
      plan_cache_->InsertShape(shape_key, plan);
    } else {
      counters->hits.fetch_add(1, std::memory_order_relaxed);
    }
    plan_cache_->InsertRaw(raw_key, plan, literals);
  }

  // Bind the extracted literals as `$#i`. The lexer cannot produce a `#`
  // parameter name, so emplace never collides with a user parameter.
  ValueMap merged = params;
  for (size_t i = 0; i < literals.size(); ++i) {
    merged.emplace("#" + std::to_string(i), std::move(literals[i]));
  }
  auto run = [&](const CommitHook& hook) -> Result<QueryResult> {
    return ExecuteQuery(&graph_, plan->ast, merged, options, hook,
                        &plan->match_slots);
  };
  return RunStatement(run, options);
}

Result<QueryResult> GraphDatabase::RunStatement(const PlanExecutor& run,
                                                const EvalOptions& options) {
  // Snapshot session: the statement reads a pinned committed epoch and
  // writes nothing — no execution lock, no WAL, no epoch publication. This
  // is the lock-free path that lets N readers run concurrently with the
  // committing writer.
  if (options.read_pin != nullptr) return run(nullptr);
  if (wal_ != nullptr) return ExecuteDurableWith(run);
  Result<QueryResult> result = run(nullptr);
  if (result.ok() && graph_.mvcc_enabled()) graph_.PublishEpoch();
  return result;
}

Status GraphDatabase::OpenDurable(std::unique_ptr<storage::LogFile> file,
                                  DurabilityOptions durability) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument("write-ahead log already attached");
  }
  if (open_read_sessions_->load() != 0) {
    // Recovery may replace the graph object wholesale; live pins reference
    // the old graph's registry and version chains.
    return Status::InvalidArgument(
        "cannot attach a write-ahead log while snapshot read sessions are "
        "open");
  }
  if (file->size() == 0) {
    // Fresh log: magic plus a snapshot of whatever the caller loaded so
    // far, made durable before the first statement can commit against it.
    CYPHER_RETURN_NOT_OK(
        file->Append(storage::kWalMagic, storage::kWalMagicSize));
    std::string snap = storage::EncodeWalRecord(
        storage::WalRecordType::kSnapshot, storage::EncodeSnapshot(graph_));
    CYPHER_RETURN_NOT_OK(file->Append(snap.data(), snap.size()));
    CYPHER_RETURN_NOT_OK(file->Sync());
  } else {
    CYPHER_ASSIGN_OR_RETURN(std::string bytes, file->ReadAll());
    CYPHER_ASSIGN_OR_RETURN(storage::RecoveredGraph recovered,
                            storage::RecoverGraph(bytes));
    // Drop the torn tail (if any) so new records append to a clean prefix.
    CYPHER_RETURN_NOT_OK(file->Truncate(recovered.valid_bytes));
    graph_ = std::move(recovered.graph);
    // The graph object was replaced: every cached match plan is stamped
    // against the old one, and an equal-looking stamp must not revive it.
    plan_cache_->Clear();
    // A recovered graph starts life non-MVCC; restore the session switch.
    if (mvcc_requested_) graph_.EnableMvcc();
  }
  wal_ = std::make_unique<WalSession>(std::move(file), durability);
  wal_->last_checkpoint_bytes = wal_->writer.LogBytes();
  return Status::OK();
}

Status GraphDatabase::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("database has no write-ahead log");
  }
  {
    std::lock_guard<std::mutex> lock(wal_->exec_mu);
    Result<uint64_t> lsn = wal_->writer.Append(
        storage::WalRecordType::kSnapshot, storage::EncodeSnapshot(graph_));
    if (!lsn.ok()) return lsn.status();
    CYPHER_RETURN_NOT_OK(wal_->writer.Sync(*lsn));
    wal_->last_checkpoint_bytes = wal_->writer.LogBytes();
  }
  // A checkpoint record is just another shippable record: contiguous
  // followers skip its payload (they already hold that state) but their
  // cursors advance past it.
  if (replication::LogShipper* shipper = shipper_.get()) (void)shipper->Pump();
  return Status::OK();
}

void GraphDatabase::MaybeAutoCheckpoint() {
  uint64_t threshold = wal_->durability.auto_checkpoint_bytes;
  if (threshold == 0) return;
  uint64_t bytes = wal_->writer.LogBytes();
  // Hysteresis: a graph whose snapshot alone exceeds the threshold would
  // otherwise compact on every commit; require the log to have doubled
  // since the last checkpoint before paying for another one.
  if (bytes <= threshold || bytes < 2 * wal_->last_checkpoint_bytes) return;
  // Retention: a lagging follower's pin means compaction would drop bytes
  // it has not fetched yet. Skip — the log keeps growing until the pin
  // catches up or the follower detaches, then the next commit compacts.
  // (Rewrite re-checks under its own lock; this just avoids paying for a
  // snapshot encode that would be refused.)
  if (wal_->writer.MinRetentionPin() < wal_->writer.appended_lsn()) return;
  Status st = wal_->writer.Rewrite(storage::WalRecordType::kSnapshot,
                                   storage::EncodeSnapshot(graph_));
  // A failed rewrite poisons the writer (sticky error); the next update
  // statement surfaces it. The current statement already committed — its
  // effects are in the snapshot we just failed to write, and the old log
  // contents still hold its record or predecessors up to the durable
  // prefix, so nothing acknowledged is lost beyond the existing
  // group-commit contract.
  if (st.ok()) wal_->last_checkpoint_bytes = wal_->writer.LogBytes();
}

Status GraphDatabase::wal_error() const {
  return wal_ == nullptr ? Status::OK() : wal_->writer.error();
}

storage::WalWriter* GraphDatabase::wal_writer() {
  return wal_ == nullptr ? nullptr : &wal_->writer;
}

Result<QueryResult> GraphDatabase::ExecuteDurableWith(const PlanExecutor& run) {
  bool group_sync =
      wal_->durability.sync_mode == DurabilityOptions::SyncMode::kGroupCommit;
  uint64_t lsn = 0;
  bool logged = false;
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    std::lock_guard<std::mutex> lock(wal_->exec_mu);
    // A poisoned log refuses further statements: the in-memory graph may
    // already be ahead of the durable prefix (group commit), and anything
    // committed now could silently vanish on recovery.
    CYPHER_RETURN_NOT_OK(wal_->writer.error());
    graph_.BeginDdlCapture();
    CommitHook hook = [&](PropertyGraph::JournalMark mark) -> Status {
      std::string image =
          storage::EncodeStatementImage(graph_, mark, graph_.TakeDdlLog());
      if (image.empty()) return Status::OK();  // read-only: nothing to log
      Result<uint64_t> appended =
          wal_->writer.Append(storage::WalRecordType::kStatement, image);
      if (!appended.ok()) return appended.status();
      lsn = *appended;
      logged = true;
      // Every-commit mode makes the record durable before the statement
      // commits in memory; a failure here rolls the statement back whole.
      if (!group_sync) return wal_->writer.Sync(lsn);
      return Status::OK();
    };
    Result<QueryResult> r = run(hook);
    graph_.AbortDdlCapture();  // no-op when the hook consumed the log
    if (r.ok()) {
      // The commit point: the statement is in memory and its record at
      // least appended. Publish the next epoch while still holding the
      // execution lock — a pin acquired from here on observes it.
      if (graph_.mvcc_enabled()) graph_.PublishEpoch();
      MaybeAutoCheckpoint();
    }
    return r;
  }();
  // Group commit: fsync outside the execution lock, so statements executed
  // meanwhile by other sessions pile their records into the same sync.
  if (result.ok() && logged && group_sync) {
    CYPHER_RETURN_NOT_OK(wal_->writer.Sync(lsn));
  }
  // Ship the newly durable bytes to any attached followers. A transport
  // hiccup never fails the statement — the shipper's cursors stay put and
  // the next pump retries.
  if (result.ok() && logged) {
    if (replication::LogShipper* shipper = shipper_.get()) (void)shipper->Pump();
  }
  return result;
}

// ---- Log-shipping replication -----------------------------------------------

Result<int> GraphDatabase::AttachFollower(
    std::shared_ptr<replication::Transport> transport,
    ReplicationOptions options) {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "replication requires a write-ahead log (OpenDurable first)");
  }
  if (transport == nullptr) {
    return Status::InvalidArgument("AttachFollower needs a transport");
  }
  replication::LogShipper* shipper = EnsureShipper(options);
  int id;
  {
    // Under the execution lock the graph and the log end cannot move, so
    // the bootstrap snapshot is consistent with exactly the statements
    // below the attach LSN — the invariant every later segment extends.
    std::lock_guard<std::mutex> lock(wal_->exec_mu);
    id = shipper->Attach(std::move(transport), wal_->writer.appended_lsn(),
                         storage::EncodeSnapshot(graph_));
  }
  (void)shipper->Pump();
  return id;
}

Result<int> GraphDatabase::AttachFollowerAt(
    std::shared_ptr<replication::Transport> transport, uint64_t lsn,
    ReplicationOptions options) {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "replication requires a write-ahead log (OpenDurable first)");
  }
  if (transport == nullptr) {
    return Status::InvalidArgument("AttachFollowerAt needs a transport");
  }
  if (lsn < wal_->writer.min_resume_lsn()) {
    return Status::InvalidArgument(
        "resume lsn " + std::to_string(lsn) +
        " predates log retention (resume floor " +
        std::to_string(wal_->writer.min_resume_lsn()) +
        "); the follower must re-bootstrap");
  }
  if (lsn > wal_->writer.appended_lsn()) {
    return Status::InvalidArgument(
        "resume lsn " + std::to_string(lsn) + " is past the log end " +
        std::to_string(wal_->writer.appended_lsn()));
  }
  replication::LogShipper* shipper = EnsureShipper(options);
  // No snapshot and no execution lock needed: the follower's own durable
  // log stands in for the bootstrap. AttachAt registers the retention pin;
  // a compaction racing between the resume-floor check above and the pin
  // could still have dropped the bytes, so re-check once the pin is in
  // place and undo the attach if retention moved past us.
  int id = shipper->AttachAt(std::move(transport), lsn);
  if (lsn < wal_->writer.min_resume_lsn()) {
    (void)shipper->Detach(id);
    return Status::InvalidArgument(
        "resume lsn " + std::to_string(lsn) +
        " was compacted away during attach; the follower must re-bootstrap");
  }
  (void)shipper->Pump();
  return id;
}

replication::LogShipper* GraphDatabase::EnsureShipper(
    const ReplicationOptions& options) {
  if (replication::LogShipper* shipper = shipper_.get()) return shipper;
  replication::ShipperOptions shipper_options;
  shipper_options.segment_bytes = options.segment_bytes;
  shipper_options.max_retained_bytes = options.max_retained_bytes;
  return shipper_.Publish(std::make_unique<replication::LogShipper>(
      &wal_->writer, shipper_options));
}

GraphDatabase::ShipperSlot::ShipperSlot(ShipperSlot&& other) noexcept
    : ptr_(other.ptr_.exchange(nullptr)) {}

GraphDatabase::ShipperSlot& GraphDatabase::ShipperSlot::operator=(
    ShipperSlot&& other) noexcept {
  if (this != &other) delete ptr_.exchange(other.ptr_.exchange(nullptr));
  return *this;
}

GraphDatabase::ShipperSlot::~ShipperSlot() { delete ptr_.load(); }

replication::LogShipper* GraphDatabase::ShipperSlot::Publish(
    std::unique_ptr<replication::LogShipper> shipper) {
  replication::LogShipper* expected = nullptr;
  if (ptr_.compare_exchange_strong(expected, shipper.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return shipper.release();
  }
  return expected;  // a concurrent first attach won; drop ours
}

Status GraphDatabase::DetachFollower(int id) {
  replication::LogShipper* shipper = shipper_.get();
  if (shipper == nullptr) {
    return Status::InvalidArgument("no followers attached");
  }
  return shipper->Detach(id);
}

Status GraphDatabase::PumpReplication() {
  replication::LogShipper* shipper = shipper_.get();
  if (shipper == nullptr) return Status::OK();
  return shipper->Pump();
}

ReplicationStatus GraphDatabase::replication_status() const {
  ReplicationStatus status;
  if (wal_ != nullptr) {
    status.appended_lsn = wal_->writer.appended_lsn();
    status.durable_lsn = wal_->writer.durable_lsn();
    status.log_bytes = wal_->writer.LogBytes();
  }
  status.min_acked_lsn = UINT64_MAX;
  if (const replication::LogShipper* shipper = shipper_.get()) {
    for (const replication::FollowerStatus& f : shipper->Statuses()) {
      status.detail.push_back({f.id, f.acked_lsn, f.shipped_lsn, f.resends,
                               f.link});
      status.min_acked_lsn = std::min(status.min_acked_lsn, f.acked_lsn);
    }
    status.followers = status.detail.size();
    status.stale_detaches = shipper->stale_detaches();
    status.last_stale_warning = shipper->last_stale_warning();
  }
  return status;
}

Status GraphDatabase::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open file for writing: " + path);
  }
  out << DumpGraph(graph_);
  if (!out.good()) return Status::InvalidArgument("write failed: " + path);
  return Status::OK();
}

Status GraphDatabase::LoadFromFile(const std::string& path) {
  if (open_read_sessions_->load() != 0) {
    return Status::InvalidArgument(
        "cannot replace the graph while snapshot read sessions are open");
  }
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open file for reading: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  CYPHER_ASSIGN_OR_RETURN(PropertyGraph loaded, LoadGraph(buffer.str()));
  graph_ = std::move(loaded);
  plan_cache_->Clear();  // cached plans are stamped against the old graph
  if (mvcc_requested_) graph_.EnableMvcc();
  return Status::OK();
}

// ---- Snapshot read sessions -------------------------------------------------

Status GraphDatabase::EnableMvcc() {
  if (mvcc_requested_ && graph_.mvcc_enabled()) return Status::OK();
  mvcc_requested_ = true;
  graph_.EnableMvcc();
  return Status::OK();
}

Result<GraphDatabase::ReadSession> GraphDatabase::BeginReadSession() {
  if (!graph_.mvcc_enabled()) {
    return Status::InvalidArgument(
        "snapshot read sessions require EnableMvcc() first");
  }
  ReadPin pin = graph_.AcquireReadPin();
  open_read_sessions_->fetch_add(1);
  return ReadSession(this, pin);
}

Result<QueryResult> GraphDatabase::ReadSession::Execute(
    std::string_view query, const ValueMap& params) {
  CYPHER_CHECK(db_ != nullptr && "Execute on a moved-from ReadSession");
  EvalOptions options = db_->options_;
  options.read_pin = &pin_;
  return db_->ExecuteWith(query, params, options, &counters_);
}

Result<std::string> GraphDatabase::ReadSession::ExecuteRendered(
    std::string_view query, const ValueMap& params) {
  CYPHER_ASSIGN_OR_RETURN(QueryResult result, Execute(query, params));
  ScopedReadPin scope(pin_);
  return RenderResult(db_->graph_, result);
}

void GraphDatabase::ReadSession::Refresh() {
  CYPHER_CHECK(db_ != nullptr && "Refresh on a moved-from ReadSession");
  db_->graph_.RefreshReadPin(&pin_);
}

void GraphDatabase::ReadSession::Close() {
  if (db_ == nullptr) return;
  db_->graph_.ReleaseReadPin(pin_);
  db_->open_read_sessions_->fetch_sub(1);
  db_ = nullptr;
}

Result<std::vector<std::string>> SplitStatements(std::string_view script) {
  CYPHER_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(script));
  std::vector<std::string> statements;
  size_t begin = 0;  // byte offset of the current statement
  for (const Token& token : tokens) {
    if (token.kind != TokenKind::kSemicolon && token.kind != TokenKind::kEnd) {
      continue;
    }
    std::string_view piece = script.substr(begin, token.offset - begin);
    piece = StripAsciiWhitespace(piece);
    if (!piece.empty()) statements.emplace_back(piece);
    begin = token.offset + 1;
  }
  return statements;
}

Result<std::vector<QueryResult>> GraphDatabase::ExecuteScript(
    std::string_view script) {
  CYPHER_ASSIGN_OR_RETURN(std::vector<std::string> statements,
                          SplitStatements(script));
  std::vector<QueryResult> results;
  results.reserve(statements.size());
  for (const std::string& statement : statements) {
    CYPHER_ASSIGN_OR_RETURN(QueryResult result, Execute(statement));
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace cypher
