// Snapshot-isolated read sessions (DESIGN.md §4g): pinned-epoch visibility,
// refresh, read-only enforcement, version reclamation, per-session cache
// counters, WAL auto-checkpointing, pinned property-index seeks, and — the
// heavyweight cases — concurrent read/write differential oracles. In the
// first, N reader threads open sessions mid-workload while a writer commits
// continuously; every sampled result must byte-match a sequential replay of
// the statement prefix (and of the WAL byte prefix) at the session's pinned
// epoch. In the second, pinned index seeks, pinned label scans and the
// writer's own results must agree at every epoch while the writer churns
// indexed values and creates and drops the index. The suite runs under TSan
// in CI, so the oracles double as the data-race detector for the lock-free
// read path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cypher/database.h"
#include "exec/render.h"
#include "query_gen.h"
#include "storage/log_file.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "test_util.h"

namespace cypher {
namespace {

using storage::MemoryLogFile;
using storage::RecoverGraph;
using testing::BuildRandomGraph;
using testing::GenerateReadQuery;
using testing::GenerateUpdateWorkload;
using testing::RunOk;
using testing::Scalar;

TEST(MvccTest, SessionSeesPinnedStateWhileWriterAdvances) {
  GraphDatabase db;
  RunOk(&db, "CREATE (:N {v: 1}), (:N {v: 2})");
  ASSERT_TRUE(db.EnableMvcc().ok());

  auto session = db.BeginReadSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->epoch(), 0u);

  // The writer keeps committing; the pinned session must not notice.
  RunOk(&db, "CREATE (:N {v: 3})");
  RunOk(&db, "MATCH (n:N {v: 1}) SET n.v = 100");
  RunOk(&db, "MATCH (n:N {v: 2}) DELETE n");

  auto pinned = session->Execute("MATCH (n:N) RETURN count(n)");
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(Scalar(*pinned).AsInt(), 2);
  auto old_val = session->Execute("MATCH (n:N) RETURN n.v ORDER BY n.v");
  ASSERT_TRUE(old_val.ok());
  ASSERT_EQ(old_val->rows.size(), 2u);
  EXPECT_EQ(old_val->rows[0][0].AsInt(), 1);
  EXPECT_EQ(old_val->rows[1][0].AsInt(), 2);

  // Refresh re-pins to the newest committed epoch (every committed writer
  // statement publishes one, so three commits = epoch 3).
  session->Refresh();
  EXPECT_EQ(session->epoch(), 3u);
  auto fresh = session->Execute("MATCH (n:N) RETURN n.v ORDER BY n.v");
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->rows.size(), 2u);
  EXPECT_EQ(fresh->rows[0][0].AsInt(), 3);
  EXPECT_EQ(fresh->rows[1][0].AsInt(), 100);

  // The writer itself sees the latest state throughout.
  EXPECT_EQ(Scalar(RunOk(&db, "MATCH (n:N) RETURN count(n)")).AsInt(), 2);
  EXPECT_EQ(Scalar(RunOk(&db, "MATCH (n:N) WHERE n.v = 100 RETURN count(n)"))
                .AsInt(),
            1);
}

TEST(MvccTest, SessionRefusesUpdatesAndDdl) {
  GraphDatabase db;
  ASSERT_TRUE(db.EnableMvcc().ok());
  auto session = db.BeginReadSession();
  ASSERT_TRUE(session.ok());
  for (const char* stmt : {
           "CREATE (:X)",
           "MATCH (n) SET n.v = 1",
           "MATCH (n) DELETE n",
           "MERGE (:X {id: 1})",
           "CREATE INDEX ON :X(id)",
       }) {
    auto r = session->Execute(stmt);
    ASSERT_FALSE(r.ok()) << stmt << " unexpectedly succeeded in a snapshot";
    EXPECT_NE(r.status().ToString().find("read-only"), std::string::npos)
        << r.status().ToString();
  }
  // Read-only composite forms stay allowed.
  EXPECT_TRUE(session->Execute("UNWIND [1,2] AS x WITH x WHERE x > 1 "
                               "RETURN x").ok());
}

TEST(MvccTest, BeginReadSessionRequiresEnableMvcc) {
  GraphDatabase db;
  EXPECT_FALSE(db.BeginReadSession().ok());
  ASSERT_TRUE(db.EnableMvcc().ok());
  EXPECT_TRUE(db.BeginReadSession().ok());
}

TEST(MvccTest, PinnedReadsSkipPropertyIndexes) {
  GraphDatabase db;
  RunOk(&db, "CREATE INDEX ON :U(id)");
  for (int i = 0; i < 20; ++i) {
    RunOk(&db, "CREATE (:U {id: " + std::to_string(i) + "})");
  }
  ASSERT_TRUE(db.EnableMvcc().ok());
  auto session = db.BeginReadSession();
  ASSERT_TRUE(session.ok());
  RunOk(&db, "MATCH (u:U {id: 7}) SET u.id = 700");
  // Indexed equality predicate: the writer plan would anchor on the (now
  // stale, unversioned) property index; the pinned compile must fall back
  // to a versioned scan and still see the snapshot value.
  auto r = session->Execute("MATCH (u:U {id: 7}) RETURN count(u)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Scalar(*r).AsInt(), 1);
  // The writer's own indexed read sees the update.
  EXPECT_EQ(Scalar(RunOk(&db, "MATCH (u:U {id: 700}) RETURN count(u)"))
                .AsInt(),
            1);
}

/// Every cell of a result (EXPLAIN included), one row per line.
std::string Cells(const Result<QueryResult>& result) {
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  std::string out;
  for (const std::vector<Value>& row : result->rows) {
    for (const Value& cell : row) out += cell.ToString() + '\t';
    out += '\n';
  }
  return out;
}

TEST(MvccTest, SessionExplainShowsIndexSeek) {
  GraphDatabase db;
  RunOk(&db, "CREATE INDEX ON :User(id)");
  RunOk(&db, "UNWIND range(1, 50) AS i CREATE (:User {id: i})");
  ASSERT_TRUE(db.EnableMvcc().ok());
  auto session = db.BeginReadSession();
  ASSERT_TRUE(session.ok());
  std::string plan =
      Cells(session->Execute("EXPLAIN MATCH (u:User {id: 7}) RETURN u"));
  EXPECT_NE(plan.find("index: :User(id)"), std::string::npos) << plan;
}

// Commit-time compaction prunes the entries of re-valued nodes from the
// newest postings only: a session pinned before the rewrite still seeks
// every node by its old value.
TEST(MvccTest, PinnedSeeksKeepEntriesThatCompactionPrunes) {
  GraphDatabase db;
  RunOk(&db, "CREATE INDEX ON :U(id)");
  RunOk(&db, "UNWIND range(1, 20) AS i CREATE (:U {id: i})");
  ASSERT_TRUE(db.EnableMvcc().ok());
  auto session = db.BeginReadSession();
  ASSERT_TRUE(session.ok());
  RunOk(&db, "MATCH (u:U) SET u.id = u.id + 100");
  const PropertyGraph& g = db.graph();
  EXPECT_EQ(g.IndexEntryCount(g.FindLabel("U"), g.FindKey("id")), 20u)
      << "the commit should have compacted the 20 stale entries";
  for (int id : {1, 7, 20}) {
    auto r = session->Execute("MATCH (u:U {id: $id}) RETURN count(u)",
                              {{"id", Value::Int(id)}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Scalar(*r).AsInt(), 1) << "id " << id;
  }
  EXPECT_EQ(Scalar(RunOk(&db, "MATCH (u:U {id: 7}) RETURN count(u)")).AsInt(),
            0);
}

// Pinned index seeks against a writer that churns indexed values, deletes,
// relabels and re-creates nodes, rolls statements back, and creates and
// drops the index. At every pinned epoch, a seek (`{id: $x}`, which anchors
// on the index whenever one exists), a label scan (the same predicate in
// WHERE, which never anchors on an index) and the writer's own result at
// that epoch agree row for row. Both forms share their cached plans with
// the writer, so sessions also run index plans compiled after their pin.
TEST(MvccTest, PinnedIndexSeeksMatchScansAndWriter) {
  constexpr int kValues = 8;
  constexpr int kStatements = 150;
  constexpr int kReaders = 2;
  const std::string seek = "MATCH (u:U {id: $x}) RETURN u.k AS k";
  const std::string scan = "MATCH (u:U) WHERE u.id = $x RETURN u.k AS k";

  GraphDatabase db;
  RunOk(&db, "CREATE INDEX ON :U(id)");
  RunOk(&db, "UNWIND range(0, 39) AS k CREATE (:U {id: k % 8, k: k})");
  ASSERT_TRUE(db.EnableMvcc().ok());

  // The rows of `query` for every probed value, as one text.
  auto answer = [&](const auto& execute, const std::string& query) {
    std::string out;
    for (int x = 0; x < kValues; ++x) {
      out += std::to_string(x) + ": " +
             Cells(execute(query, ValueMap{{"x", Value::Int(x)}}));
    }
    return out;
  };
  auto on_writer = [&db](const std::string& query, const ValueMap& params) {
    return db.Execute(query, params);
  };
  // epoch -> the writer's answer. The writer's own probes publish epochs
  // too (every committed statement does), all with the state they read.
  std::map<uint64_t, std::string> oracle;
  auto record = [&] {
    uint64_t first = db.graph().published_epoch();
    std::string seeks = answer(on_writer, seek);
    EXPECT_EQ(seeks, answer(on_writer, scan));
    for (uint64_t e = first; e <= db.graph().published_epoch(); ++e) {
      oracle[e] = seeks;
    }
  };
  record();

  struct Sample {
    uint64_t epoch;
    std::string seeks;
    std::string scans;
  };
  std::vector<std::vector<Sample>> samples(kReaders);
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      auto session = db.BeginReadSession();
      if (!session.ok()) return;
      auto on_session = [&session](const std::string& query,
                                   const ValueMap& params) {
        return session->Execute(query, params);
      };
      do {
        // Holding a pin across several samples lets the writer move further
        // ahead of it (and compact postings it still needs).
        if (samples[r].size() % 3 == 2) session->Refresh();
        samples[r].push_back({session->epoch(), answer(on_session, seek),
                              answer(on_session, scan)});
      } while (!writer_done.load(std::memory_order_relaxed));
    });
  }

  std::mt19937 rng(29);
  int next_k = 40;
  bool indexed = true;
  for (int i = 0; i < kStatements; ++i) {
    ValueMap params{
        {"k", Value::Int(static_cast<int64_t>(rng() % next_k))},
        {"v", Value::Int(static_cast<int64_t>(rng() % kValues))}};
    std::string statement;
    bool fails = false;
    switch (rng() % 10) {
      case 0:
      case 1:
      case 2:
        statement = "MATCH (u {k: $k}) SET u.id = $v";
        break;
      case 3:
        statement = "MATCH (u {k: $k}) DETACH DELETE u";
        break;
      case 4:
        params["k"] = Value::Int(next_k++);
        statement = "CREATE (:U {id: $v, k: $k})";
        break;
      case 5:
        statement = "MATCH (u {k: $k}) REMOVE u:U";
        break;
      case 6:
        statement = "MATCH (u {k: $k}) SET u:U";
        break;
      case 7:
        // Writes postings, then fails: the rollback must leave every
        // snapshot's seeks exact.
        statement = "MATCH (u:U {id: $v}) SET u.id = $v + 1 WITH u "
                    "RETURN u.k / 0 AS boom";
        fails = true;
        break;
      case 8:
        statement = "MATCH (u {k: $k}) SET u.id = null";
        break;
      default:
        statement = indexed ? "DROP INDEX ON :U(id)" : "CREATE INDEX ON :U(id)";
        indexed = !indexed;
        break;
    }
    Result<QueryResult> result = db.Execute(statement, params);
    // The failing form succeeds only when it matched nothing.
    if (!fails) {
      ASSERT_TRUE(result.ok())
          << statement << " -> " << result.status().ToString();
    }
    record();
  }
  writer_done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  size_t checked = 0;
  for (const std::vector<Sample>& mine : samples) {
    ASSERT_FALSE(mine.empty());
    for (const Sample& sample : mine) {
      auto it = oracle.find(sample.epoch);
      ASSERT_NE(it, oracle.end()) << "epoch " << sample.epoch;
      EXPECT_EQ(sample.seeks, sample.scans) << "epoch " << sample.epoch;
      EXPECT_EQ(sample.seeks, it->second) << "epoch " << sample.epoch;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(MvccTest, SupersededVersionsReclaimOnceUnpinned) {
  GraphDatabase db;
  RunOk(&db, "CREATE (:N {v: 0})");
  ASSERT_TRUE(db.EnableMvcc().ok());
  {
    auto session = db.BeginReadSession();
    ASSERT_TRUE(session.ok());
    // Each SET supersedes the node's record; the pin holds them all back.
    for (int i = 1; i <= 8; ++i) {
      RunOk(&db, "MATCH (n:N) SET n.v = " + std::to_string(i));
    }
    EXPECT_GT(db.graph().RetiredPending(), 0u);
    EXPECT_EQ(Scalar(*session->Execute("MATCH (n:N) RETURN n.v")).AsInt(), 0);
  }
  // Session destroyed: the next committed epoch reclaims everything.
  RunOk(&db, "MATCH (n:N) SET n.v = 9");
  EXPECT_EQ(db.graph().RetiredPending(), 0u);
}

// Statements that create and delete their own entities leave slots no pin
// ever saw alive; once a chunk of them is all dead it is reclaimed, pins or
// no pins. A session pinned before the churn, and a reader refreshing onto
// epochs whose scans walk the reclaimed chunks, must keep reading exactly
// what a scan of the base graph returns.
TEST(MvccTest, PinnedReadsSurviveDeadChunkReclamation) {
  GraphDatabase db;
  RunOk(&db, "UNWIND range(1, 40) AS i CREATE (:A {v: i})-[:R {w: i}]->(:B)");
  ASSERT_TRUE(db.EnableMvcc().ok());
  const std::string by_label =
      "MATCH (a:A)-[r:R]->(b) RETURN a.v, r.w ORDER BY a.v";
  const std::string by_scan =
      "MATCH (a)-[r]->(b) WHERE a:A RETURN a.v, r.w ORDER BY a.v";
  const std::string expected = Cells(db.Execute(by_scan));

  auto pinned = db.BeginReadSession();
  ASSERT_TRUE(pinned.ok());
  std::atomic<bool> done{false};
  std::string reader_error;
  std::thread reader([&] {
    auto session = db.BeginReadSession();
    if (!session.ok()) {
      reader_error = session.status().ToString();
      return;
    }
    while (!done.load(std::memory_order_acquire)) {
      session->Refresh();
      std::string scanned = Cells(session->Execute(by_scan));
      std::string counted =
          Cells(session->Execute("MATCH (n) RETURN count(n)")) +
          Cells(session->Execute("MATCH ()-[r]->() RETURN count(r)"));
      if (scanned != expected || counted != "80\t\n40\t\n") {
        reader_error = "epoch " + std::to_string(session->epoch()) +
                       ": " + scanned + " / " + counted;
        return;
      }
    }
  });
  const size_t rel_chunks_before = db.graph().resident_rel_chunks();
  for (int i = 0; i < 40; ++i) {
    RunOk(&db,
          "UNWIND range(1, 300) AS i CREATE (x:T)-[:R]->(y:T) "
          "WITH x, y DETACH DELETE x, y");
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(reader_error.empty()) << reader_error;
  // 12,000 relationships were created; all but the last statement's chunks
  // are reclaimed, and the pin holds the freed storage back until released.
  EXPECT_LE(db.graph().resident_rel_chunks(), rel_chunks_before + 2);
  EXPECT_GT(db.graph().RetiredPending(), 0u);
  EXPECT_EQ(Cells(pinned->Execute(by_label)), expected);
  EXPECT_EQ(Cells(pinned->Execute(by_scan)), expected);
  EXPECT_EQ(Cells(db.Execute(by_label)), expected);
}

TEST(MvccTest, PerSessionCacheCounters) {
  GraphDatabase db;
  RunOk(&db, "CREATE (:N {v: 1})");
  ASSERT_TRUE(db.EnableMvcc().ok());
  auto session = db.BeginReadSession();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->cache_counters().hits, 0u);
  EXPECT_EQ(session->cache_counters().misses, 0u);

  ASSERT_TRUE(session->Execute("MATCH (n:N) RETURN n.v").ok());
  EXPECT_EQ(session->cache_counters().misses, 1u);
  EXPECT_EQ(session->cache_counters().hits, 0u);
  ASSERT_TRUE(session->Execute("MATCH (n:N) RETURN n.v").ok());
  EXPECT_EQ(session->cache_counters().hits, 1u);

  // The session's traffic never lands on the writer's tally, and vice versa.
  uint64_t writer_hits = db.session_cache_counters().hits;
  uint64_t writer_misses = db.session_cache_counters().misses;
  ASSERT_TRUE(session->Execute("MATCH (n:N) RETURN n.v").ok());
  EXPECT_EQ(db.session_cache_counters().hits, writer_hits);
  EXPECT_EQ(db.session_cache_counters().misses, writer_misses);

  session->ResetCacheCounters();
  EXPECT_EQ(session->cache_counters().hits, 0u);
  EXPECT_EQ(session->cache_counters().misses, 0u);
}

TEST(MvccTest, GraphReplacementRefusedWhileSessionsOpen) {
  GraphDatabase db;
  ASSERT_TRUE(db.EnableMvcc().ok());
  auto session = db.BeginReadSession();
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(db.OpenDurable(std::make_unique<MemoryLogFile>()).ok());
  session->Close();
  EXPECT_TRUE(db.OpenDurable(std::make_unique<MemoryLogFile>()).ok());
  // Recovery re-enabled MVCC on the (possibly swapped) graph.
  EXPECT_TRUE(db.mvcc_enabled());
  EXPECT_TRUE(db.BeginReadSession().ok());
}

TEST(MvccTest, AutoCheckpointBoundsLogGrowth) {
  constexpr uint64_t kThreshold = 16 * 1024;
  GraphDatabase db;
  ASSERT_TRUE(BuildRandomGraph(&db, 7).ok());
  auto file = std::make_unique<MemoryLogFile>();
  MemoryLogFile* raw = file.get();
  DurabilityOptions durability;
  durability.auto_checkpoint_bytes = kThreshold;
  ASSERT_TRUE(db.OpenDurable(std::move(file), durability).ok());

  uint64_t high_water = 0;
  for (const std::string& stmt : GenerateUpdateWorkload(7, 300)) {
    RunOk(&db, stmt);
    high_water = std::max<uint64_t>(high_water, raw->size());
  }
  // Growth is bounded: the log compacts before doubling past the larger of
  // the threshold and one snapshot image, plus one record of slack.
  uint64_t snapshot_size = storage::EncodeSnapshot(db.graph()).size();
  uint64_t bound = 2 * std::max(kThreshold, snapshot_size) + 4096;
  EXPECT_LT(high_water, bound)
      << "log grew to " << high_water << " despite auto-checkpointing";

  // The compacted log must still recover the exact graph.
  std::string image = raw->bytes();
  auto rec = RecoverGraph(image);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(DumpGraphCanonical(rec->graph), DumpGraphCanonical(db.graph()));
  EXPECT_FALSE(rec->torn_tail);
}

// The concurrent differential oracle. One writer applies a generated update
// workload to a durable, MVCC-enabled database while reader threads open
// snapshot sessions at arbitrary points and record (pinned epoch, query,
// rendered rows). Afterwards each sample is checked against two independent
// replays of the first E statements — a fresh in-memory database, and crash
// recovery over the WAL byte prefix the writer had synced by epoch E — and
// all three renderings must agree byte for byte.
TEST(MvccTest, ConcurrentSnapshotOracle) {
  constexpr uint64_t kSeed = 11;
  constexpr size_t kStatements = 160;
  constexpr int kReaders = 4;
  constexpr int kSamplesPerReader = 12;

  GraphDatabase db;
  ASSERT_TRUE(BuildRandomGraph(&db, kSeed).ok());
  ASSERT_TRUE(db.EnableMvcc().ok());
  auto file = std::make_unique<MemoryLogFile>();
  MemoryLogFile* raw = file.get();
  ASSERT_TRUE(db.OpenDurable(std::move(file)).ok());

  const std::vector<std::string> workload =
      GenerateUpdateWorkload(kSeed, kStatements);
  // lsn_after[i]: log end once statement i committed (single writer thread,
  // so exact). Epoch E maps to the byte prefix [0, E ? lsn_after[E-1] : base).
  const uint64_t lsn_base = db.wal_writer()->appended_lsn();
  std::vector<uint64_t> lsn_after(workload.size(), 0);

  struct Sample {
    uint64_t epoch;
    uint64_t query_seed;
    std::string rendered;
  };
  std::vector<std::vector<Sample>> samples(kReaders);
  std::vector<std::string> reader_errors(kReaders);
  std::atomic<bool> writer_done{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int s = 0; s < kSamplesPerReader; ++s) {
        auto session = db.BeginReadSession();
        if (!session.ok()) {
          reader_errors[r] = session.status().ToString();
          return;
        }
        uint64_t qseed = kSeed * 1000 + r * 100 + s;
        auto rendered = session->ExecuteRendered(GenerateReadQuery(qseed));
        if (!rendered.ok()) {
          reader_errors[r] = GenerateReadQuery(qseed) + "\n  -> " +
                             rendered.status().ToString();
          return;
        }
        samples[r].push_back({session->epoch(), qseed, *std::move(rendered)});
        if (writer_done.load(std::memory_order_relaxed) && s >= 2) return;
        std::this_thread::yield();
      }
    });
  }

  for (size_t i = 0; i < workload.size(); ++i) {
    auto result = db.Execute(workload[i]);
    ASSERT_TRUE(result.ok())
        << workload[i] << "\n  -> " << result.status().ToString();
    lsn_after[i] = db.wal_writer()->appended_lsn();
  }
  writer_done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_TRUE(reader_errors[r].empty()) << reader_errors[r];
    ASSERT_FALSE(samples[r].empty());
  }
  const std::string image = raw->bytes();

  // Replay cache: one sequential database per distinct epoch would be
  // wasteful; advance a single replica statement by statement instead.
  GraphDatabase replica;
  ASSERT_TRUE(BuildRandomGraph(&replica, kSeed).ok());
  uint64_t replica_epoch = 0;

  std::vector<Sample> all;
  for (auto& vec : samples) {
    for (auto& s : vec) all.push_back(std::move(s));
  }
  std::sort(all.begin(), all.end(),
            [](const Sample& a, const Sample& b) { return a.epoch < b.epoch; });

  for (const Sample& sample : all) {
    ASSERT_LE(sample.epoch, workload.size());
    while (replica_epoch < sample.epoch) {
      ASSERT_TRUE(replica.Run(workload[replica_epoch]).ok());
      ++replica_epoch;
    }
    const std::string query = GenerateReadQuery(sample.query_seed);
    auto sequential = replica.Execute(query);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
    EXPECT_EQ(sample.rendered, RenderResult(replica.graph(), *sequential))
        << "epoch " << sample.epoch << " query: " << query;

    // Same check against crash recovery of the WAL byte prefix the writer
    // had appended by that epoch.
    uint64_t prefix =
        sample.epoch == 0 ? lsn_base : lsn_after[sample.epoch - 1];
    auto rec = RecoverGraph(std::string_view(image).substr(0, prefix));
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    GraphDatabase from_wal;
    from_wal.graph() = std::move(rec->graph);
    auto recovered = from_wal.Execute(query);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(sample.rendered, RenderResult(from_wal.graph(), *recovered))
        << "epoch " << sample.epoch << " query: " << query;
  }
}

}  // namespace
}  // namespace cypher
