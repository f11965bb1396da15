// Plan cache tests: counter accounting, literal replay (no value baking),
// option-fingerprint keying, stamp/graph invalidation, parity with the
// uncached interpreter on errors and across the match-slot regimes, and
// LRU eviction at the unit level.

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "test_util.h"
#include "vm/plan_cache.h"

namespace cypher {
namespace {

using ::cypher::testing::RunErr;
using ::cypher::testing::RunOk;
using ::cypher::testing::Scalar;

/// Result text for byte comparison: columns, rows in order, stats.
std::string ResultText(const Result<QueryResult>& result) {
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  std::string out;
  for (const std::string& column : result->columns) out += column + '\t';
  for (const std::vector<Value>& row : result->rows) {
    out += '\n';
    for (const Value& cell : row) out += cell.ToString() + '\t';
  }
  return out + "\nstats: " + result->stats.ToString();
}

TEST(PlanCacheTest, CountersTrackRawAndShapeHits) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE (:N {v: 1}), (:N {v: 2}), (:N {v: 3})").ok());
  db.plan_cache().ResetStats();

  // Cold: parse, parametrize, compile.
  RunOk(&db, "MATCH (n:N {v: 1}) RETURN n.v AS v");
  PlanCacheStats s = db.plan_cache().Stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);

  // Same text again: raw hit, no parse.
  RunOk(&db, "MATCH (n:N {v: 1}) RETURN n.v AS v");
  s = db.plan_cache().Stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.raw_hits, 1u);
  EXPECT_EQ(s.misses, 1u);

  // Different literal, same normalized shape: shape hit after a raw miss.
  RunOk(&db, "MATCH (n:N {v: 2}) RETURN n.v AS v");
  s = db.plan_cache().Stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.shape_hits, 1u);
  EXPECT_EQ(s.misses, 1u);

  // The sibling text is now raw-cached too.
  RunOk(&db, "MATCH (n:N {v: 2}) RETURN n.v AS v");
  s = db.plan_cache().Stats();
  EXPECT_EQ(s.raw_hits, 2u);
  EXPECT_GT(s.entries, 0u);
}

TEST(PlanCacheTest, ShapeHitReplaysLiteralsNotCachedValues) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE (:N {v: 1}), (:N {v: 2}), (:N {v: 3})").ok());
  EXPECT_EQ(Scalar(RunOk(&db, "MATCH (n:N {v: 1}) RETURN n.v AS v")).AsInt(),
            1);
  // Must return 2, not the 1 the cached plan was first compiled against.
  EXPECT_EQ(Scalar(RunOk(&db, "MATCH (n:N {v: 2}) RETURN n.v AS v")).AsInt(),
            2);
  // User parameters flow unchanged alongside the lifted literals.
  EXPECT_EQ(
      Scalar(RunOk(&db, "MATCH (n:N {v: $x}) RETURN n.v + 1 AS v",
                   {{"x", Value::Int(3)}}))
          .AsInt(),
      4);
  EXPECT_EQ(
      Scalar(RunOk(&db, "MATCH (n:N {v: $x}) RETURN n.v + 1 AS v",
                   {{"x", Value::Int(2)}}))
          .AsInt(),
      3);
}

TEST(PlanCacheTest, OptionFingerprintKeepsModesApart) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE (:N {v: 1})").ok());
  db.plan_cache().ResetStats();
  const std::string query = "MATCH (n:N) RETURN n.v AS v";
  RunOk(&db, query);
  EXPECT_EQ(db.plan_cache().Stats().misses, 1u);
  // The same text under different session semantics may not reuse the
  // cached plan: the options are part of the key.
  db.options().semantics = SemanticsMode::kLegacy;
  RunOk(&db, query);
  PlanCacheStats s = db.plan_cache().Stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);
}

TEST(PlanCacheTest, IndexCreationInvalidatesCachedMatchPlans) {
  GraphDatabase db;
  ASSERT_TRUE(
      db.Run("CREATE (:U {id: 1, v: 10}), (:U {id: 2, v: 20}), "
             "(:U {id: 3, v: 30})")
          .ok());
  // Prime a label-scan plan for the probe shape.
  EXPECT_EQ(Scalar(RunOk(&db, "MATCH (u:U {id: 2}) RETURN u.v AS v")).AsInt(),
            20);
  // DDL bumps the graph's index epoch; the stamped slot must recompile
  // (now through the index) and still produce identical results.
  ASSERT_TRUE(db.Run("CREATE INDEX ON :U(id)").ok());
  EXPECT_EQ(Scalar(RunOk(&db, "MATCH (u:U {id: 2}) RETURN u.v AS v")).AsInt(),
            20);
  EXPECT_EQ(Scalar(RunOk(&db, "MATCH (u:U {id: 3}) RETURN u.v AS v")).AsInt(),
            30);
}

TEST(PlanCacheTest, GraphSwapClearsCache) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE (:N {v: 1})").ok());
  RunOk(&db, "MATCH (n:N) RETURN n.v AS v");
  EXPECT_GT(db.plan_cache().Stats().entries, 0u);

  const std::string path = ::testing::TempDir() + "/plan_cache_swap.graph";
  ASSERT_TRUE(db.SaveToFile(path).ok());
  ASSERT_TRUE(db.LoadFromFile(path).ok());
  // A wholesale graph replacement drops every cached plan.
  EXPECT_EQ(db.plan_cache().Stats().entries, 0u);
  EXPECT_EQ(Scalar(RunOk(&db, "MATCH (n:N) RETURN n.v AS v")).AsInt(), 1);
}

TEST(PlanCacheTest, DisabledCacheSkipsLookups) {
  GraphDatabase db;
  db.options().use_plan_cache = false;
  ASSERT_TRUE(db.Run("CREATE (:N {v: 1})").ok());
  EXPECT_EQ(Scalar(RunOk(&db, "MATCH (n:N) RETURN n.v AS v")).AsInt(), 1);
  PlanCacheStats s = db.plan_cache().Stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(PlanCacheTest, ErrorsAndRollbackMatchInterpreter) {
  // A failing statement must report the uncached run's exact error and
  // leave the graph untouched either way.
  const std::string failing = "CREATE (:T) WITH 1 AS one RETURN 1 / 0";
  GraphDatabase cached_db;
  GraphDatabase interp_db;
  interp_db.options().use_plan_cache = false;
  Status cached_err = RunErr(&cached_db, failing);
  Status interp_err = RunErr(&interp_db, failing);
  EXPECT_EQ(cached_err.ToString(), interp_err.ToString());
  EXPECT_EQ(cached_db.graph().num_nodes(), 0u);
  EXPECT_EQ(interp_db.graph().num_nodes(), 0u);

  // Missing-parameter diagnostics agree too.
  Status cached_missing = RunErr(&cached_db, "RETURN $nope AS x");
  Status interp_missing = RunErr(&interp_db, "RETURN $nope AS x");
  EXPECT_EQ(cached_missing.ToString(), interp_missing.ToString());
}

// One cached shape whose MATCH sees driving tables on both sides of
// kTransientIndexMinRows: 0 rows returns early, 1 and 3 rows reuse the
// stamped slot, 4 and 8 rows compile fresh, and the final 1 reuses the slot
// again after the fresh compiles.
constexpr char kRegimeProbe[] =
    "UNWIND $ids AS id MATCH (u:U {id: id}) RETURN u.v AS v ORDER BY v";
constexpr int kRegimeSizes[] = {0, 1, 3, 4, 8, 1};

ValueMap RegimeIds(int n) {
  ValueList ids;
  for (int i = 0; i < n; ++i) ids.push_back(Value::Int((i * 7) % 10));
  return {{"ids", Value::List(std::move(ids))}};
}

/// Runs kRegimeProbe over kRegimeSizes via `execute`, each size once with
/// the plan cache off and once on. The runs must byte-match, and every
/// cached run after the first must hit (`counters` is the executing
/// session's tally).
template <typename Execute>
void CheckSlotRegimes(GraphDatabase* db, const SessionCacheCounters& counters,
                      Execute execute) {
  for (size_t i = 0; i < std::size(kRegimeSizes); ++i) {
    SCOPED_TRACE("ids of length " + std::to_string(kRegimeSizes[i]));
    ValueMap params = RegimeIds(kRegimeSizes[i]);
    db->options().use_plan_cache = false;
    Result<QueryResult> interpreted = execute(params);
    ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
    EXPECT_EQ(interpreted->num_rows(), static_cast<size_t>(kRegimeSizes[i]));
    db->options().use_plan_cache = true;
    SessionCacheCounters before = counters;
    EXPECT_EQ(ResultText(execute(params)), ResultText(interpreted));
    if (i > 0) {
      EXPECT_EQ(counters.hits, before.hits + 1);
      EXPECT_EQ(counters.misses, before.misses);
    }
  }
}

TEST(PlanCacheTest, MatchSlotRegimesMatchInterpreter) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("UNWIND range(0, 9) AS i CREATE (:U {id: i, v: i * 10})")
                  .ok());
  CheckSlotRegimes(&db, db.session_cache_counters(), [&](const ValueMap& p) {
    return db.Execute(kRegimeProbe, p);
  });
}

TEST(PlanCacheTest, MatchSlotRegimesMatchInterpreterOnReadSession) {
  GraphDatabase db;
  ASSERT_TRUE(db.EnableMvcc().ok());
  ASSERT_TRUE(db.Run("UNWIND range(0, 9) AS i CREATE (:U {id: i, v: i * 10})")
                  .ok());
  auto session = db.BeginReadSession();
  ASSERT_TRUE(session.ok());
  auto execute = [&](const ValueMap& p) {
    return session->Execute(kRegimeProbe, p);
  };
  CheckSlotRegimes(&db, session->cache_counters(), execute);
  // New values reverse the ORDER BY and a new :U node shifts the label
  // counts; the refreshed pin must see both.
  ASSERT_TRUE(db.Run("MATCH (u:U) SET u.v = 100 - u.v").ok());
  ASSERT_TRUE(db.Run("CREATE (:U {id: 42, v: 0})").ok());
  session->Refresh();
  CheckSlotRegimes(&db, session->cache_counters(), execute);
  EXPECT_EQ(Scalar(*session->Execute("MATCH (u:U {id: 0}) RETURN u.v AS v"))
                .AsInt(),
            100);
}

// A read session's cache key does not name its pinned epoch: sessions at
// successive epochs hit the entry the first run made, and the stamped match
// slot (which only sees planner inputs, none of which the writer's SET of
// an unindexed key moves) serves every epoch. Rows byte-match the uncached
// interpreter at each epoch.
TEST(PlanCacheTest, SessionsAtSuccessiveEpochsShareOneEntry) {
  GraphDatabase db;
  ASSERT_TRUE(db.EnableMvcc().ok());
  RunOk(&db, "CREATE INDEX ON :U(id)");
  RunOk(&db, "UNWIND range(0, 9) AS i CREATE (:U {id: i, v: i * 10})");
  const std::string probe = "MATCH (u:U {id: 3}) RETURN u.v AS v";
  auto session = db.BeginReadSession();
  ASSERT_TRUE(session.ok());
  size_t entries = 0;
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    RunOk(&db, "MATCH (u:U {id: 3}) SET u.v = $v", {{"v", Value::Int(i)}});
    session->Refresh();
    db.options().use_plan_cache = false;
    Result<QueryResult> interpreted = session->Execute(probe);
    db.options().use_plan_cache = true;
    ASSERT_TRUE(interpreted.ok()) << interpreted.status().ToString();
    EXPECT_EQ(Scalar(*interpreted).AsInt(), i);
    SessionCacheCounters before = session->cache_counters();
    EXPECT_EQ(ResultText(session->Execute(probe)), ResultText(interpreted));
    if (i == 0) {
      entries = db.plan_cache().Stats().entries;
      continue;
    }
    EXPECT_EQ(session->cache_counters().hits, before.hits + 1);
    EXPECT_EQ(session->cache_counters().misses, before.misses);
    EXPECT_EQ(db.plan_cache().Stats().entries, entries);
  }
}

// The writer compiles the shared slot with the index anchor after the
// session pinned; the session reuses that plan, and its seek finds the
// index younger than the pin and scans the label instead.
TEST(PlanCacheTest, SessionPinnedBeforeIndexRunsWritersIndexPlan) {
  GraphDatabase db;
  ASSERT_TRUE(db.EnableMvcc().ok());
  RunOk(&db, "UNWIND range(0, 9) AS i CREATE (:U {id: i, v: i * 10})");
  auto session = db.BeginReadSession();
  ASSERT_TRUE(session.ok());
  RunOk(&db, "CREATE INDEX ON :U(id)");
  RunOk(&db, "MATCH (u:U) SET u.id = u.id + 1");
  const std::string probe = "MATCH (u:U {id: 3}) RETURN u.v AS v";
  EXPECT_EQ(Scalar(RunOk(&db, probe)).AsInt(), 20);
  QueryResult plan = RunOk(&db, "EXPLAIN " + probe);
  EXPECT_NE(ResultText(plan).find("index: :U(id)"), std::string::npos)
      << ResultText(plan);

  SessionCacheCounters before = session->cache_counters();
  Result<QueryResult> cached = session->Execute(probe);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_EQ(session->cache_counters().hits, before.hits + 1);
  EXPECT_EQ(Scalar(*cached).AsInt(), 30);
  db.options().use_plan_cache = false;
  EXPECT_EQ(ResultText(session->Execute(probe)), ResultText(cached));
}

// A writer and two read sessions, each on its own thread, run one text
// against one shared entry and match-plan slot. Every run returns the same
// row, and no run misses or adds an entry. Under ThreadSanitizer this is
// the race check for the shared slot and the pinned index seeks.
TEST(PlanCacheTest, WriterAndSessionsShareOneEntryConcurrently) {
  constexpr int kRounds = 150;
  GraphDatabase db;
  ASSERT_TRUE(db.EnableMvcc().ok());
  RunOk(&db, "CREATE INDEX ON :U(id)");
  RunOk(&db, "UNWIND range(0, 99) AS i CREATE (:U {id: i, v: i * 10})");
  const std::string probe =
      "MATCH (a:U {id: 3}), (b:U {id: 40}) RETURN a.v + b.v AS v";
  EXPECT_EQ(Scalar(RunOk(&db, probe)).AsInt(), 430);
  const PlanCacheStats warm = db.plan_cache().Stats();

  std::atomic<int> wrong{0};
  auto check = [&wrong](const Result<QueryResult>& result) {
    if (!result.ok() || result->rows.size() != 1 ||
        !result->rows[0][0].is_int() || result->rows[0][0].AsInt() != 430) {
      ++wrong;
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto session = db.BeginReadSession();
      if (!session.ok()) {
        ++wrong;
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        session->Refresh();
        check(session->Execute(probe));
      }
    });
  }
  for (int i = 0; i < kRounds; ++i) check(db.Execute(probe));
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  PlanCacheStats after = db.plan_cache().Stats();
  EXPECT_EQ(after.entries, warm.entries);
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_EQ(after.hits, warm.hits + 3 * kRounds);
}

TEST(PlanCacheTest, AutoParametrizationCannotCollideWithUserParams) {
  // Lifted literals become `$#N` parameters; the lexer cannot produce a
  // `$#` reference, so a user map may never shadow one, and mixing user
  // parameters with literals in one statement stays well-defined.
  GraphDatabase db;
  EXPECT_EQ(Scalar(RunOk(&db, "RETURN 40 + $p AS x", {{"p", Value::Int(2)}}))
                .AsInt(),
            42);
  EXPECT_EQ(Scalar(RunOk(&db, "RETURN 40 + $p AS x", {{"p", Value::Int(5)}}))
                .AsInt(),
            45);
}

TEST(PlanCacheTest, LruEvictsAndCounts) {
  // Unit-level: a tiny cache sheds least-recently-used entries and counts
  // the evictions.
  PlanCache cache(8);  // 8 shards -> one entry per shard
  for (int i = 0; i < 64; ++i) {
    auto plan = std::make_shared<const CachedPlan>();
    cache.InsertRaw("q" + std::to_string(i), plan, {});
  }
  PlanCacheStats s = cache.Stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.entries, 8u);
  cache.Clear();
  EXPECT_EQ(cache.Stats().entries, 0u);
}

}  // namespace
}  // namespace cypher
