// Anchor-tile parallel MATCH: thread-pool scheduling, anchor morsel
// partitioning, the derived tile plan, transient hash anchors, and — the
// load-bearing property — byte-identical output across worker counts,
// including the streamed aggregate pass and the revised MERGE match phase.

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "exec/parallel.h"
#include "match/matcher.h"
#include "parser/parser.h"
#include "test_util.h"
#include "workload/workloads.h"

namespace cypher {
namespace {

using ::cypher::testing::RunOk;

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  std::vector<int> counts(997, 0);  // distinct slots: no synchronization needed
  ThreadPool::Shared().Run(counts.size(), 8,
                           [&](size_t task) { counts[task]++; });
  for (int c : counts) ASSERT_EQ(c, 1);
}

TEST(ThreadPoolTest, SingleWorkerRunsInline) {
  std::vector<int> counts(64, 0);
  ThreadPool::Shared().Run(counts.size(), 1,
                           [&](size_t task) { counts[task]++; });
  for (int c : counts) ASSERT_EQ(c, 1);
}

TEST(ThreadPoolTest, ReusableAcrossRegions) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    ThreadPool::Shared().Run(100, 4, [&](size_t task) { sum += task; });
    ASSERT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPoolTest, NestedRunExecutesEveryTask) {
  // Nested Run from inside a task submits a real inner job (parked helpers
  // may adopt it; the submitting task always participates): every inner
  // task still runs exactly once per outer task.
  std::atomic<size_t> total{0};
  ThreadPool::Shared().Run(4, 4, [&](size_t) {
    ThreadPool::Shared().Run(8, 4, [&](size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32u);
}

TEST(ThreadPoolTest, DeeplyNestedRunCompletes) {
  std::atomic<size_t> total{0};
  ThreadPool::Shared().Run(2, 4, [&](size_t) {
    ThreadPool::Shared().Run(2, 4, [&](size_t) {
      ThreadPool::Shared().Run(2, 4, [&](size_t) { ++total; });
    });
  });
  EXPECT_EQ(total.load(), 8u);
}

TEST(ThreadPoolTest, MoreWorkersThanTasks) {
  std::vector<int> counts(3, 0);
  ThreadPool::Shared().Run(counts.size(), 16,
                           [&](size_t task) { counts[task]++; });
  for (int c : counts) ASSERT_EQ(c, 1);
}

// ---- ParallelReadScope ------------------------------------------------------

TEST(ParallelReadScopeTest, TracksRegionNesting) {
  PropertyGraph g;
  EXPECT_FALSE(g.InParallelReadRegion());
  {
    PropertyGraph::ParallelReadScope outer(g);
    EXPECT_TRUE(g.InParallelReadRegion());
    {
      PropertyGraph::ParallelReadScope inner(g);
      EXPECT_TRUE(g.InParallelReadRegion());
    }
    EXPECT_TRUE(g.InParallelReadRegion());
  }
  EXPECT_FALSE(g.InParallelReadRegion());
}

// ---- Anchor morsels ---------------------------------------------------------

/// Extracts the patterns of "MATCH <patterns>" for direct matcher tests.
std::vector<PathPattern> PatternsOf(const std::string& match_clause,
                                    Query* keep_alive) {
  auto q = ParseQuery(match_clause + " RETURN 1 AS one");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  *keep_alive = std::move(*q);
  auto& match = static_cast<MatchClause&>(*keep_alive->parts[0].clauses[0]);
  std::vector<PathPattern> out;
  for (auto& p : match.patterns) out.push_back(ClonePattern(p));
  return out;
}

std::vector<NodeId> MatchedNodes(const EvalContext& ctx,
                                 const CompiledMatch& compiled,
                                 const AnchorMorsel* morsel) {
  std::vector<NodeId> ids;
  MatchSink sink = [&](const MatchAssignment& assignment) -> Result<bool> {
    const Value* v = assignment.Find("n");
    EXPECT_NE(v, nullptr);
    ids.push_back(v->AsNode());
    return true;
  };
  Status st = morsel != nullptr
                  ? MatchCompiledMorsel(ctx, Bindings(), compiled,
                                        MatchOptions{}, *morsel, sink)
                  : MatchCompiled(ctx, Bindings(), compiled, MatchOptions{},
                                  sink);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return ids;
}

TEST(AnchorMorselTest, MorselsPartitionLabelAndAllScans) {
  PropertyGraph g;
  for (int i = 0; i < 100; ++i) {
    g.CreateNode({g.InternLabel(i % 2 == 0 ? "Even" : "Odd")}, {});
  }
  EvalContext ctx{&g, nullptr};
  for (const char* clause : {"MATCH (n:Even)", "MATCH (n)"}) {
    Query keep;
    std::vector<PathPattern> patterns = PatternsOf(clause, &keep);
    CompiledMatch compiled = CompileMatch(ctx, Bindings(), patterns);
    size_t domain = AnchorScanDomain(g, compiled);
    ASSERT_GT(domain, 0u) << clause;
    std::vector<NodeId> full = MatchedNodes(ctx, compiled, nullptr);
    for (size_t morsel_size : {1ul, 7ul, 64ul, 1000ul}) {
      std::vector<NodeId> pieced;
      for (size_t begin = 0; begin < domain; begin += morsel_size) {
        AnchorMorsel morsel{begin, begin + morsel_size};
        std::vector<NodeId> part = MatchedNodes(ctx, compiled, &morsel);
        pieced.insert(pieced.end(), part.begin(), part.end());
      }
      // Concatenation in domain order IS the sequential enumeration.
      EXPECT_EQ(pieced, full) << clause << " morsel=" << morsel_size;
    }
  }
}

// ---- Transient hash anchors -------------------------------------------------

TEST(TransientIndexTest, PlannedOnlyForRepeatedUnindexedProbes) {
  PropertyGraph g;
  for (int i = 0; i < 200; ++i) {
    PropertyMap props;
    props.Set(g.InternKey("k"), Value::Int(i % 50));
    g.CreateNode({g.InternLabel("Item")}, std::move(props));
  }
  EvalContext ctx{&g, nullptr};
  Query keep;
  std::vector<PathPattern> patterns = PatternsOf("MATCH (n:Item {k: 7})", &keep);
  // One driving record: plain label scan.
  CompiledMatch single = CompileMatch(ctx, Bindings(), patterns);
  EXPECT_EQ(DescribeMatchPlan(g, single).find("transient"), std::string::npos);
  // Many driving records: the one-shot hash pays for itself.
  CompiledMatch repeated =
      CompileMatch(ctx, Bindings(), patterns, {.num_rows = 500});
  EXPECT_NE(DescribeMatchPlan(g, repeated).find("transient hash: :Item(k)"),
            std::string::npos)
      << DescribeMatchPlan(g, repeated);
  ASSERT_FALSE(repeated.paths.empty());
  ASSERT_NE(repeated.paths[0].transient, nullptr);
  // Same matches either way, in the same order.
  EXPECT_EQ(MatchedNodes(ctx, repeated, nullptr),
            MatchedNodes(ctx, single, nullptr));
}

TEST(TransientIndexTest, ProbeResultsMatchScanSemantics) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("UNWIND range(0, 199) AS i "
                     "CREATE (:Item {k: i % 50})")
                  .ok());
  // 200 driving records, each probing the unindexed Item(k): the compiled
  // clause builds a transient hash (domain 200 >= 64, rows >= 4). Every
  // value of k owns exactly 4 nodes.
  QueryResult r = RunOk(&db,
                        "UNWIND range(0, 199) AS x "
                        "MATCH (i:Item {k: x % 50}) "
                        "RETURN count(*) AS c");
  EXPECT_EQ(r.rows[0][0].AsInt(), 800);
  // Null probe values never match (stored nulls are omitted, and a null
  // filter never equals anything).
  QueryResult rn = RunOk(&db,
                         "UNWIND [1, null, 2] AS x "
                         "MATCH (i:Item {k: x}) "
                         "RETURN count(*) AS c");
  EXPECT_EQ(rn.rows[0][0].AsInt(), 8);
}

// ---- Tile plan --------------------------------------------------------------

/// The compiled plan of "MATCH <patterns>" over `g`.
CompiledMatch CompileClause(const PropertyGraph& g, const std::string& clause,
                            Query* keep_alive) {
  EvalContext ctx{&g, nullptr};
  return CompileMatch(ctx, Bindings(), PatternsOf(clause, keep_alive));
}

TEST(ParallelPlanTest, DerivesTilesFromDomainAndWorkers) {
  PropertyGraph g;
  for (int i = 0; i < 101; ++i) g.CreateNode({g.InternLabel("L")}, {});
  g.CreateNode({g.InternLabel("One")}, {});
  Query keep;
  CompiledMatch scan = CompileClause(g, "MATCH (n:L)", &keep);
  EvalOptions options;
  options.parallel_min_cost = 1;

  options.parallel_workers = 2;  // 16 wanted: 14 tiles of 7, a last of 3
  std::optional<ParallelPlan> plan = PlanParallelMatch(options, g, scan, 1);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->domain, 101u);
  EXPECT_EQ(plan->morsel, 7u);
  EXPECT_EQ(plan->tiles, 15u);

  options.parallel_workers = 8;  // 64 wanted: 50 tiles of 2, a last of 1
  plan = PlanParallelMatch(options, g, scan, 1);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->morsel, 2u);
  EXPECT_EQ(plan->tiles, 51u);

  // A worker count whose x 8 would overflow: one position per tile. (Only
  // the plan is built; no thread starts.)
  options.parallel_workers = std::numeric_limits<size_t>::max();
  plan = PlanParallelMatch(options, g, scan, 1);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->morsel, 1u);
  EXPECT_EQ(plan->tiles, 101u);

  // One worker, a one-position domain, or too little work: sequential.
  options.parallel_workers = 1;
  EXPECT_FALSE(PlanParallelMatch(options, g, scan, 1).has_value());
  options.parallel_workers = 8;
  Query keep_one;
  CompiledMatch one = CompileClause(g, "MATCH (n:One)", &keep_one);
  EXPECT_FALSE(PlanParallelMatch(options, g, one, 100).has_value());
  options.parallel_min_cost = 1000;
  EXPECT_FALSE(PlanParallelMatch(options, g, scan, 1).has_value());
  EXPECT_TRUE(PlanParallelMatch(options, g, scan, 10).has_value());
}

// ---- EXPLAIN ----------------------------------------------------------------

/// The details column of every EXPLAIN row, one line each.
std::string ExplainDetails(GraphDatabase* db, const std::string& query) {
  QueryResult r = RunOk(db, "EXPLAIN " + query);
  std::string all;
  for (const auto& row : r.rows) all += row[2].AsString() + "\n";
  return all;
}

TEST(ParallelExplainTest, AnnotatesParallelMatch) {
  GraphDatabase db;
  db.options().parallel_workers = 4;
  std::string all = ExplainDetails(&db, "MATCH (n) RETURN n");
  EXPECT_NE(all.find("[parallel(workers=4)]"), std::string::npos) << all;
}

TEST(ParallelExplainTest, AnnotatesLabelScanMatch) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE (:User {id: 1})-[:R]->(:User {id: 2})").ok());
  db.options().parallel_workers = 4;
  std::string all =
      ExplainDetails(&db, "MATCH (u:User)-[:R]->(v) RETURN count(*) AS c");
  EXPECT_NE(all.find("scan: label :User"), std::string::npos) << all;
  EXPECT_NE(all.find("[parallel(workers=4)]"), std::string::npos) << all;
}

TEST(ParallelExplainTest, NoAnnotationOnIndexSeekOrBoundAnchor) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE INDEX ON :User(id)").ok());
  ASSERT_TRUE(db.Run("CREATE (:User {id: 1})-[:R]->(:User {id: 2})").ok());
  db.options().parallel_workers = 4;
  std::string seek = ExplainDetails(&db, "MATCH (u:User {id: 1}) RETURN u");
  EXPECT_NE(seek.find("index: :User(id)"), std::string::npos) << seek;
  EXPECT_EQ(seek.find("parallel("), std::string::npos) << seek;
  // The first MATCH scans and splits; the second anchors on the bound `u`
  // and runs each record's walk on one thread.
  QueryResult bound = RunOk(
      &db, "EXPLAIN MATCH (u:User) MATCH (u)-[:R]->(v) RETURN v");
  ASSERT_GE(bound.rows.size(), 2u);
  EXPECT_NE(bound.rows[0][2].AsString().find("parallel(workers=4)"),
            std::string::npos)
      << bound.rows[0][2].AsString();
  EXPECT_NE(bound.rows[1][2].AsString().find("bound: 'u'"), std::string::npos)
      << bound.rows[1][2].AsString();
  EXPECT_EQ(bound.rows[1][2].AsString().find("parallel("), std::string::npos)
      << bound.rows[1][2].AsString();
}

TEST(ParallelExplainTest, NoAnnotationWhenSequential) {
  GraphDatabase db;
  std::string all = ExplainDetails(&db, "MATCH (n) RETURN n");
  EXPECT_EQ(all.find("parallel("), std::string::npos) << all;
}

// ---- Determinism corpus -----------------------------------------------------

/// Worker counts every determinism case sweeps: 1 is the sequential loop,
/// and the derived tile plan gives 2 and 8 workers different tile sizes.
constexpr size_t kWorkerCounts[] = {1, 2, 8};

/// Runs `query` on a copy of `base` with `workers` workers and returns the
/// rendered result table (the byte-level artifact the ordering guarantee is
/// stated over).
std::string RunConfig(const PropertyGraph& base, const std::string& query,
                      size_t workers) {
  GraphDatabase db;
  db.graph() = base;
  db.options().parallel_workers = workers;
  db.options().parallel_min_cost = 1;  // engage on every eligible clause
  QueryResult r = RunOk(&db, query);
  return RenderResult(db.graph(), r);
}

TEST(ParallelDeterminismTest, MatchProjectionAndAggregationCorpus) {
  GraphDatabase seed_db;
  ASSERT_TRUE(
      workload::LoadRandomMarketplace(&seed_db, 120, 80, 600, 42).ok());
  const PropertyGraph base = seed_db.graph();

  const std::vector<std::string> corpus = {
      // Plain scans and expansions: the first path's scan splits into tiles.
      "MATCH (u:User)-[:ORDERED]->(p:Product) "
      "RETURN u.id AS uid, p.id AS pid",
      "MATCH (n) RETURN n.id AS id",
      // WHERE inside the tile tasks.
      "MATCH (u:User)-[:ORDERED]->(p:Product) WHERE p.id % 3 = 0 "
      "RETURN u.id AS uid, p.id AS pid",
      // OPTIONAL MATCH null extension, decided per record.
      "MATCH (u:User) OPTIONAL MATCH (u)-[:ORDERED]->(p:Product) "
      "WHERE p.id < 5 RETURN u.id AS uid, p.id AS pid",
      // Two-hop join with cross-record dedup semantics.
      "MATCH (a:User)-[:ORDERED]->(p:Product)<-[:ORDERED]-(b:User) "
      "WHERE a.id < b.id RETURN count(*) AS c",
      // Transient-hash probes: not a scan anchor, so sequential.
      "UNWIND range(1, 120) AS x MATCH (u:User {id: x}) "
      "RETURN count(*) AS c",
      // Projection with ORDER BY / SKIP / LIMIT over a tiled MATCH.
      "MATCH (u:User) RETURN u.id AS a, u.id * 2 + 1 AS b "
      "ORDER BY b DESC SKIP 5 LIMIT 20",
      // DISTINCT over a tiled MATCH.
      "MATCH (u:User)-[:ORDERED]->(p:Product) WITH DISTINCT p.id AS pid "
      "RETURN pid ORDER BY pid",
      // Materialized aggregation over a tiled MATCH, grouped.
      "MATCH (u:User)-[:ORDERED]->(p:Product) "
      "RETURN u.id AS uid, count(*) AS n, count(DISTINCT p.id) AS dp, "
      "sum(p.id) AS s, min(p.id) AS mn, max(p.id) AS mx, "
      "collect(p.id) AS ps ORDER BY uid",
      // Global group, DISTINCT sum/collect, and avg().
      "MATCH (u:User)-[:ORDERED]->(p:Product) "
      "RETURN count(*) AS n, sum(DISTINCT p.id) AS sd, avg(p.id) AS a, "
      "collect(DISTINCT p.id % 7) AS cd",
      // min/max over ties in the streamed pass (first-seen must win).
      "MATCH (u:User)-[:ORDERED]->(p:Product) "
      "RETURN min(p.id % 4) AS mn, max(p.id % 4) AS mx, "
      "count(DISTINCT p.id % 4) AS d",
      // Aggregate in ORDER BY only (all items are grouping keys).
      "MATCH (u:User)-[:ORDERED]->(p:Product) "
      "RETURN u.id AS uid ORDER BY count(p), uid",
  };

  for (const std::string& query : corpus) {
    const std::string expected = RunConfig(base, query, 0);
    for (size_t workers : kWorkerCounts) {
      EXPECT_EQ(RunConfig(base, query, workers), expected)
          << query << "\n  workers=" << workers;
    }
  }
}

TEST(ParallelDeterminismTest, SingleRowMorselWithMoreWorkersThanRows) {
  // A domain smaller than workers x 8: every anchor position is its own
  // tile, most workers never claim one, and the ordered merge and the
  // streamed partials see a long run of single-match buffers.
  GraphDatabase seed_db;
  ASSERT_TRUE(workload::LoadRandomMarketplace(&seed_db, 5, 4, 12, 9).ok());
  const PropertyGraph base = seed_db.graph();

  const std::vector<std::string> corpus = {
      "MATCH (u:User) RETURN u.id AS id",
      "MATCH (u:User) RETURN u.id AS id ORDER BY id DESC",
      "MATCH (u:User)-[:ORDERED]->(p:Product) "
      "RETURN u.id AS uid, count(*) AS n, collect(p.id) AS ps ORDER BY uid",
      "MATCH (u:User) RETURN count(*) AS c, sum(u.id) AS s, avg(u.id) AS a",
      "MATCH (u:User) OPTIONAL MATCH (u)-[:ORDERED]->(p:Product) "
      "RETURN u.id AS uid, p.id AS pid",
  };
  for (const std::string& query : corpus) {
    const std::string expected = RunConfig(base, query, 0);
    for (size_t workers : kWorkerCounts) {
      EXPECT_EQ(RunConfig(base, query, workers), expected)
          << query << "\n  workers=" << workers;
    }
  }
}

TEST(ParallelDeterminismTest, TileCountDoesNotDivideDomain) {
  // 101 :L nodes: 2 workers cut 14 tiles of 7 and a last one of 3, 8 workers
  // 50 tiles of 2 and a last one of 1 (ParallelPlanTest). The short last
  // tile must neither drop nor repeat an anchor.
  GraphDatabase seed_db;
  ASSERT_TRUE(seed_db
                  .Run("UNWIND range(0, 100) AS i "
                       "CREATE (:L {id: i, k: i % 4, v: 100 - i})")
                  .ok());
  ASSERT_TRUE(seed_db
                  .Run("MATCH (a:L), (b:L) WHERE b.id = (a.id * 7) % 101 "
                       "CREATE (a)-[:R]->(b)")
                  .ok());
  const PropertyGraph base = seed_db.graph();

  const std::vector<std::string> corpus = {
      "MATCH (n:L) RETURN n.id AS id",
      "MATCH (n:L) WHERE n.id > 95 RETURN n.id AS id",
      "MATCH (n:L)-[:R]->(m) RETURN n.id AS a, m.id AS b",
      "MATCH (n:L) RETURN n.k AS k, count(*) AS c, sum(n.v) AS s, "
      "min(n.id) AS lo, max(n.id) AS hi",
      "MATCH (n:L) OPTIONAL MATCH (n)-[:R]->(m:L {k: 0}) "
      "RETURN n.id AS a, m.id AS b",
  };
  for (const std::string& query : corpus) {
    const std::string expected = RunConfig(base, query, 0);
    for (size_t workers : kWorkerCounts) {
      EXPECT_EQ(RunConfig(base, query, workers), expected)
          << query << "\n  workers=" << workers;
    }
  }
}

TEST(ParallelDeterminismTest, StreamedAggregateManyGroups) {
  // 250 int and 230 string keys spread over 1,000 :G nodes: every tile
  // builds its own group table, and the tile-order merge must reproduce
  // the sequential first-occurrence order (no ORDER BY exposes it) and
  // every aggregate. The plan cache is off, so each run compiles fresh.
  GraphDatabase seed_db;
  ASSERT_TRUE(seed_db
                  .Run("UNWIND range(0, 999) AS i "
                       "CREATE (:G {ik: (i * 37) % 250, "
                       "sk: 'k' + toString((i * 13) % 230), v: i % 17 - 8})")
                  .ok());
  const PropertyGraph base = seed_db.graph();

  auto run = [&](const std::string& query, size_t workers) {
    GraphDatabase db;
    db.graph() = base;
    db.options().use_plan_cache = false;
    db.options().parallel_workers = workers;
    db.options().parallel_min_cost = 1;
    return RenderResult(db.graph(), RunOk(&db, query));
  };
  const std::vector<std::string> corpus = {
      "MATCH (n:G) RETURN n.ik AS ik, count(*) AS c, sum(n.v) AS s, "
      "min(n.v) AS lo, max(n.v) AS hi",
      "MATCH (n:G) RETURN n.sk AS sk, count(n.v) AS c, sum(n.v) AS s",
      "MATCH (n:G) WHERE n.v <> 0 "
      "RETURN n.sk AS sk, n.ik AS ik, count(*) AS c, max(n.v) AS hi",
  };
  for (const std::string& query : corpus) {
    QueryResult plan = RunOk(&seed_db, "EXPLAIN " + query);
    ASSERT_FALSE(plan.rows.empty());
    EXPECT_NE(plan.rows[0][2].AsString().find("aggregate: streamed"),
              std::string::npos)
        << query;
    const std::string expected = run(query, 0);
    EXPECT_GE(std::count(expected.begin(), expected.end(), '\n'), 200)
        << query;
    for (size_t workers : {1, 2, 4}) {
      EXPECT_EQ(run(query, workers), expected)
          << query << "\n  workers=" << workers;
    }
  }
}

TEST(ParallelDeterminismTest, VarLengthAndShortestPathLegs) {
  // The unindexed `{id: ...}` starts scan their label, so the anchor splits
  // into tiles and each tile runs its var-length walks and BFS levels on
  // one thread; the merged output must keep the sequential trail
  // enumeration order byte for byte.
  GraphDatabase seed_db;
  ASSERT_TRUE(workload::LoadRandomMarketplace(&seed_db, 30, 20, 150, 7).ok());
  const PropertyGraph base = seed_db.graph();

  const std::vector<std::string> corpus = {
      // One passing start: every other tile emits nothing.
      "MATCH (u:User {id: 1})-[:ORDERED*1..3]-(x) "
      "RETURN count(*) AS c, min(x.id) AS lo, max(x.id) AS hi",
      // Emission order exposed directly (no ORDER BY, no aggregation).
      "MATCH (u:User {id: 2})-[*..2]->(x) RETURN x.id AS xid",
      // Named path with zero-length lower bound.
      "MATCH p = (u:User {id: 3})-[:ORDERED*0..2]-(x) "
      "RETURN length(p) AS len, x.id AS xid",
      // collect() over the walk preserves emission order inside one cell.
      "MATCH (u:User {id: 1})-[*1..2]-(x) RETURN collect(x.id) AS xs",
      // shortestPath / allShortestPaths after a tiled cross product.
      "MATCH (a:User {id: 1}), (b:User {id: 2}) "
      "MATCH p = shortestPath((a)-[*]-(b)) RETURN length(p) AS len",
      "MATCH (a:User {id: 1}), (b:Product {id: 5}) "
      "MATCH p = allShortestPaths((a)-[*]-(b)) "
      "RETURN length(p) AS len, count(*) AS c",
      "MATCH (a:User {id: 4}), (b:User {id: 9}) "
      "OPTIONAL MATCH p = shortestPath((a)-[:ORDERED*..4]->(b)) "
      "RETURN a.id AS a, b.id AS b, length(p) AS len",
  };
  for (const std::string& query : corpus) {
    const std::string expected = RunConfig(base, query, 0);
    for (size_t workers : kWorkerCounts) {
      EXPECT_EQ(RunConfig(base, query, workers), expected)
          << query << "\n  workers=" << workers;
    }
  }
}

TEST(ParallelDeterminismTest, RevisedMergeMatchPhase) {
  Value rows = workload::RandomOrderRows(400, 50, 30, /*null_permille=*/0, 7);
  for (const char* keyword : {"MERGE ALL", "MERGE SAME"}) {
    const std::string query = workload::Example5Query(keyword);

    auto run = [&](size_t workers, std::string* rendered) {
      GraphDatabase db;
      EXPECT_TRUE(
          workload::LoadRandomMarketplace(&db, 50, 30, 200, 9).ok());
      db.options().parallel_workers = workers;
      db.options().parallel_min_cost = 1;
      QueryResult r = RunOk(&db, query, {{"rows", rows}});
      *rendered = RenderResult(db.graph(), r);
      return DumpGraph(db.graph());
    };

    std::string expected_rendered;
    const std::string expected_graph = run(0, &expected_rendered);
    for (size_t workers : kWorkerCounts) {
      std::string rendered;
      std::string graph = run(workers, &rendered);
      EXPECT_EQ(graph, expected_graph) << keyword << " workers=" << workers;
      EXPECT_EQ(rendered, expected_rendered)
          << keyword << " workers=" << workers;
    }
  }
}

// ---- Error determinism ------------------------------------------------------

/// Runs `query` over :N nodes carrying `d` = each of `values`, created in
/// order (so label-bucket positions follow the list), with `workers`
/// workers. Three or more values split into several anchor tiles.
Result<QueryResult> RunOverNodes(const std::string& query,
                                 const std::vector<Value>& values,
                                 size_t workers) {
  GraphDatabase db;
  Status created = db.Execute("UNWIND $vals AS v CREATE (:N {d: v})",
                              {{"vals", Value::List(values)}})
                       .status();
  if (!created.ok()) return created;
  db.options().parallel_workers = workers;
  db.options().parallel_min_cost = 1;
  return db.Execute(query);
}

/// `query` must fail at every worker count, with the sequential message.
void ExpectSameError(const std::string& query,
                     const std::vector<Value>& values) {
  Result<QueryResult> seq = RunOverNodes(query, values, 0);
  ASSERT_FALSE(seq.ok()) << query;
  for (size_t workers : kWorkerCounts) {
    Result<QueryResult> par = RunOverNodes(query, values, workers);
    ASSERT_FALSE(par.ok()) << query << " workers=" << workers;
    EXPECT_EQ(par.status().ToString(), seq.status().ToString())
        << query << " workers=" << workers;
  }
}

TEST(ParallelDeterminismTest, IntegerSumOverflowSplitAcrossMorsels) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  // The streamed pass folds each one-node tile into its own partial sum.
  const std::string query = "MATCH (n:N) RETURN sum(n.d) AS s";
  // The overflowing prefix MAX+1 straddles a tile boundary while the total
  // (MAX - 1) is back in range: a naive partial-sum merge would succeed,
  // the sequential stepwise semantics must error.
  ExpectSameError(query, {Value::Int(kMax), Value::Int(1), Value::Int(-2)});

  // Stays in range at every prefix: identical value.
  for (size_t workers : kWorkerCounts) {
    Result<QueryResult> r = RunOverNodes(
        query, {Value::Int(kMax), Value::Int(-1), Value::Int(-2)}, workers);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].AsInt(), kMax - 3) << "workers=" << workers;
  }

  // A float in the mix does not disable the stepwise integer check: the
  // streamed pass must decline and the rerun reproduce the sequential
  // error.
  ExpectSameError(query,
                  {Value::Int(kMax), Value::Float(1.5), Value::Int(1)});

  // All-float sums take the rerun and agree with the sequential value.
  for (size_t workers : kWorkerCounts) {
    Result<QueryResult> r = RunOverNodes(
        query, {Value::Float(1.5), Value::Float(2.5), Value::Int(4)},
        workers);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_DOUBLE_EQ(r->rows[0][0].AsFloat(), 8.0) << "workers=" << workers;
  }
}

TEST(ParallelDeterminismTest, ExpressionErrorsMatchSequential) {
  // 10 / 0 fails in the third tile and 10 / 'x' in the fifth; whichever
  // tile finishes first, the division by zero is the error reported.
  const std::vector<Value> vals = {Value::Int(5), Value::Int(2),
                                   Value::Int(0), Value::Int(1),
                                   Value::String("x")};
  ExpectSameError("MATCH (n:N) WHERE 10 / n.d > 1 RETURN n.d AS d", vals);
  ExpectSameError("MATCH (n:N) RETURN 10 / n.d AS q", vals);
  // A string in sum(): the streamed pass declines, the rerun raises.
  ExpectSameError("MATCH (n:N) RETURN sum(n.d) AS s",
                  {Value::Int(1), Value::String("x"), Value::Int(2)});
}

}  // namespace
}  // namespace cypher
