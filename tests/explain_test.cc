// EXPLAIN / PROFILE statement tests.

#include <gtest/gtest.h>

#include "test_util.h"

namespace cypher {
namespace {

using ::cypher::testing::RunOk;

std::string Cell(const QueryResult& r, size_t row, size_t col) {
  return r.rows[row][col].is_string() ? r.rows[row][col].AsString()
                                      : r.rows[row][col].ToString();
}

TEST(ExplainTest, DescribesClausesWithoutExecuting) {
  GraphDatabase db;
  QueryResult r = RunOk(&db,
                        "EXPLAIN CREATE (:N {v: 1}) "
                        "WITH 1 AS one MATCH (n:N) RETURN n");
  // Nothing was executed.
  EXPECT_EQ(db.graph().num_nodes(), 0u);
  EXPECT_EQ(r.columns, (std::vector<std::string>{"step", "clause", "details"}));
  ASSERT_GE(r.rows.size(), 6u);  // 4 clauses + semantics + tier lines
  EXPECT_EQ(Cell(r, 0, 1), "CREATE");
  EXPECT_EQ(Cell(r, 2, 1), "MATCH");
  EXPECT_EQ(Cell(r, r.rows.size() - 2, 1), "SEMANTICS");
  // The trailing TIER row reports where the statement would execute and how
  // the plan cache would treat it.
  EXPECT_EQ(Cell(r, r.rows.size() - 1, 1), "TIER");
  EXPECT_EQ(Cell(r, r.rows.size() - 1, 2), "interpreter; plan cache: miss");
}

TEST(ExplainTest, ReportsAccessPath) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE INDEX ON :User(id)").ok());
  QueryResult indexed = RunOk(&db, "EXPLAIN MATCH (u:User {id: 1}) RETURN u");
  EXPECT_NE(Cell(indexed, 0, 2).find("index: :User(id)"), std::string::npos);
  QueryResult label = RunOk(&db, "EXPLAIN MATCH (u:User {name: 'x'}) RETURN u");
  EXPECT_NE(Cell(label, 0, 2).find("scan: label :User"), std::string::npos);
  QueryResult full = RunOk(&db, "EXPLAIN MATCH (u) RETURN u");
  EXPECT_NE(Cell(full, 0, 2).find("scan: all nodes"), std::string::npos);
}

TEST(ExplainTest, MarksStreamedAggregatePairs) {
  GraphDatabase db;
  auto match_details = [&](const std::string& query) {
    return Cell(RunOk(&db, "EXPLAIN " + query), 0, 2);
  };
  const std::string streamed = match_details(
      "MATCH (p:P) WHERE p.price >= 1 RETURN p.cat AS c, count(*) AS n, "
      "sum(p.price) AS s ORDER BY c");
  EXPECT_NE(streamed.find(", aggregate: streamed]"), std::string::npos)
      << streamed;
  EXPECT_NE(match_details("MATCH (n) WITH n.k AS k, max(n.v) AS m RETURN k")
                .find("aggregate: streamed"),
            std::string::npos);
  // Outside the fragment the MATCH materializes its table as before.
  for (const char* query : {
           "MATCH (n) RETURN n.k AS k",
           "MATCH (n) WITH * RETURN count(*) AS c",
           "OPTIONAL MATCH (n) RETURN count(*) AS c",
           "MATCH (n) RETURN count(DISTINCT n.k) AS c",
           "MATCH (n) RETURN collect(n.k) AS ks",
           "MATCH (n) RETURN n.k + 1 AS k, count(*) AS c",
           "MATCH (n) RETURN n.k AS k, count(*) AS c ORDER BY n.k",
           "MATCH (n) RETURN count(*) AS c SKIP 1",
           "MATCH (n) WITH count(*) AS c WHERE c > 1 RETURN c",
           "UNWIND [1] AS x MATCH (n) RETURN count(*) AS c",
       }) {
    QueryResult r = RunOk(&db, std::string("EXPLAIN ") + query);
    for (const auto& row : r.rows) {
      EXPECT_EQ(Cell(r, &row - r.rows.data(), 2).find("aggregate: streamed"),
                std::string::npos)
          << query;
    }
  }
}

TEST(ExplainTest, ReportsSemanticsMode) {
  EvalOptions legacy;
  legacy.semantics = SemanticsMode::kLegacy;
  GraphDatabase db(legacy);
  QueryResult r = RunOk(&db, "EXPLAIN MATCH (n) RETURN n");
  EXPECT_NE(Cell(r, r.rows.size() - 2, 2).find("legacy"), std::string::npos);
}

TEST(ExplainTest, TierRowTracksCacheDisposition) {
  GraphDatabase db;
  auto tier = [](const QueryResult& r) { return Cell(r, r.rows.size() - 1, 2); };
  // Cold: the shape is not cached yet.
  EXPECT_EQ(tier(RunOk(&db, "EXPLAIN MATCH (n {v: 1}) RETURN n")),
            "interpreter; plan cache: miss");
  // Execute the statement for real, then EXPLAIN again: hit.
  ASSERT_TRUE(db.Run("MATCH (n {v: 1}) RETURN n").ok());
  EXPECT_EQ(tier(RunOk(&db, "EXPLAIN MATCH (n {v: 1}) RETURN n")),
            "interpreter; plan cache: hit");
  // A different literal normalizes to the same shape — still a hit.
  EXPECT_EQ(tier(RunOk(&db, "EXPLAIN MATCH (n {v: 42}) RETURN n")),
            "interpreter; plan cache: hit");
  // DDL never enters the cache.
  EXPECT_EQ(tier(RunOk(&db, "EXPLAIN CREATE INDEX ON :User(id)")),
            "interpreter; plan cache: uncacheable (DDL)");
  // With the cache disabled every statement parses afresh.
  db.options().use_plan_cache = false;
  EXPECT_EQ(tier(RunOk(&db, "EXPLAIN MATCH (n) RETURN n")),
            "interpreter; plan cache: disabled");
}

TEST(ExplainTest, UnionBranchesListed) {
  GraphDatabase db;
  QueryResult r = RunOk(&db,
                        "EXPLAIN RETURN 1 AS x UNION ALL RETURN 2 AS x");
  bool found_union = false;
  for (const auto& row : r.rows) {
    if (row[1].AsString() == "UNION ALL") found_union = true;
  }
  EXPECT_TRUE(found_union);
}

TEST(ProfileTest, ReportsCardinalitiesAndCommits) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE (:N {v: 1}), (:N {v: 2}), (:N {v: 3})").ok());
  QueryResult r = RunOk(&db,
                        "PROFILE MATCH (n:N) WHERE n.v > 1 "
                        "SET n.seen = true RETURN n.v AS v");
  EXPECT_EQ(r.columns,
            (std::vector<std::string>{"step", "clause", "rows_out"}));
  ASSERT_EQ(r.rows.size(), 3u);  // MATCH, SET, RETURN
  EXPECT_EQ(r.rows[0][2].AsInt(), 2);  // MATCH+WHERE output
  EXPECT_EQ(r.rows[2][2].AsInt(), 2);
  // PROFILE executes: the SET committed.
  QueryResult check = RunOk(&db,
                            "MATCH (n:N) WHERE n.seen RETURN count(n) AS c");
  EXPECT_EQ(check.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.stats.properties_set, 2u);
}

TEST(ProfileTest, StreamedPairReportsBothClauses) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE (:N {v: 1}), (:N {v: 2}), (:N {v: 2})").ok());
  QueryResult r = RunOk(&db,
                        "PROFILE MATCH (n:N) WHERE n.v > 0 "
                        "RETURN n.v AS v, count(*) AS c");
  ASSERT_EQ(r.rows.size(), 2u);  // MATCH, RETURN
  EXPECT_EQ(r.rows[0][2].AsInt(), 3);  // the matches the pass consumed
  EXPECT_EQ(r.rows[1][2].AsInt(), 2);  // groups
}

TEST(ProfileTest, FailingProfileRollsBack) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE (:N {v: 0})").ok());
  EXPECT_FALSE(db.Execute("PROFILE MATCH (n:N) SET n.w = 1 "
                          "WITH n RETURN 1 / n.v")
                   .ok());
  QueryResult r = RunOk(&db, "MATCH (n:N) RETURN n.w AS w");
  EXPECT_TRUE(r.rows[0][0].is_null());
}

}  // namespace
}  // namespace cypher
