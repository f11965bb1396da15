// Rendering tests: RenderValue / RenderResult edge cases.

#include <gtest/gtest.h>

#include "test_util.h"

namespace cypher {
namespace {

using ::cypher::testing::RunOk;

class RenderTest : public ::testing::Test {
 protected:
  GraphDatabase db_;
};

TEST_F(RenderTest, NodeWithLabelsAndProps) {
  ASSERT_TRUE(db_.Run("CREATE (:User:Admin {id: 1, name: 'a'})").ok());
  QueryResult r = RunOk(&db_, "MATCH (n) RETURN n");
  // Labels render in interning (first-seen) order: User before Admin here.
  EXPECT_EQ(RenderValue(db_.graph(), r.rows[0][0]),
            "(:User:Admin {id: 1, name: 'a'})");
}

TEST_F(RenderTest, BareNode) {
  ASSERT_TRUE(db_.Run("CREATE ()").ok());
  QueryResult r = RunOk(&db_, "MATCH (n) RETURN n");
  EXPECT_EQ(RenderValue(db_.graph(), r.rows[0][0]), "()");
}

TEST_F(RenderTest, RelationshipWithProps) {
  ASSERT_TRUE(db_.Run("CREATE (:A)-[:T {w: 2.5}]->(:B)").ok());
  QueryResult r = RunOk(&db_, "MATCH ()-[t]->() RETURN t");
  EXPECT_EQ(RenderValue(db_.graph(), r.rows[0][0]), "[:T {w: 2.5}]");
}

TEST_F(RenderTest, PathArrowsFollowTraversalDirection) {
  ASSERT_TRUE(db_.Run("CREATE (:A {k: 1})-[:T]->(:B {k: 2})").ok());
  QueryResult fwd = RunOk(&db_, "MATCH p = (:A)-[:T]->(:B) RETURN p");
  EXPECT_EQ(RenderValue(db_.graph(), fwd.rows[0][0]),
            "(:A {k: 1})-[:T]->(:B {k: 2})");
  QueryResult rev = RunOk(&db_, "MATCH p = (:B)<-[:T]-(:A) RETURN p");
  EXPECT_EQ(RenderValue(db_.graph(), rev.rows[0][0]),
            "(:B {k: 2})<-[:T]-(:A {k: 1})");
}

TEST_F(RenderTest, ListsAndMapsOfEntities) {
  ASSERT_TRUE(db_.Run("CREATE (:N {v: 1}), (:N {v: 2})").ok());
  QueryResult r = RunOk(&db_,
                        "MATCH (n:N) WITH n ORDER BY n.v "
                        "RETURN collect(n) AS ns");
  EXPECT_EQ(RenderValue(db_.graph(), r.rows[0][0]),
            "[(:N {v: 1}), (:N {v: 2})]");
}

TEST_F(RenderTest, ScalarsPassThrough) {
  const PropertyGraph& g = db_.graph();
  EXPECT_EQ(RenderValue(g, Value::Null()), "null");
  EXPECT_EQ(RenderValue(g, Value::Int(-3)), "-3");
  EXPECT_EQ(RenderValue(g, Value::Float(1.5)), "1.5");
  EXPECT_EQ(RenderValue(g, Value::String("x")), "'x'");
  EXPECT_EQ(RenderValue(g, Value::Bool(true)), "true");
}

TEST_F(RenderTest, TableAlignmentAndRowCount) {
  ASSERT_TRUE(db_.Run("CREATE (:N {v: 1}), (:N {v: 22})").ok());
  QueryResult r = RunOk(&db_, "MATCH (n:N) RETURN n.v AS v ORDER BY v");
  std::string text = RenderResult(db_.graph(), r);
  EXPECT_NE(text.find("| v "), std::string::npos);
  EXPECT_NE(text.find("2 rows"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("+--"), std::string::npos);
}

TEST_F(RenderTest, EmptyResultStillShowsHeader) {
  QueryResult r = RunOk(&db_, "MATCH (n:Missing) RETURN n.v AS v");
  std::string text = RenderResult(db_.graph(), r);
  EXPECT_NE(text.find("| v |"), std::string::npos);
  EXPECT_NE(text.find("0 rows"), std::string::npos);
}

TEST_F(RenderTest, UpdateOnlyShowsStatsOnly) {
  QueryResult r = RunOk(&db_, "CREATE (:N)");
  std::string text = RenderResult(db_.graph(), r);
  EXPECT_EQ(text, "1 nodes created\n");
}

TEST_F(RenderTest, ZombieNodeRendersEmpty) {
  EvalOptions legacy;
  legacy.semantics = SemanticsMode::kLegacy;
  GraphDatabase db(legacy);
  ASSERT_TRUE(db.Run("CREATE (:User {id: 1})").ok());
  QueryResult r = RunOk(&db, "MATCH (n:User) DELETE n RETURN n");
  EXPECT_EQ(RenderValue(db.graph(), r.rows[0][0]), "()");
}

// Deleted relationships keep their type until the writer's next statement
// opens, which may reclaim a chunk of 512 dead slots. Here the chunk's
// first 511 relationships die one statement before its last one: the
// statement deleting the last still renders it whole.
// (Legacy semantics, where a deleted entity stays bound after DELETE.)
TEST_F(RenderTest, DeletedRelationshipRendersUntilTheNextStatement) {
  EvalOptions legacy;
  legacy.semantics = SemanticsMode::kLegacy;
  GraphDatabase db(legacy);
  RunOk(&db,
        "CREATE (a:A) WITH a UNWIND range(1, 512) AS i "
        "CREATE (a)-[:T {i: i}]->(a)");
  RunOk(&db, "MATCH ()-[r]->() WHERE r.i < 512 DELETE r");
  QueryResult r = RunOk(&db,
                        "MATCH p = ()-[r]->() WHERE r.i = 512 DELETE r "
                        "RETURN r, p, type(r), startNode(r) = endNode(r)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(RenderValue(db.graph(), r.rows[0][0]), "[:T]");
  EXPECT_EQ(RenderValue(db.graph(), r.rows[0][1]), "(:A)-[:T]->(:A)");
  EXPECT_EQ(RenderValue(db.graph(), r.rows[0][2]), "'T'");
  EXPECT_EQ(RenderValue(db.graph(), r.rows[0][3]), "true");
  EXPECT_EQ(db.graph().resident_rel_chunks(), 1u);

  // The next statement reclaims the chunk: the old result's relationship
  // has lost its type and endpoints, and renders as a bare deleted one.
  RunOk(&db, "RETURN 1");
  EXPECT_EQ(db.graph().resident_rel_chunks(), 0u);
  EXPECT_EQ(RenderValue(db.graph(), r.rows[0][0]), "[]");
  EXPECT_EQ(RenderValue(db.graph(), r.rows[0][1]), "(:A)-[]-(:A)");
  QueryResult fns =
      RunOk(&db, "RETURN type($r), startNode($r), endNode($r)",
            {{"r", r.rows[0][0]}});
  ASSERT_EQ(fns.rows.size(), 1u);
  for (const Value& v : fns.rows[0]) EXPECT_TRUE(v.is_null());
}

}  // namespace
}  // namespace cypher
