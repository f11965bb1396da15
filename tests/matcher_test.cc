#include <gtest/gtest.h>

#include "match/matcher.h"
#include "parser/parser.h"

namespace cypher {
namespace {

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

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest() {
    // (u1:User)-[:ORDERED]->(p1:Product)<-[:OFFERS]-(v:Vendor)
    // (u2:User)-[:ORDERED]->(p1)
    // (u1)-[:KNOWS]->(u2)
    u1_ = MakeNode("User", "u1");
    u2_ = MakeNode("User", "u2");
    p1_ = MakeNode("Product", "p1");
    v_ = MakeNode("Vendor", "v");
    ordered_ = g_.InternType("ORDERED");
    offers_ = g_.InternType("OFFERS");
    knows_ = g_.InternType("KNOWS");
    r1_ = *g_.CreateRel(u1_, p1_, ordered_, {});
    r2_ = *g_.CreateRel(u2_, p1_, ordered_, {});
    r3_ = *g_.CreateRel(v_, p1_, offers_, {});
    r4_ = *g_.CreateRel(u1_, u2_, knows_, {});
  }

  NodeId MakeNode(const std::string& label, const std::string& name) {
    PropertyMap props;
    props.Set(g_.InternKey("name"), Value::String(name));
    return g_.CreateNode({g_.InternLabel(label)}, std::move(props));
  }

  size_t CountMatches(const std::string& match_clause,
                      MatchMode mode = MatchMode::kRelUnique,
                      const Bindings& bindings = Bindings()) {
    Query keep;
    auto patterns = PatternsOf(match_clause, &keep);
    EvalContext ctx{&g_, nullptr};
    size_t count = 0;
    Status st = MatchPatterns(ctx, bindings, patterns, MatchOptions{mode},
                              [&count](const MatchAssignment&) -> Result<bool> {
                                ++count;
                                return true;
                              });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return count;
  }

  PropertyGraph g_;
  NodeId u1_, u2_, p1_, v_;
  Symbol ordered_, offers_, knows_;
  RelId r1_, r2_, r3_, r4_;
};

TEST_F(MatcherTest, SingleNodeByLabel) {
  EXPECT_EQ(CountMatches("MATCH (u:User)"), 2u);
  EXPECT_EQ(CountMatches("MATCH (p:Product)"), 1u);
  EXPECT_EQ(CountMatches("MATCH (x:Nothing)"), 0u);
  EXPECT_EQ(CountMatches("MATCH (n)"), 4u);
}

TEST_F(MatcherTest, PropertyFilter) {
  EXPECT_EQ(CountMatches("MATCH (u {name: 'u1'})"), 1u);
  EXPECT_EQ(CountMatches("MATCH (u:User {name: 'p1'})"), 0u);
  // Null filters never match.
  EXPECT_EQ(CountMatches("MATCH (u {name: null})"), 0u);
}

TEST_F(MatcherTest, DirectedSteps) {
  EXPECT_EQ(CountMatches("MATCH (u:User)-[:ORDERED]->(p)"), 2u);
  EXPECT_EQ(CountMatches("MATCH (p)<-[:ORDERED]-(u:User)"), 2u);
  EXPECT_EQ(CountMatches("MATCH (u:User)<-[:ORDERED]-(p)"), 0u);
  EXPECT_EQ(CountMatches("MATCH (a)-[:ORDERED]-(b)"), 4u);  // both directions
}

TEST_F(MatcherTest, TypeAlternatives) {
  EXPECT_EQ(CountMatches("MATCH (a)-[:ORDERED|OFFERS]->(b)"), 3u);
  EXPECT_EQ(CountMatches("MATCH (a)-[r]->(b)"), 4u);  // any type
}

TEST_F(MatcherTest, TwoStepPath) {
  EXPECT_EQ(
      CountMatches("MATCH (u:User)-[:ORDERED]->(p)<-[:OFFERS]-(v:Vendor)"),
      2u);
}

TEST_F(MatcherTest, RelationshipUniquenessAcrossPatterns) {
  // Two ORDERED rel patterns cannot bind the same relationship (Section 2).
  EXPECT_EQ(CountMatches("MATCH (a)-[r1:ORDERED]->(p), (b)-[r2:ORDERED]->(p)"),
            2u);  // (r1, r2) and (r2, r1)
  // Under homomorphism the same rel may be used twice: 4 combinations.
  EXPECT_EQ(CountMatches("MATCH (a)-[r1:ORDERED]->(p), (b)-[r2:ORDERED]->(p)",
                         MatchMode::kHomomorphism),
            4u);
}

TEST_F(MatcherTest, SameVariableTwiceConstrains) {
  // (a)-[:ORDERED]->(p)<-[:ORDERED]-(a) requires both ends equal: no such
  // pair of distinct rels shares the same user, so zero.
  EXPECT_EQ(CountMatches("MATCH (a)-[:ORDERED]->(p)<-[:ORDERED]-(a)"), 0u);
  // With different vars, the u1/u2 pair matches in two orders.
  EXPECT_EQ(CountMatches("MATCH (a)-[:ORDERED]->(p)<-[:ORDERED]-(b)"), 2u);
}

TEST_F(MatcherTest, BoundVariablesConstrain) {
  Table t = Table::WithColumns({"u"});
  t.AddRow({Value::Node(u1_)});
  Bindings b(&t, 0);
  EXPECT_EQ(CountMatches("MATCH (u)-[:ORDERED]->(p)", MatchMode::kRelUnique, b),
            1u);
  EXPECT_EQ(CountMatches("MATCH (u)-[:OFFERS]->(p)", MatchMode::kRelUnique, b),
            0u);
  // A bound null never matches.
  Table tn = Table::WithColumns({"u"});
  tn.AddRow({Value::Null()});
  Bindings bn(&tn, 0);
  EXPECT_EQ(CountMatches("MATCH (u)-[:ORDERED]->(p)", MatchMode::kRelUnique,
                         bn),
            0u);
}

TEST_F(MatcherTest, BoundRelVariable) {
  Table t = Table::WithColumns({"r"});
  t.AddRow({Value::Rel(r1_)});
  Bindings b(&t, 0);
  EXPECT_EQ(CountMatches("MATCH (a)-[r]->(b)", MatchMode::kRelUnique, b), 1u);
  EXPECT_EQ(CountMatches("MATCH (a)-[r:OFFERS]->(b)", MatchMode::kRelUnique, b),
            0u);
}

TEST_F(MatcherTest, VariableLengthPaths) {
  // u1 -KNOWS-> u2 -ORDERED-> p1 ; u1 -ORDERED-> p1
  EXPECT_EQ(CountMatches("MATCH (a {name: 'u1'})-[*1..2]->(p:Product)"), 2u);
  EXPECT_EQ(CountMatches("MATCH (a {name: 'u1'})-[*2..2]->(p:Product)"), 1u);
  // Zero-length: start node itself terminates the walk.
  EXPECT_EQ(CountMatches("MATCH (a {name: 'u1'})-[*0..1]->(b)"), 3u);
}

TEST_F(MatcherTest, VarLengthTrailBoundsCycles) {
  // Add a cycle u1 <-> u2 and check the walk terminates.
  ASSERT_TRUE(g_.CreateRel(u2_, u1_, knows_, {}).ok());
  EXPECT_LT(CountMatches("MATCH (a {name: 'u1'})-[:KNOWS*]->(b)"), 10u);
}

TEST_F(MatcherTest, UnboundedVarLengthRejectedUnderHomomorphism) {
  Query keep;
  auto patterns = PatternsOf("MATCH (a)-[*]->(b)", &keep);
  EvalContext ctx{&g_, nullptr};
  Status st = MatchPatterns(ctx, Bindings(), patterns,
                            MatchOptions{MatchMode::kHomomorphism},
                            [](const MatchAssignment&) -> Result<bool> {
                              return true;
                            });
  EXPECT_FALSE(st.ok());
}

TEST_F(MatcherTest, PathVariableBinds) {
  Query keep;
  auto patterns =
      PatternsOf("MATCH pp = (u:User)-[:ORDERED]->(p:Product)", &keep);
  EvalContext ctx{&g_, nullptr};
  size_t count = 0;
  Status st = MatchPatterns(
      ctx, Bindings(), patterns, MatchOptions{},
      [&](const MatchAssignment& a) -> Result<bool> {
        const Value* path = a.Find("pp");
        EXPECT_NE(path, nullptr);
        EXPECT_TRUE(path->is_path());
        EXPECT_EQ(path->AsPath().rels.size(), 1u);
        ++count;
        return true;
      });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(count, 2u);
}

TEST_F(MatcherTest, HasMatchShortCircuits) {
  EvalContext ctx{&g_, nullptr};
  Query keep;
  auto patterns = PatternsOf("MATCH (u:User)", &keep);
  auto result = HasMatch(ctx, Bindings(), patterns, MatchOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result);
  Query keep2;
  auto none = PatternsOf("MATCH (x:Missing)", &keep2);
  auto result2 = HasMatch(ctx, Bindings(), none, MatchOptions{});
  ASSERT_TRUE(result2.ok());
  EXPECT_FALSE(*result2);
}

TEST_F(MatcherTest, DeadEntitiesNeverMatch) {
  g_.DeleteRel(r4_);
  EXPECT_EQ(CountMatches("MATCH (a)-[:KNOWS]->(b)"), 0u);
  g_.DeleteRel(r1_);
  g_.DeleteRel(r2_);
  g_.DeleteRel(r3_);
  g_.DeleteNode(p1_);
  EXPECT_EQ(CountMatches("MATCH (p:Product)"), 0u);
}

TEST_F(MatcherTest, SelfLoopUndirectedMatchesOnce) {
  NodeId n = MakeNode("Loop", "n");
  ASSERT_TRUE(g_.CreateRel(n, n, knows_, {}).ok());
  EXPECT_EQ(CountMatches("MATCH (a:Loop)-[:KNOWS]-(b)"), 1u);
  EXPECT_EQ(CountMatches("MATCH (a:Loop)-[:KNOWS]->(b:Loop)"), 1u);
}

// A bound end stops the BFS at the level that reaches it. That level must
// still record every equal-length route: allShortestPaths returns both
// direct relationships, shortestPath the lower-id one, and the longer
// detour and the chain past the target change nothing.
TEST_F(MatcherTest, ShortestPathToBoundEndStopsAtItsLevel) {
  Symbol hop = g_.InternType("HOP");
  NodeId s = MakeNode("Hop", "s");
  NodeId t = MakeNode("Hop", "t");
  NodeId m1 = MakeNode("Hop", "m1");
  NodeId m2 = MakeNode("Hop", "m2");
  RelId direct1 = *g_.CreateRel(s, t, hop, {});
  ASSERT_TRUE(g_.CreateRel(s, m1, hop, {}).ok());
  ASSERT_TRUE(g_.CreateRel(m1, m2, hop, {}).ok());
  ASSERT_TRUE(g_.CreateRel(m2, t, hop, {}).ok());
  RelId direct2 = *g_.CreateRel(s, t, hop, {});
  NodeId prev = t;
  for (int i = 0; i < 4; ++i) {
    NodeId next = MakeNode("Hop", "x" + std::to_string(i));
    ASSERT_TRUE(g_.CreateRel(prev, next, hop, {}).ok());
    prev = next;
  }

  auto paths = [&](const std::string& function) {
    Query keep;
    auto patterns = PatternsOf(
        "MATCH (a:Hop {name: 's'}), (b:Hop {name: 't'}), p = " + function +
            "((a)-[:HOP*..5]->(b))",
        &keep);
    EvalContext ctx{&g_, nullptr};
    std::vector<std::vector<RelId>> out;
    Status st = MatchPatterns(ctx, Bindings(), patterns, MatchOptions{},
                              [&](const MatchAssignment& a) -> Result<bool> {
                                out.push_back(a.Find("p")->AsPath().rels);
                                return true;
                              });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  };
  using Paths = std::vector<std::vector<RelId>>;
  EXPECT_EQ(paths("shortestPath"), (Paths{{direct1}}));
  EXPECT_EQ(paths("allShortestPaths"), (Paths{{direct1}, {direct2}}));
}

TEST_F(MatcherTest, DeterministicEnumerationOrder) {
  Query keep;
  auto patterns = PatternsOf("MATCH (u:User)-[:ORDERED]->(p)", &keep);
  EvalContext ctx{&g_, nullptr};
  std::vector<uint32_t> order1, order2;
  for (auto* order : {&order1, &order2}) {
    Status st = MatchPatterns(ctx, Bindings(), patterns, MatchOptions{},
                              [&](const MatchAssignment& a) -> Result<bool> {
                                order->push_back(a.Find("u")->AsNode().value);
                                return true;
                              });
    ASSERT_TRUE(st.ok());
  }
  EXPECT_EQ(order1, order2);
  EXPECT_TRUE(std::is_sorted(order1.begin(), order1.end()));
}

}  // namespace
}  // namespace cypher
