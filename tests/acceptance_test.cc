// TCK-style acceptance suite: each scenario is (setup script, query,
// expected bag of rendered rows). Rows are rendered cell-by-cell with
// RenderValue, joined with " | ", and compared as sorted multisets, so
// scenarios don't depend on incidental row order unless they sort
// explicitly.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_util.h"

namespace cypher {
namespace {

struct Scenario {
  const char* name;
  std::string setup;  // may be empty
  const char* query;
  std::vector<const char*> rows;  // expected rows, any order
};

class AcceptanceTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(AcceptanceTest, RowsMatch) {
  const Scenario& s = GetParam();
  GraphDatabase db;
  if (!s.setup.empty()) {
    auto setup = db.ExecuteScript(s.setup);
    ASSERT_TRUE(setup.ok()) << s.name << ": " << setup.status().ToString();
  }
  auto result = db.Execute(s.query);
  ASSERT_TRUE(result.ok()) << s.name << ": " << result.status().ToString();
  std::vector<std::string> got;
  for (const auto& row : result->rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += " | ";
      line += RenderValue(db.graph(), row[i]);
    }
    got.push_back(std::move(line));
  }
  std::vector<std::string> want(s.rows.begin(), s.rows.end());
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want) << s.name << "\nquery: " << s.query;
}

const char kMovies[] =
    "CREATE (a:Person {name: 'Alice', born: 1980}), "
    "(b:Person {name: 'Bob', born: 1975}), "
    "(c:Person {name: 'Carol', born: 1990}), "
    "(m1:Movie {title: 'Heat', year: 1995}), "
    "(m2:Movie {title: 'Fargo', year: 1996}), "
    "(a)-[:ACTED_IN {role: 'Cop'}]->(m1), "
    "(b)-[:ACTED_IN {role: 'Thief'}]->(m1), "
    "(b)-[:ACTED_IN {role: 'Jerry'}]->(m2), "
    "(c)-[:DIRECTED]->(m2)";

INSTANTIATE_TEST_SUITE_P(
    Expressions, AcceptanceTest,
    ::testing::Values(
        Scenario{"arith_precedence", "", "RETURN 2 + 3 * 4 - 1 AS x", {"13"}},
        Scenario{"float_division", "", "RETURN 7.0 / 2 AS x", {"3.5"}},
        Scenario{"string_concat", "", "RETURN 'a' + 'b' + 1 AS s", {"'ab1'"}},
        Scenario{"null_propagation", "",
                 "RETURN null + 1 AS a, null = null AS b, "
                 "null IS NULL AS c",
                 {"null | null | true"}},
        Scenario{"ternary_where", "",
                 "UNWIND [1, 2, null, 4] AS x WITH x WHERE x > 1 RETURN x",
                 {"2", "4"}},
        Scenario{"in_with_null_list_element", "",
                 "RETURN 3 IN [1, null, 3] AS a, 9 IN [1, null] AS b",
                 {"true | null"}},
        Scenario{"case_simple_form", "",
                 "UNWIND [1, 2, 3] AS x "
                 "RETURN CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' "
                 "ELSE 'many' END AS w",
                 {"'one'", "'two'", "'many'"}},
        Scenario{"list_ops", "",
                 "RETURN size([1,2,3]) AS s, head([1,2]) AS h, "
                 "last([1,2]) AS l, [1,2][0] AS i, [1,2][-1] AS n",
                 {"3 | 1 | 2 | 1 | 2"}},
        Scenario{"comprehension_pipeline", "",
                 "RETURN reduce(acc = 0, x IN "
                 "[y IN range(1, 10) WHERE y % 2 = 0 | y * y] | acc + x) "
                 "AS sum_even_squares",
                 {"220"}},
        Scenario{"quantifiers_row", "",
                 "RETURN all(x IN [1,2] WHERE x > 0) AS a, "
                 "any(x IN [] WHERE x > 0) AS b, "
                 "none(x IN [3] WHERE x > 2) AS c, "
                 "single(x IN [1,2] WHERE x = 2) AS d",
                 {"true | false | false | true"}},
        Scenario{"string_functions", "",
                 "RETURN toUpper(substring('laptop', 0, 3)) AS a, "
                 "split('a-b', '-')[1] AS b, replace('xx', 'x', 'y') AS c",
                 {"'LAP' | 'b' | 'yy'"}},
        Scenario{"map_projection_literal", "",
                 "WITH {a: 1, b: 2} AS m RETURN m {.a, c: 3} AS out",
                 {"{a: 1, c: 3}"}},
        Scenario{"map_projection_variable_shorthand", "",
                 "WITH 5 AS score, {a: 1} AS m RETURN m {score} AS out",
                 {"{score: 5}"}}));

INSTANTIATE_TEST_SUITE_P(
    Reading, AcceptanceTest,
    ::testing::Values(
        Scenario{"match_label_filter", kMovies,
                 "MATCH (p:Person) RETURN p.name AS n",
                 {"'Alice'", "'Bob'", "'Carol'"}},
        Scenario{"match_rel_props", kMovies,
                 "MATCH (p)-[r:ACTED_IN]->(m:Movie {title: 'Heat'}) "
                 "RETURN p.name AS n, r.role AS role",
                 {"'Alice' | 'Cop'", "'Bob' | 'Thief'"}},
        Scenario{"match_two_hops", kMovies,
                 "MATCH (a:Person)-[:ACTED_IN]->(:Movie)<-[:ACTED_IN]-"
                 "(b:Person) WHERE a.name < b.name "
                 "RETURN a.name AS a, b.name AS b",
                 {"'Alice' | 'Bob'"}},
        Scenario{"optional_match_null_pad", kMovies,
                 "MATCH (p:Person) OPTIONAL MATCH (p)-[:DIRECTED]->(m) "
                 "RETURN p.name AS n, m.title AS t",
                 {"'Alice' | null", "'Bob' | null", "'Carol' | 'Fargo'"}},
        Scenario{"where_pattern_predicate", kMovies,
                 "MATCH (p:Person) WHERE exists((p)-[:DIRECTED]->()) "
                 "RETURN p.name AS n",
                 {"'Carol'"}},
        Scenario{"var_length_reach", kMovies,
                 "MATCH (a:Person {name: 'Alice'})-[*1..2]-(x:Person) "
                 "WHERE x.name <> 'Alice' RETURN DISTINCT x.name AS n",
                 {"'Bob'"}},
        Scenario{"shortest_path_coactor", kMovies,
                 "MATCH (a:Person {name: 'Alice'}), (c:Person {name: 'Carol'}) "
                 "MATCH p = shortestPath((a)-[*]-(c)) "
                 "RETURN length(p) AS len",
                 {"4"}},
        Scenario{"aggregation_group_by", kMovies,
                 "MATCH (p:Person)-[:ACTED_IN]->(m:Movie) "
                 "RETURN p.name AS n, count(m) AS c",
                 {"'Alice' | 1", "'Bob' | 2"}},
        Scenario{"collect_distinct", kMovies,
                 "MATCH (p:Person)-[:ACTED_IN]->(m) "
                 "RETURN collect(DISTINCT m.year) AS ys",
                 {"[1995, 1996]"}},
        Scenario{"min_max_avg", kMovies,
                 "MATCH (p:Person) RETURN min(p.born) AS lo, "
                 "max(p.born) AS hi, avg(p.born) AS mid",
                 {"1975 | 1990 | 1981.6666666666667"}},
        Scenario{"order_skip_limit", kMovies,
                 "MATCH (p:Person) RETURN p.name AS n "
                 "ORDER BY p.born DESC SKIP 1 LIMIT 1",
                 {"'Alice'"}},
        Scenario{"with_chained_filter", kMovies,
                 "MATCH (p:Person)-[:ACTED_IN]->(m) "
                 "WITH p, count(m) AS roles WHERE roles >= 2 "
                 "MATCH (p)-[:ACTED_IN]->(m2) RETURN m2.title AS t",
                 {"'Heat'", "'Fargo'"}},
        Scenario{"union_distinct", kMovies,
                 "MATCH (p:Person {name: 'Bob'}) RETURN p.born AS x "
                 "UNION MATCH (p:Person {name: 'Bob'}) RETURN p.born AS x",
                 {"1975"}},
        Scenario{"unwind_nested", "",
                 "UNWIND [[1, 2], [3]] AS inner UNWIND inner AS x "
                 "RETURN x",
                 {"1", "2", "3"}},
        Scenario{"labels_keys_props", kMovies,
                 "MATCH (m:Movie {title: 'Heat'}) "
                 "RETURN labels(m) AS l, keys(m) AS k, "
                 "properties(m).year AS y",
                 {"['Movie'] | ['title', 'year'] | 1995"}},
        Scenario{"map_projection_entity", kMovies,
                 "MATCH (p:Person {name: 'Bob'}) "
                 "RETURN p {.name, age: 2019 - p.born} AS card",
                 {"{age: 44, name: 'Bob'}"}},
        Scenario{"path_functions", kMovies,
                 "MATCH pth = (:Person {name: 'Carol'})-[:DIRECTED]->(m) "
                 "RETURN length(pth) AS len, "
                 "[n IN nodes(pth) | coalesce(n.name, n.title)] AS route",
                 {"1 | ['Carol', 'Fargo']"}}));

INSTANTIATE_TEST_SUITE_P(
    Updating, AcceptanceTest,
    ::testing::Values(
        Scenario{"create_then_read", "",
                 "CREATE (:N {v: 1}) CREATE (:N {v: 2}) "
                 "WITH 0 AS z MATCH (n:N) RETURN sum(n.v) AS s",
                 {"3"}},
        Scenario{"set_then_read_same_statement", "CREATE (:N {v: 1})",
                 "MATCH (n:N) SET n.v = 10 "
                 "WITH n MATCH (m:N) RETURN m.v AS v",
                 {"10"}},
        Scenario{"remove_label_visibility", "CREATE (:A:B {v: 1})",
                 "MATCH (n:A) REMOVE n:B WITH n "
                 "OPTIONAL MATCH (m:B) RETURN n.v AS v, m IS NULL AS gone",
                 {"1 | true"}},
        Scenario{"delete_nulls_reference", "CREATE (:N {v: 1})",
                 "MATCH (n:N) DELETE n RETURN n IS NULL AS gone",
                 {"true"}},
        Scenario{"merge_same_binds_all_rows", "",
                 "UNWIND [1, 1, 2] AS v MERGE SAME (n:N {v: v}) "
                 "RETURN v, n.v AS nv",
                 {"1 | 1", "1 | 1", "2 | 2"}},
        Scenario{"merge_all_row_multiplicity", "CREATE (:N {v: 1})",
                 "UNWIND [1, 9] AS v MERGE ALL (n:N {v: v}) "
                 "RETURN v, n.v AS nv",
                 {"1 | 1", "9 | 9"}},
        Scenario{"foreach_counter", "CREATE (:C {n: 0})",
                 "MATCH (c:C) FOREACH (x IN range(1, 5) | SET c.n = c.n + 1) "
                 "WITH c MATCH (d:C) RETURN d.n AS n",
                 {"5"}},
        // Bag semantics: two movie rows survive the DELETE, so the second
        // MATCH runs per row (2 x 3 remaining nodes).
        Scenario{"detach_delete_then_count", kMovies,
                 "MATCH (m:Movie) DETACH DELETE m "
                 "WITH 1 AS one MATCH (x) RETURN count(x) AS c",
                 {"6"}},
        Scenario{"detach_delete_then_count_distinct", kMovies,
                 "MATCH (m:Movie) DETACH DELETE m "
                 "WITH DISTINCT 1 AS one MATCH (x) RETURN count(x) AS c",
                 {"3"}},
        Scenario{"create_from_unwound_maps", "",
                 "UNWIND [{k: 'a'}, {k: 'b'}] AS row "
                 "CREATE (:N {k: row.k}) "
                 "WITH DISTINCT 1 AS one MATCH (n:N) RETURN n.k AS k",
                 {"'a'", "'b'"}},
        Scenario{"set_plus_eq_merges_maps", "CREATE (:N {a: 1, b: 2})",
                 "MATCH (n:N) SET n += {b: 20, c: 30} "
                 "WITH n RETURN n.a AS a, n.b AS b, n.c AS c",
                 {"1 | 20 | 30"}},
        Scenario{"legacy_new_clause_parity",
                 "CREATE (:U {id: 1})",
                 // MERGE ALL on existing data matches instead of creating.
                 "MERGE ALL (u:U {id: 1}) RETURN id(u) AS i",
                 {"0"}}));

INSTANTIATE_TEST_SUITE_P(
    Composition, AcceptanceTest,
    ::testing::Values(
        Scenario{"call_per_row_aggregate", kMovies,
                 "MATCH (p:Person) "
                 "CALL { MATCH (p)-[:ACTED_IN]->(m) "
                 "RETURN count(m) AS roles } "
                 "RETURN p.name AS n, roles",
                 {"'Alice' | 1", "'Bob' | 2", "'Carol' | 0"}},
        Scenario{"call_side_effect", kMovies,
                 "MATCH (m:Movie) CALL { CREATE (:Review {of: m.title}) } "
                 "WITH DISTINCT 1 AS one "
                 "MATCH (r:Review) RETURN r.of AS t",
                 {"'Heat'", "'Fargo'"}},
        Scenario{"explain_no_execution", "",
                 "EXPLAIN CREATE (:Never)",
                 {"0 | 'CREATE' | 'CREATE (:Never)'",
                  "1 | 'SEMANTICS' | 'revised (Sections 7-8), atomic "
                  "updates'",
                  "2 | 'TIER' | 'interpreter; plan cache: miss'"}},
        Scenario{"profile_cardinalities", kMovies,
                 "PROFILE MATCH (p:Person) RETURN p.name AS n",
                 {"0 | 'MATCH (p:Person)' | 3",
                  "1 | 'RETURN p.name AS n' | 3"}},
        Scenario{"index_transparent", "CREATE INDEX ON :Person(name); " +
                                          std::string(kMovies),
                 "MATCH (p:Person {name: 'Bob'})-[:ACTED_IN]->(m) "
                 "RETURN m.title AS t",
                 {"'Heat'", "'Fargo'"}},
        Scenario{"foreach_nested_create", "",
                 "FOREACH (i IN range(1, 2) | "
                 "FOREACH (j IN range(1, 2) | CREATE (:P {i: i, j: j}))) "
                 "WITH 1 AS one MATCH (p:P) RETURN count(p) AS c",
                 {"4"}},
        Scenario{"union_all_updates_thread", "",
                 "CREATE (:L {v: 1}) RETURN 1 AS x "
                 "UNION ALL "
                 "MATCH (l:L) RETURN l.v AS x",
                 {"1", "1"}},
        Scenario{"with_star_extension", kMovies,
                 "MATCH (p:Person {name: 'Bob'}) "
                 "WITH *, p.born AS b RETURN b",
                 {"1975"}},
        Scenario{"parameterless_standalone_return", "",
                 "RETURN coalesce(null, 'fallback') AS v",
                 {"'fallback'"}}));

// Scenarios that depend on legacy (Cypher 9) semantics.
struct LegacyScenario {
  const char* name;
  const char* setup;
  const char* query;
  std::vector<const char*> rows;
};

class LegacyAcceptanceTest : public ::testing::TestWithParam<LegacyScenario> {};

TEST_P(LegacyAcceptanceTest, RowsMatch) {
  const LegacyScenario& s = GetParam();
  EvalOptions legacy;
  legacy.semantics = SemanticsMode::kLegacy;
  GraphDatabase db(legacy);
  if (*s.setup != '\0') {
    auto setup = db.ExecuteScript(s.setup);
    ASSERT_TRUE(setup.ok()) << s.name << ": " << setup.status().ToString();
  }
  auto result = db.Execute(s.query);
  ASSERT_TRUE(result.ok()) << s.name << ": " << result.status().ToString();
  std::vector<std::string> got;
  for (const auto& row : result->rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += " | ";
      line += RenderValue(db.graph(), row[i]);
    }
    got.push_back(std::move(line));
  }
  std::vector<std::string> want(s.rows.begin(), s.rows.end());
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want) << s.name;
}

INSTANTIATE_TEST_SUITE_P(
    Legacy, LegacyAcceptanceTest,
    ::testing::Values(
        LegacyScenario{"merge_reads_own_writes", "",
                       "UNWIND [1, 1, 1] AS v MERGE (n:N {v: v}) "
                       "RETURN id(n) AS i",
                       {"0", "0", "0"}},
        LegacyScenario{"set_sees_prior_records",
                       "CREATE (:N {id: 1, v: 10}); CREATE (:N {id: 2, v: 20})",
                       // Legacy SET processes record 1 first; record 2's
                       // read of n1.v already sees 99.
                       "MATCH (a:N {id: 1}), (b:N {id: 2}) "
                       "SET a.v = 99 SET b.v = a.v "
                       "WITH a, b RETURN a.v AS av, b.v AS bv",
                       {"99 | 99"}},
        LegacyScenario{"zombie_return_is_empty_node",
                       "CREATE (:U {id: 1})-[:T]->(:V)",
                       "MATCH (u:U)-[t:T]->(v) DELETE u, t "
                       "RETURN u AS zombie",
                       {"()"}},
        LegacyScenario{"merge_on_create_flag", "",
                       "MERGE (n:N {k: 1}) ON CREATE SET n.fresh = true "
                       "RETURN n.fresh AS f",
                       {"true"}}));

}  // namespace
}  // namespace cypher
