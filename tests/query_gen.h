#ifndef CYPHER_TESTS_QUERY_GEN_H_
#define CYPHER_TESTS_QUERY_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "cypher/database.h"

namespace cypher::testing {

/// Populates `db` with a small deterministic random graph: nodes labeled
/// :A / :B (a few carry both), integer properties k / w plus a unique id, a
/// property f (a float on every third node, an integer or absent
/// elsewhere), :R / :S relationships with an integer property c (self-loops
/// and parallel edges included), then deletes a few relationships and nodes
/// so tombstoned slots participate in every scan. The same seed always
/// builds the same graph.
Status BuildRandomGraph(GraphDatabase* db, uint64_t seed);

/// A deterministic random read-only query valid over any BuildRandomGraph
/// graph: fixed-length chains, var-length walks (all directions, hop
/// windows, type alternatives, named paths), shortestPath /
/// allShortestPaths, pattern conjunctions, OPTIONAL MATCH, UNWIND-driven
/// probes, WHERE predicates, and projection / aggregation (count, sum,
/// min, max, collect, avg, DISTINCT, ORDER BY, SKIP / LIMIT) — including
/// MATCH -> aggregate pairs the interpreter streams, and one whose sum()
/// meets floats so the streamed pass declines.
std::string GenerateReadQuery(uint64_t seed);

/// A deterministic random update statement valid over any BuildRandomGraph
/// graph: node/relationship CREATE, single-property and whole-map SET,
/// label SET, REMOVE, DELETE / DETACH DELETE, standalone MERGE ALL / MERGE
/// SAME (single- and multi-key property maps), OPTIONAL MATCH-driven SET
/// and DETACH DELETE (null targets are skipped), and FOREACH bodies
/// (CREATE, SET, and nested MERGE). Statements may legitimately match
/// nothing (a no-op commit) but never fail; the durability tests rely on
/// every generated statement committing so the crash sweep's
/// committed-prefix accounting stays simple.
std::string GenerateUpdateQuery(uint64_t seed);

/// A generated statement paired with the parameter map its `$pN`
/// references resolve against.
struct GeneratedQuery {
  std::string text;
  ValueMap params;
};

/// GenerateReadQuery with every *value* literal (property filters, WHERE
/// comparands, SKIP/LIMIT counts, probe ids, range bounds) lifted into a
/// `$pN` parameter reference plus a matching entry in `params`. Hop
/// windows (`*1..3`) stay literal — they are pattern syntax, not value
/// expressions. The same seed produces the same query shape as
/// GenerateReadQuery, so the two forms must return identical tables; the
/// differential suite uses that as its parametrized-execution oracle.
GeneratedQuery GenerateReadQueryWithParams(uint64_t seed);

/// GenerateUpdateQuery with value literals lifted to `$pN` parameters,
/// shape-identical to the inline form for the same seed.
GeneratedQuery GenerateUpdateQueryWithParams(uint64_t seed);

/// `count` statements from GenerateUpdateQuery with seeds derived from
/// `seed` — the one randomized update workload shared by the WAL crash
/// sweep and the rewrite-equivalence fuzzer, so both suites age graphs
/// through the same statement mix.
std::vector<std::string> GenerateUpdateWorkload(uint64_t seed, size_t count);

}  // namespace cypher::testing

#endif  // CYPHER_TESTS_QUERY_GEN_H_
