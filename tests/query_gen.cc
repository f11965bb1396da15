#include "query_gen.h"

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace cypher::testing {
namespace {

std::string I(int64_t v) { return std::to_string(v); }

// Collects lifted literals into a parameter map. Fragments emit values via
// IL(sink, v): with a sink the literal becomes a fresh `$pN` reference and
// lands in the map; without one it renders inline. The sink never touches
// the RNG, so both modes consume randomness identically and a seed always
// yields the same statement *shape* either way — the property the
// parametrized-vs-inline differential oracle depends on.
struct ParamSink {
  ValueMap params;
  int counter = 0;

  std::string Add(int64_t v) {
    std::string name = "p" + std::to_string(counter++);
    params.emplace(name, Value::Int(v));
    return "$" + name;
  }
};

std::string IL(ParamSink* sink, int64_t v) {
  return sink != nullptr ? sink->Add(v) : I(v);
}

// ---------------------------------------------------------------------------
// Pattern fragments. Every fragment sticks to constructs the parser is known
// to accept (single and stacked labels, type alternatives, bounded hop
// windows) so a generated query can only fail for semantic reasons — and a
// semantic failure must then fail identically in every configuration.
// ---------------------------------------------------------------------------

std::string Labels(SplitMix64& rng) {
  switch (rng.NextBelow(6)) {
    case 0:
    case 1:
      return "";
    case 2:
    case 3:
      return ":A";
    case 4:
      return ":B";
    default:
      return ":A:B";
  }
}

std::string RelTypes(SplitMix64& rng) {
  switch (rng.NextBelow(4)) {
    case 0:
      return "";
    case 1:
      return ":R";
    case 2:
      return ":S";
    default:
      return ":R|S";
  }
}

// "(v:A {k: 3})" — labels and the property filter each appear with
// independent probability.
std::string NodePat(SplitMix64& rng, const std::string& var,
                    ParamSink* sink = nullptr) {
  std::string out = "(" + var + Labels(rng);
  if (rng.NextBelow(3) == 0) {
    out += " {k: " + IL(sink, static_cast<int64_t>(rng.NextBelow(13))) + "}";
  }
  out += ")";
  return out;
}

// Wraps a relationship body in one of the three directions.
std::string Arrow(SplitMix64& rng, const std::string& body) {
  switch (rng.NextBelow(3)) {
    case 0:
      return "-[" + body + "]->";
    case 1:
      return "<-[" + body + "]-";
    default:
      return "-[" + body + "]-";
  }
}

// Bounded hop window: trails on a cyclic graph explode combinatorially, so
// the generator never emits an unbounded upper bound outside shortestPath.
std::string VarSpec(SplitMix64& rng) {
  int64_t min = static_cast<int64_t>(rng.NextBelow(3));  // 0..2
  int64_t max =
      min + 1 + static_cast<int64_t>(rng.NextBelow(min < 2 ? 3 : 2));
  if (max > 4) max = 4;
  switch (rng.NextBelow(3)) {
    case 0:
      return "*" + I(min) + ".." + I(max);
    case 1:
      return "*.." + I(max);
    default:
      return "*1.." + I(max);
  }
}

// A WHERE predicate over an already-bound node variable.
std::string Predicate(SplitMix64& rng, const std::string& var,
                      ParamSink* sink = nullptr) {
  switch (rng.NextBelow(5)) {
    case 0:
      return var + ".k % " +
             IL(sink, 2 + static_cast<int64_t>(rng.NextBelow(4))) + " = " +
             IL(sink, static_cast<int64_t>(rng.NextBelow(3)));
    case 1:
      return var + ".k < " + IL(sink, static_cast<int64_t>(rng.NextBelow(13)));
    case 2:
      return var + ".k > " + IL(sink, static_cast<int64_t>(rng.NextBelow(13)));
    case 3:
      return var + ".w <> " + IL(sink, static_cast<int64_t>(rng.NextBelow(5)));
    default:
      return var + ".w = " + IL(sink, static_cast<int64_t>(rng.NextBelow(5)));
  }
}

std::string MaybeWhere(SplitMix64& rng, const std::string& var,
                       ParamSink* sink = nullptr) {
  switch (rng.NextBelow(3)) {
    case 0:
      return "";
    case 1:
      return " WHERE " + Predicate(rng, var, sink);
    default:
      return " WHERE " + Predicate(rng, var, sink) +
             (rng.NextBelow(2) == 0 ? " AND " : " OR ") +
             Predicate(rng, var, sink);
  }
}

// Paging tail for ordered row-producing queries.
std::string MaybePage(SplitMix64& rng, ParamSink* sink = nullptr) {
  switch (rng.NextBelow(4)) {
    case 0:
      return " SKIP " + IL(sink, static_cast<int64_t>(rng.NextBelow(4)));
    case 1:
      return " LIMIT " + IL(sink, 5 + static_cast<int64_t>(rng.NextBelow(20)));
    default:
      return "";
  }
}

// ---------------------------------------------------------------------------
// Statement bodies, shared by the inline and parametrized entry points.
// ---------------------------------------------------------------------------

std::string ReadQueryImpl(uint64_t seed, ParamSink* sink) {
  SplitMix64 rng(seed * 0xbf58476d1ce4e5b9ULL + 7);
  switch (rng.NextBelow(15)) {
    case 13: {  // Grouped aggregate the interpreter streams out of the MATCH.
      std::string q = "MATCH " + NodePat(rng, "n", sink);
      if (rng.NextBelow(2) == 0) {
        q += " WHERE n.w >= " +
             IL(sink, static_cast<int64_t>(rng.NextBelow(4))) +
             " AND n.k <> " + IL(sink, static_cast<int64_t>(rng.NextBelow(13)));
      }
      return q +
             " RETURN n.k AS g, count(*) AS c, count(n.w) AS cw, sum(n.w) AS "
             "s, min(n.id) AS lo, max(n.id) AS hi ORDER BY g DESC LIMIT " +
             IL(sink, 1 + static_cast<int64_t>(rng.NextBelow(6)));
    }
    case 14:  // Streamable shape whose sum() meets floats: the streamed pass
              // declines and the pair reruns materialized.
      return "MATCH " + NodePat(rng, "n", sink) +
             " RETURN n.k AS g, count(*) AS c, sum(n.f) AS s ORDER BY g";
    case 12:  // OPTIONAL MATCH expansion driven by a plain scan.
      return "MATCH " + NodePat(rng, "a", sink) + " OPTIONAL MATCH (a)" +
             Arrow(rng, "r" + RelTypes(rng)) + NodePat(rng, "b", sink) +
             " RETURN a.id AS a, r.c AS c, b.id AS b";
    case 0:  // Plain scan with projection and paging.
      return "MATCH " + NodePat(rng, "n", sink) + MaybeWhere(rng, "n", sink) +
             " RETURN n.id AS id, n.k AS k, n.w AS w ORDER BY id" +
             MaybePage(rng, sink);
    case 1:  // Scan aggregation, grouped by a derived key.
      return "MATCH " + NodePat(rng, "n", sink) + " WITH n.k % " +
             IL(sink, 2 + static_cast<int64_t>(rng.NextBelow(3))) +
             " AS g, n RETURN g, count(*) AS c, sum(n.w) AS s, min(n.id) AS "
             "lo, max(n.id) AS hi ORDER BY g";
    case 2:  // Single fixed hop.
      return "MATCH " + NodePat(rng, "a", sink) +
             Arrow(rng, "r" + RelTypes(rng)) + NodePat(rng, "b", sink) +
             MaybeWhere(rng, "a", sink) +
             " RETURN a.id AS a, r.c AS c, b.id AS b";
    case 3:  // Two-hop chain.
      return "MATCH " + NodePat(rng, "a", sink) + Arrow(rng, RelTypes(rng)) +
             "(b)" + Arrow(rng, RelTypes(rng)) + NodePat(rng, "c", sink) +
             MaybeWhere(rng, "b", sink) +
             " RETURN a.id AS a, b.id AS b, c.id AS c";
    case 4:  // Var-length rows; ascending-id emission order is under test,
             // so no ORDER BY — the table must match byte for byte anyway.
      return "MATCH " + NodePat(rng, "a", sink) +
             Arrow(rng, RelTypes(rng) + VarSpec(rng)) + NodePat(rng, "b", sink) +
             MaybeWhere(rng, "b", sink) + " RETURN a.id AS a, b.id AS b";
    case 5: {  // Named var-length path.
      std::string q = "MATCH p = " + NodePat(rng, "a", sink) +
                      Arrow(rng, RelTypes(rng) + VarSpec(rng)) + "(b)" +
                      MaybeWhere(rng, "a", sink);
      return q + " RETURN length(p) AS len, a.id AS a, b.id AS b" +
             MaybePage(rng, sink);
    }
    case 6:  // Var-length aggregation (collect exposes emission order).
      return "MATCH " + NodePat(rng, "a", sink) +
             Arrow(rng, RelTypes(rng) + VarSpec(rng)) + "(b)" +
             " RETURN count(*) AS c, min(b.id) AS lo, collect(b.k) AS ks";
    case 7: {  // shortestPath between two probed endpoints.
      const int64_t s = static_cast<int64_t>(rng.NextBelow(18));
      const int64_t t = s + 1 + static_cast<int64_t>(rng.NextBelow(4));
      return "MATCH (a {id: " + IL(sink, s) + "}), (b {id: " + IL(sink, t) +
             "}) MATCH p = shortestPath((a)" + Arrow(rng, RelTypes(rng) + "*") +
             "(b)) RETURN length(p) AS len, nodes(p) AS ns";
    }
    case 8: {  // OPTIONAL shortestPath with a hop window.
      const int64_t s = static_cast<int64_t>(rng.NextBelow(18));
      const int64_t t = s + 1 + static_cast<int64_t>(rng.NextBelow(4));
      return "MATCH (a {id: " + IL(sink, s) + "}), (b {id: " + IL(sink, t) +
             "}) OPTIONAL MATCH p = shortestPath((a)" +
             Arrow(rng, RelTypes(rng) + "*..4") +
             "(b)) RETURN a.id AS a, b.id AS b, length(p) AS len";
    }
    case 9: {  // allShortestPaths, aggregated per path length.
      const int64_t s = static_cast<int64_t>(rng.NextBelow(18));
      const int64_t t = s + 1 + static_cast<int64_t>(rng.NextBelow(4));
      return "MATCH (a {id: " + IL(sink, s) + "}), (b {id: " + IL(sink, t) +
             "}) MATCH p = allShortestPaths((a)" +
             Arrow(rng, RelTypes(rng) + "*") +
             "(b)) RETURN length(p) AS len, count(*) AS c";
    }
    case 10:  // Cartesian conjunction restricted by a join predicate.
      return "MATCH " + NodePat(rng, "a", sink) + ", " +
             NodePat(rng, "b", sink) +
             " WHERE a.id < b.id AND a.k = b.k RETURN count(*) AS c";
    default:  // UNWIND-driven probe with an optional var-length expansion.
      return "UNWIND range(0, " +
             IL(sink, 4 + static_cast<int64_t>(rng.NextBelow(8))) +
             ") AS x OPTIONAL MATCH (n {k: x})" +
             Arrow(rng, RelTypes(rng) + "*1..2") + "(m)" +
             " RETURN x, count(m) AS c, min(m.id) AS lo ORDER BY x";
  }
}

std::string UpdateQueryImpl(uint64_t seed, ParamSink* sink) {
  SplitMix64 rng(seed * 0x94d049bb133111ebULL + 13);
  // Probe ids stay inside the BuildRandomGraph id range (0..55); deleted
  // nodes simply make some probes match nothing, which must still commit.
  const int64_t id = static_cast<int64_t>(rng.NextBelow(56));
  const int64_t id2 = static_cast<int64_t>(rng.NextBelow(56));
  const int64_t k = static_cast<int64_t>(rng.NextBelow(13));
  const int64_t v = static_cast<int64_t>(rng.NextBelow(100));
  switch (rng.NextBelow(18)) {
    case 14:  // OPTIONAL MATCH-driven SET; a deleted probe target leaves n
              // null and the SET is skipped, so the statement still commits.
      return "OPTIONAL MATCH (n {id: " + IL(sink, id) +
             "}) SET n.tag = " + IL(sink, v);
    case 15:  // OPTIONAL MATCH-driven delete of a possibly-absent node.
      return "OPTIONAL MATCH (n:New {id: " + IL(sink, 1000 + v) +
             "}) DETACH DELETE n";
    case 16:  // MERGE with a multi-key property-map literal.
      return rng.NextBelow(2) == 0
                 ? "MERGE SAME (m:M {mid: " +
                       IL(sink, static_cast<int64_t>(rng.NextBelow(6))) +
                       ", grp: " + IL(sink, k % 3) + "})"
                 : "MERGE ALL (:C {v: " +
                       IL(sink, static_cast<int64_t>(rng.NextBelow(4))) +
                       ", grp: " + IL(sink, k % 3) + "})";
    case 17:  // FOREACH with a nested MERGE body.
      return "FOREACH (x IN range(0, " +
             IL(sink, 1 + static_cast<int64_t>(rng.NextBelow(3))) +
             ") | MERGE SAME (:F2 {fx: x}))";
    case 0:  // Fresh node; ids above the seed range keep {id} probes unique.
      return "CREATE (:A:New {id: " + IL(sink, 1000 + v) +
             ", k: " + IL(sink, k) + "})";
    case 1:  // Fresh relationship between two probed endpoints.
      return "MATCH (a {id: " + IL(sink, id) + "}), (b {id: " + IL(sink, id2) +
             "}) CREATE (a)-[:R {c: " + IL(sink, k) + "}]->(b)";
    case 2:  // Single-property SET across a k-cohort.
      return "MATCH (n {k: " + IL(sink, k) + "}) SET n.w = " + IL(sink, v);
    case 3:  // Whole-map replacement on one node.
      return "MATCH (n {id: " + IL(sink, id) + "}) SET n = {id: " +
             IL(sink, id) + ", k: " + IL(sink, k) + ", w: " + IL(sink, v % 5) +
             "}";
    case 4:  // Additive map merge.
      return "MATCH (n {id: " + IL(sink, id) + "}) SET n += {tag: " +
             IL(sink, v) + "}";
    case 5:  // Label add.
      return "MATCH (n {id: " + IL(sink, id) + "}) SET n:B:Hot";
    case 6:  // Property removal across a cohort.
      return "MATCH (n {k: " + IL(sink, k) + "}) REMOVE n.w";
    case 7:  // Label removal.
      return "MATCH (n {id: " + IL(sink, id) + "}) REMOVE n:Hot";
    case 8:  // Relationship deletion by property probe.
      return "MATCH ()-[r:" + std::string(rng.NextBelow(2) == 0 ? "R" : "S") +
             " {c: " + IL(sink, static_cast<int64_t>(rng.NextBelow(7))) +
             "}]->() DELETE r";
    case 9:  // Node deletion with its incident relationships.
      return "MATCH (n {id: " + IL(sink, id) + "}) DETACH DELETE n";
    case 10:  // MERGE SAME: match-or-create one node (works in both
              // semantics; bare MERGE is legacy-only).
      return "MERGE SAME (m:M {mid: " +
             IL(sink, static_cast<int64_t>(rng.NextBelow(6))) + "})";
    case 11:  // MERGE ALL over a probed cohort.
      return "MERGE ALL (:C {v: " +
             IL(sink, static_cast<int64_t>(rng.NextBelow(4))) + "})";
    case 12:  // FOREACH creating a small batch.
      return "FOREACH (x IN range(0, " +
             IL(sink, 1 + static_cast<int64_t>(rng.NextBelow(3))) +
             ") | CREATE (:F {fx: x, run: " + IL(sink, v) + "}))";
    default:  // FOREACH mutating matched rows.
      return "MATCH (n {k: " + IL(sink, k) +
             "}) FOREACH (x IN [1, 2] | SET n.w = x)";
  }
}

}  // namespace

Status BuildRandomGraph(GraphDatabase* db, uint64_t seed) {
  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const int64_t num_nodes = 20 + static_cast<int64_t>(rng.NextBelow(37));

  // All nodes in one CREATE so ids are assigned in a single dense run.
  std::string create = "CREATE ";
  for (int64_t i = 0; i < num_nodes; ++i) {
    if (i > 0) create += ", ";
    std::string labels;
    switch (rng.NextBelow(5)) {
      case 0:
      case 1:
        labels = ":A";
        break;
      case 2:
      case 3:
        labels = ":B";
        break;
      default:
        labels = ":A:B";
        break;
    }
    // f is a float on every third node, an integer or absent elsewhere.
    const std::string f = i % 3 == 0   ? ", f: " + I(i) + ".5"
                          : i % 3 == 1 ? ", f: " + I(i)
                                       : "";
    create += "(" + labels + " {id: " + I(i) +
              ", k: " + I(static_cast<int64_t>(rng.NextBelow(13))) +
              ", w: " + I(static_cast<int64_t>(rng.NextBelow(5))) + f + "})";
  }
  CYPHER_RETURN_NOT_OK(db->Run(create));

  // ~1.5x edge density keeps bounded trail enumeration tractable while still
  // producing cycles, self-loops and parallel edges.
  const int64_t num_rels =
      num_nodes + static_cast<int64_t>(rng.NextBelow(num_nodes));
  for (int64_t r = 0; r < num_rels; ++r) {
    const int64_t src = static_cast<int64_t>(rng.NextBelow(num_nodes));
    const int64_t dst = static_cast<int64_t>(rng.NextBelow(num_nodes));
    const char* type = rng.NextBelow(5) < 3 ? "R" : "S";
    CYPHER_RETURN_NOT_OK(
        db->Run("MATCH (a {id: " + I(src) + "}), (b {id: " + I(dst) +
                "}) CREATE (a)-[:" + std::string(type) +
                " {c: " + I(static_cast<int64_t>(rng.NextBelow(7))) +
                "}]->(b)"));
  }

  // Leave tombstones behind so node/relationship scans skip deleted slots.
  CYPHER_RETURN_NOT_OK(db->Run("MATCH ()-[r:S {c: 0}]->() DELETE r"));
  CYPHER_RETURN_NOT_OK(db->Run("MATCH (n {k: 12}) DETACH DELETE n"));
  CYPHER_RETURN_NOT_OK(
      db->Run("MATCH (n {id: " +
              I(static_cast<int64_t>(rng.NextBelow(num_nodes))) +
              "}) DETACH DELETE n"));
  return Status::OK();
}

std::string GenerateReadQuery(uint64_t seed) {
  return ReadQueryImpl(seed, nullptr);
}

std::string GenerateUpdateQuery(uint64_t seed) {
  return UpdateQueryImpl(seed, nullptr);
}

GeneratedQuery GenerateReadQueryWithParams(uint64_t seed) {
  ParamSink sink;
  GeneratedQuery out;
  out.text = ReadQueryImpl(seed, &sink);
  out.params = std::move(sink.params);
  return out;
}

GeneratedQuery GenerateUpdateQueryWithParams(uint64_t seed) {
  ParamSink sink;
  GeneratedQuery out;
  out.text = UpdateQueryImpl(seed, &sink);
  out.params = std::move(sink.params);
  return out;
}

std::vector<std::string> GenerateUpdateWorkload(uint64_t seed, size_t count) {
  std::vector<std::string> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(GenerateUpdateQuery(seed * 977 + i));
  }
  return out;
}

}  // namespace cypher::testing
