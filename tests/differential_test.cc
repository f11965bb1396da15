// Differential harness: serial-vs-parallel byte equality plus
// rewrite-equivalence fuzzing.
//
// Part one (the original suite): the anchor-tile parallel MATCH promises
// byte-identical rendered tables regardless of worker count. Seeded
// random graphs (query_gen.cc) crossed with seeded random read-only
// queries run sequentially and under 1, 2 and 8 workers; legacy vs
// revised semantics are cross-checked on the same read-only corpus.
//
// Part two (RewriteFuzz): an equivalence oracle over the update
// semantics. Every corpus statement — read AND update — is rewritten by
// tests/rewriter.cc into provably equivalent variants (pattern reversal,
// conjunct rotation/splitting, WHERE <-> property-map migration, WITH *
// insertion, MERGE -> conditional CREATE, ...). Each variant must produce
// the same BAG of result rows, the same stats line, and a byte-identical
// canonical graph dump as the original, across sequential x parallel
// configs x legacy/revised semantics. A self-check asserts every rewrite
// rule fires on the corpus, so applicability conditions cannot silently
// rot into dead rules.
//
// Failures print a single REPRO line (seed, config flags, rule, full
// query text) plus the first diverging artifact line, and append the
// REPRO line to $CYPHER_FUZZ_REPRO_FILE when set — CI uploads that file
// so nightly failures are actionable without a local rerun.
// $CYPHER_FUZZ_READ_CASES / $CYPHER_FUZZ_UPDATE_CASES scale the per-graph
// case counts (the nightly job raises them well above the in-matrix
// defaults).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/interpreter.h"
#include "exec/options.h"
#include "exec/render.h"
#include "graph/serialize.h"
#include "parser/parser.h"
#include "query_gen.h"
#include "rewriter.h"
#include "test_util.h"

namespace cypher::testing {
namespace {

constexpr uint64_t kGraphSeeds = 8;
constexpr uint64_t kQueriesPerGraph = 30;  // 8 * 30 = 240 cases.

size_t EnvCount(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<size_t>(std::strtoull(v, nullptr, 10));
}

const char* SemName(SemanticsMode semantics) {
  return semantics == SemanticsMode::kLegacy ? "legacy" : "revised";
}

// The worker counts every gate sweeps: workers=1 (parallel plumbing,
// sequential schedule), and 2 and 8 workers, whose derived tiles are a
// single anchor position on most generated graphs (domain < workers x 8).
const size_t kWorkerCounts[] = {1, 2, 8};

/// Runs `query` on a copy of `base` and returns the rendered table, or the
/// error status as a string so failures are compared byte-for-byte too.
std::string RunCase(const PropertyGraph& base, const std::string& query,
                    size_t workers,
                    SemanticsMode semantics = SemanticsMode::kRevised,
                    size_t max_rows = 0) {
  GraphDatabase db;
  db.graph() = base;
  db.options().semantics = semantics;
  db.options().parallel_workers = workers;
  db.options().parallel_min_cost = 1;  // engage on every eligible clause
  db.options().max_rows = max_rows;
  auto result = db.Execute(query);
  if (!result.ok()) return "ERROR: " + result.status().ToString();
  return RenderResult(db.graph(), *result);
}

/// Runs `query` on a copy of `base` and returns the canonical bag
/// artifact compared by the rewrite oracle: status, column names, the
/// SORTED rendered rows (rewrites may legally permute row order — tables
/// are bags, paper Section 2), the mutation-stats line, and the canonical
/// dump of the post-statement graph. Errors keep the dump too, so the
/// roll-back-on-failure guarantee is differential-tested as well.
std::string BagArtifact(const GraphDatabase& db,
                        const Result<QueryResult>& result) {
  std::string out;
  if (!result.ok()) {
    out = "ERROR: " + result.status().ToString() + "\n";
  } else {
    out = "cols:";
    for (const std::string& column : result->columns) out += " " + column;
    out += "\n";
    std::vector<std::string> rows;
    rows.reserve(result->rows.size());
    for (const std::vector<Value>& row : result->rows) {
      std::string line;
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) line += " | ";
        line += RenderValue(db.graph(), row[i]);
      }
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    for (const std::string& row : rows) out += row + "\n";
    out += "stats: " + result->stats.ToString() + "\n";
  }
  out += "-- graph --\n" + DumpGraphCanonical(db.graph());
  return out;
}

std::string RunBagArtifact(const PropertyGraph& base, const std::string& query,
                           size_t workers, SemanticsMode semantics) {
  GraphDatabase db;
  db.graph() = base;
  db.options().semantics = semantics;
  db.options().parallel_workers = workers;
  db.options().parallel_min_cost = 1;
  auto result = db.Execute(query);
  return BagArtifact(db, result);
}

PropertyGraph MakeGraph(uint64_t seed) {
  GraphDatabase db;
  Status st = BuildRandomGraph(&db, seed);
  EXPECT_TRUE(st.ok()) << "graph seed " << seed << ": " << st.ToString();
  return db.graph();
}

// ---------------------------------------------------------------------------
// Failure reproducers
// ---------------------------------------------------------------------------

/// One-line reproducer; everything needed to rerun the case is on one
/// greppable line so CI output is actionable without a local rerun.
std::string ReproLine(const std::string& kind, uint64_t gseed, uint64_t qseed,
                      const std::string& rule, SemanticsMode semantics,
                      size_t workers, const std::string& query) {
  std::ostringstream os;
  os << "REPRO kind=" << kind << " gseed=" << gseed << " qseed=" << qseed
     << " rule=\"" << rule << "\" semantics=" << SemName(semantics)
     << " workers=" << workers << " query=\"" << query
     << "\"";
  return os.str();
}

/// The first line where the two artifacts diverge.
std::string FirstDivergence(const std::string& expected,
                            const std::string& actual) {
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  size_t line = 1;
  while (true) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) return "(artifacts identical)";
    if (want_line != got_line || more_want != more_got) {
      std::ostringstream os;
      os << "first divergence at artifact line " << line
         << ":\n  expected: " << (more_want ? want_line : "<end of artifact>")
         << "\n  actual:   " << (more_got ? got_line : "<end of artifact>");
      return os.str();
    }
    want_line.clear();
    got_line.clear();
    ++line;
  }
}

/// Appends a reproducer line to $CYPHER_FUZZ_REPRO_FILE (no-op when
/// unset); the nightly CI job uploads the file as a failure artifact.
void LogRepro(const std::string& line) {
  const char* path = std::getenv("CYPHER_FUZZ_REPRO_FILE");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path, std::ios::app);
  out << line << "\n";
}

// ---------------------------------------------------------------------------
// Original serial-vs-parallel suite
// ---------------------------------------------------------------------------

TEST(DifferentialTest, SerialVsParallelByteIdentical) {
  size_t succeeded = 0;
  size_t nonempty = 0;
  for (uint64_t gs = 0; gs < kGraphSeeds; ++gs) {
    const PropertyGraph base = MakeGraph(gs);
    for (uint64_t qs = 0; qs < kQueriesPerGraph; ++qs) {
      const uint64_t seed = gs * 1000 + qs;
      const std::string query = GenerateReadQuery(seed);
      const std::string expected = RunCase(base, query, 0);
      if (expected.rfind("ERROR:", 0) != 0) {
        ++succeeded;
        if (expected.find("\n") != expected.rfind("\n")) ++nonempty;
      }
      for (size_t workers : kWorkerCounts) {
        const std::string got = RunCase(base, query, workers);
        if (got != expected) {
          const std::string repro =
              ReproLine("serial-vs-parallel", gs, seed, "original",
                        SemanticsMode::kRevised, workers, query);
          LogRepro(repro);
          ADD_FAILURE() << repro << "\n" << FirstDivergence(expected, got);
        }
      }
    }
  }
  // The harness is only useful if the generator mostly produces queries
  // that actually execute and return rows; guard against silent decay.
  const size_t total = kGraphSeeds * kQueriesPerGraph;
  EXPECT_GE(succeeded, total * 9 / 10)
      << succeeded << "/" << total << " cases executed without error";
  EXPECT_GE(nonempty, total / 2)
      << nonempty << "/" << total << " cases produced at least one row";
}

TEST(DifferentialTest, LegacyVsRevisedReadOnlyAgree) {
  // Read-only queries must render identically under both update-semantics
  // modes; only write clauses may diverge. Sequential execution isolates
  // the semantics knob from the parallel one.
  for (uint64_t gs = 0; gs < kGraphSeeds; ++gs) {
    const PropertyGraph base = MakeGraph(gs);
    for (uint64_t qs = 0; qs < kQueriesPerGraph; ++qs) {
      const uint64_t seed = gs * 1000 + qs;
      const std::string query = GenerateReadQuery(seed);
      const std::string legacy =
          RunCase(base, query, 0, SemanticsMode::kLegacy);
      const std::string revised =
          RunCase(base, query, 0, SemanticsMode::kRevised);
      if (legacy != revised) {
        const std::string repro =
            ReproLine("legacy-vs-revised", gs, seed, "original",
                      SemanticsMode::kLegacy, 0, query);
        LogRepro(repro);
        ADD_FAILURE() << repro << "\n" << FirstDivergence(revised, legacy);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rewrite-equivalence fuzzing
// ---------------------------------------------------------------------------

/// Runs one corpus statement through the rewrite oracle: every variant
/// (plus the original, so update statements get the parallel sweep the
/// read-only suite above already gives reads) must reproduce the
/// sequential baseline artifact in every configuration and semantics mode
/// its equivalence argument covers. Single-rule fires are tallied into
/// `fired` for the self-check. Returns false after reporting the first
/// divergence so one root cause produces one failure, not dozens.
bool RunOracle(const PropertyGraph& base, const std::string& kind,
               uint64_t gseed, uint64_t qseed, const std::string& query,
               std::map<std::string, size_t>* fired) {
  std::vector<RewriteVariant> variants = GenerateRewrites(query);
  for (const RewriteVariant& variant : variants) {
    if (variant.rule.rfind("chain(", 0) != 0) ++(*fired)[variant.rule];
  }
  variants.insert(variants.begin(), RewriteVariant{"original", query, false});
  for (SemanticsMode semantics :
       {SemanticsMode::kLegacy, SemanticsMode::kRevised}) {
    const std::string baseline =
        RunBagArtifact(base, query, 0, semantics);
    // A failing seed still checks config-consistency of its own error, but
    // rewritten variants may word an equivalent error differently — the
    // equivalence claim covers behaviour, not message text.
    const bool baseline_error = baseline.rfind("ERROR:", 0) == 0;
    for (const RewriteVariant& variant : variants) {
      if (variant.revised_only && semantics == SemanticsMode::kLegacy) {
        continue;
      }
      if (baseline_error && variant.rule != "original") continue;
      for (size_t workers : kWorkerCounts) {
        const std::string got =
            RunBagArtifact(base, variant.query, workers, semantics);
        if (got != baseline) {
          const std::string repro =
              ReproLine(kind, gseed, qseed, variant.rule, semantics,
                        workers, variant.query);
          LogRepro(repro);
          ADD_FAILURE() << repro << "\n  seed query: " << query << "\n"
                        << FirstDivergence(baseline, got);
          return false;
        }
      }
    }
  }
  return true;
}

// Deterministic anchor corpus: one entry per rule-triggering shape and per
// generator clause shape added with the rewrite fuzzer (OPTIONAL MATCH
// updates, multi-key MERGE property maps, FOREACH-nested MERGE), so the
// per-rule self-check cannot go flaky when the random generators drift.
const struct AnchorCase {
  const char* kind;
  const char* query;
} kAnchorCorpus[] = {
    {"anchor-read",
     "MATCH (a:A {k: 1})-[r:R]->(b) WHERE b.w = 2 AND a.w = 0 "
     "RETURN a.id AS a, b.id AS b"},
    {"anchor-read",
     "MATCH (a:A), (b:B) WHERE a.id < b.id AND a.k = b.k "
     "RETURN count(*) AS c"},
    {"anchor-read",
     "MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->(b:B) "
     "RETURN a.id AS a, r.c AS c, b.id AS b"},
    {"anchor-read",
     "MATCH (n:A) WHERE n.w >= 1 AND n.k <> 3 RETURN n.k AS g, count(*) AS c, "
     "count(n.w) AS cw, sum(n.w) AS s, min(n.id) AS lo, max(n.id) AS hi "
     "ORDER BY g DESC LIMIT 4"},
    {"anchor-read",
     "MATCH (n) RETURN n.k AS g, count(*) AS c, sum(n.f) AS s ORDER BY g"},
    {"anchor-update", "MATCH (a {id: 1}), (b {id: 2}) CREATE (a)-[:R {c: 3}]->(b)"},
    {"anchor-update", "OPTIONAL MATCH (n {id: 3}) SET n.tag = 7"},
    {"anchor-update", "OPTIONAL MATCH (n:New {id: 1999}) DETACH DELETE n"},
    {"anchor-update", "MERGE SAME (m:M {mid: 2, grp: 1})"},
    {"anchor-update", "MERGE ALL (:C {v: 1, grp: 0})"},
    {"anchor-update", "FOREACH (x IN range(0, 2) | MERGE SAME (:F2 {fx: x}))"},
    {"anchor-update", "MATCH ()-[r:S {c: 3}]->() DELETE r"},
};

TEST(RewriteFuzz, EquivalenceOracle) {
  const size_t reads = EnvCount("CYPHER_FUZZ_READ_CASES", 16);
  const size_t updates = EnvCount("CYPHER_FUZZ_UPDATE_CASES", 14);
  std::map<std::string, size_t> fired;
  size_t corpus = 0;
  bool keep_going = true;
  for (uint64_t gs = 0; gs < kGraphSeeds && keep_going; ++gs) {
    const PropertyGraph base = MakeGraph(gs);
    for (uint64_t qs = 0; qs < reads && keep_going; ++qs, ++corpus) {
      const uint64_t seed = gs * 1000 + qs;
      keep_going =
          RunOracle(base, "read", gs, seed, GenerateReadQuery(seed), &fired);
    }
    // The same workload mix the WAL crash sweep replays; the oracle checks
    // each statement independently against the un-aged base graph.
    const std::vector<std::string> workload =
        GenerateUpdateWorkload(gs + 100, updates);
    for (uint64_t qs = 0; qs < workload.size() && keep_going;
         ++qs, ++corpus) {
      keep_going = RunOracle(base, "update", gs, (gs + 100) * 977 + qs,
                             workload[qs], &fired);
    }
  }

  // Anchors run against a fresh graph and against one where the anchors
  // already applied once — so the MERGE rewrites exercise both their
  // match branch and their create branch deterministically.
  const PropertyGraph fresh = MakeGraph(0);
  GraphDatabase aged_db;
  aged_db.graph() = fresh;
  for (const AnchorCase& anchor : kAnchorCorpus) {
    if (std::string(anchor.kind) == "anchor-update") {
      ASSERT_TRUE(aged_db.Run(anchor.query).ok()) << anchor.query;
    }
  }
  const PropertyGraph aged = aged_db.graph();
  for (const AnchorCase& anchor : kAnchorCorpus) {
    if (!keep_going) break;
    ++corpus;
    keep_going = RunOracle(fresh, anchor.kind, 0, 0, anchor.query, &fired) &&
                 RunOracle(aged, anchor.kind, 0, 1, anchor.query, &fired);
  }

  EXPECT_GE(corpus, 200u)
      << "rewrite-fuzz corpus shrank to " << corpus
      << " seeds; the equivalence oracle needs breadth to mean anything";
  // Self-check: a rule whose applicability condition rots into never
  // matching is indistinguishable from a passing rule without this.
  for (const std::string& rule : RewriteRuleNames()) {
    EXPECT_GT(fired[rule], 0u)
        << "rewrite rule '" << rule << "' never fired over " << corpus
        << " corpus statements";
  }
}

// ---------------------------------------------------------------------------
// Streamed MATCH -> aggregate pass vs the materialized path
// ---------------------------------------------------------------------------

/// The with-star-insert variant of `query`, or "" when the rule does not
/// fire. Its `WITH *` barrier between the MATCH and the projection keeps
/// the pair out of the streamed pass, so the variant runs the materialized
/// path.
std::string WithStarVariant(const std::string& query) {
  for (const RewriteVariant& variant : GenerateRewrites(query)) {
    if (variant.rule == "with-star-insert") return variant.query;
  }
  return "";
}

/// `query` and its with-star-insert variant must render byte-identically
/// — row order and error text included — in both semantics and the
/// sequential and anchor-tile configurations.
void ExpectStreamedMatchesMaterialized(const PropertyGraph& base,
                                       const std::string& query,
                                       size_t max_rows = 0) {
  const std::string barrier = WithStarVariant(query);
  ASSERT_FALSE(barrier.empty()) << "with-star-insert did not fire: " << query;
  for (SemanticsMode semantics :
       {SemanticsMode::kLegacy, SemanticsMode::kRevised}) {
    for (size_t workers : kWorkerCounts) {
      const std::string want =
          RunCase(base, barrier, workers, semantics, max_rows);
      const std::string got =
          RunCase(base, query, workers, semantics, max_rows);
      if (got != want) {
        const std::string repro =
            ReproLine("streamed-vs-materialized", 0, 0, "with-star-insert",
                      semantics, workers, query);
        LogRepro(repro);
        ADD_FAILURE() << repro << "\n" << FirstDivergence(want, got);
      }
    }
  }
}

TEST(StreamedAggregate, GeneratedCasesMatchMaterializedPath) {
  size_t streamed = 0;
  size_t float_sums = 0;
  for (uint64_t gs = 0; gs < kGraphSeeds; ++gs) {
    const PropertyGraph base = MakeGraph(gs);
    for (uint64_t qs = 0; qs < 60; ++qs) {
      const std::string query = GenerateReadQuery(gs * 1000 + qs);
      const bool float_variant = query.find("sum(n.f)") != std::string::npos;
      if (!float_variant && query.find("AS cw") == std::string::npos) continue;
      ++streamed;
      ExpectStreamedMatchesMaterialized(base, query);
      if (float_variant) {
        // A float sum can only come from the rerun: the partials of the
        // streamed pass hold integer sums only.
        GraphDatabase db;
        db.graph() = base;
        auto result = db.Execute(query);
        ASSERT_TRUE(result.ok()) << query;
        for (const std::vector<Value>& row : result->rows) {
          if (row[2].is_float()) ++float_sums;
        }
      }
    }
  }
  EXPECT_GE(streamed, 20u) << "the generator stopped emitting streamed pairs";
  EXPECT_GT(float_sums, 0u) << "no generated sum() met a float";
}

// Hand-written edge cases: the empty match, a null group key, integer
// overflow in sum(), a float sum, the row budget, and WITH pairs.
TEST(StreamedAggregate, AnchorCasesMatchMaterializedPath) {
  GraphDatabase setup;
  ASSERT_TRUE(setup
                  .Run("CREATE (:G {id: 0, k: 1, w: 9223372036854775807}), "
                       "(:G {id: 1, k: 1, w: 1}), (:G {id: 2, w: 2}), "
                       "(:G {id: 3, k: 2, w: -3}), (:G {id: 4, k: 2, w: 4}), "
                       "(:H {id: 5, k: 1, w: 1.5}), (:H {id: 6, k: 1, w: 2})")
                  .ok());
  const PropertyGraph base = setup.graph();
  const struct {
    const char* query;
    size_t max_rows;
    const char* expect;  // a substring of the sequential rendering
  } cases[] = {
      {"MATCH (n:Nope) RETURN count(*) AS c, count(n.w) AS cw, "
       "sum(n.w) AS s, min(n.w) AS lo",
       0, "| 0 | 0  | 0 | null |"},
      {"MATCH (n:Nope) RETURN n.k AS g, count(*) AS c", 0, "0 rows"},
      {"MATCH (n:G) WHERE n.id > 0 RETURN n.k AS g, count(*) AS c, "
       "sum(n.w) AS s ORDER BY g",
       0, "| null | 1 | 2 |"},
      {"MATCH (n:G) RETURN n.k AS g, sum(n.w) AS s", 0,
       "integer overflow in sum()"},
      {"MATCH (n:H) RETURN n.k AS g, sum(n.w) AS s", 0, "3.5"},
      {"MATCH (n:G) RETURN count(*) AS c", 3, "row limit (3 records) after MATCH"},
      {"MATCH (n:G) RETURN n.id AS i, count(*) AS c", 5, "5 rows"},
      {"MATCH (n:G) WITH n.k AS g, max(n.id) AS hi WHERE hi > 1 "
       "RETURN g, hi ORDER BY g",
       0, "| 2    | 4  |"},
      {"MATCH (n:G) WITH n.k AS g, max(n.id) AS hi RETURN g, hi ORDER BY hi "
       "DESC LIMIT 2",
       0, "2 rows"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.query);
    EXPECT_NE(RunCase(base, c.query, 0, SemanticsMode::kRevised, c.max_rows)
                  .find(c.expect),
              std::string::npos)
        << RunCase(base, c.query, 0, SemanticsMode::kRevised, c.max_rows);
    ExpectStreamedMatchesMaterialized(base, c.query, c.max_rows);
  }

  // PROFILE reports the same per-clause cardinalities as the WITH * form,
  // whose extra barrier row is skipped.
  const std::string profiled =
      "MATCH (n:G) WHERE n.w >= 1 RETURN n.k AS g, count(*) AS c";
  for (SemanticsMode semantics :
       {SemanticsMode::kLegacy, SemanticsMode::kRevised}) {
    for (size_t workers : kWorkerCounts) {
      auto rows_out = [&](const std::string& query) {
        GraphDatabase db;
        db.graph() = base;
        db.options().semantics = semantics;
        db.options().parallel_workers = workers;
        db.options().parallel_min_cost = 1;
        auto result = db.Execute("PROFILE " + query);
        EXPECT_TRUE(result.ok()) << query;
        std::vector<std::pair<std::string, int64_t>> out;
        if (!result.ok()) return out;
        for (const std::vector<Value>& row : result->rows) {
          if (row[1].AsString() != "WITH *") {
            out.emplace_back(row[1].AsString(), row[2].AsInt());
          }
        }
        return out;
      };
      const auto streamed = rows_out(profiled);
      EXPECT_EQ(streamed, rows_out(WithStarVariant(profiled)));
      ASSERT_EQ(streamed.size(), 2u);
      EXPECT_EQ(streamed[0].second, 4);  // MATCH + WHERE
      EXPECT_EQ(streamed[1].second, 3);  // groups k = 1, k = 2 and null
    }
  }
}

// ---------------------------------------------------------------------------
// Plan-cache differential: interpreter vs cached execution
// ---------------------------------------------------------------------------

/// One statement on a copy of `base` with the plan cache off; returns the
/// canonical bag artifact (including the post-statement graph, so
/// rollback-on-error parity is covered too).
std::string RunInterpreterArtifact(const PropertyGraph& base,
                                   const std::string& query,
                                   const ValueMap& params,
                                   SemanticsMode semantics) {
  GraphDatabase db;
  db.graph() = base;
  db.options().semantics = semantics;
  db.options().use_plan_cache = false;
  auto result = db.Execute(query, params);
  return BagArtifact(db, result);
}

/// The artifacts of one statement run twice through the plan cache of a
/// long-lived database, each time on a fresh copy of `base`.
struct CachedArtifacts {
  /// The first run: a cache miss, or a shape hit when an earlier statement
  /// of the sweep had the same shape.
  std::string primed;
  /// The re-run: a raw hit on the entry the first run left.
  std::string warm;
};

/// The cache ages across the whole sweep, so the priming run covers cold
/// compiles and shape hits with literal replay, and the re-run covers raw
/// hits on stamped match slots.
CachedArtifacts RunCachedArtifacts(GraphDatabase* db, const PropertyGraph& base,
                                   const std::string& query,
                                   const ValueMap& params,
                                   SemanticsMode semantics) {
  db->options().semantics = semantics;
  db->options().use_plan_cache = true;
  CachedArtifacts artifacts;
  db->graph() = base;
  artifacts.primed = BagArtifact(*db, db->Execute(query, params));
  db->graph() = base;
  artifacts.warm = BagArtifact(*db, db->Execute(query, params));
  return artifacts;
}

/// Every generated statement must produce a byte-identical artifact on the
/// interpreter with the plan cache off and through the cache, both on the
/// priming run and on the warm re-run: caching may never change results,
/// stats, error text, or the graph.
TEST(PlanCacheDifferential, InterpreterVsCachedByteIdentical) {
  const size_t graphs = EnvCount("CYPHER_FUZZ_GRAPHS", 4);
  for (uint64_t gs = 0; gs < graphs; ++gs) {
    const PropertyGraph base = MakeGraph(gs);
    // Note: graph() assignment replaces the member wholesale but keeps the
    // plan cache; the stamp mechanism must notice the swap by statistics.
    GraphDatabase cached_db;
    for (uint64_t qs = 0; qs < kQueriesPerGraph; ++qs) {
      const uint64_t seed = gs * 1000 + qs;
      for (SemanticsMode semantics :
           {SemanticsMode::kRevised, SemanticsMode::kLegacy}) {
        for (const std::string& query :
             {GenerateReadQuery(seed), GenerateUpdateQuery(seed)}) {
          const std::string expected =
              RunInterpreterArtifact(base, query, {}, semantics);
          const CachedArtifacts cached =
              RunCachedArtifacts(&cached_db, base, query, {}, semantics);
          const struct {
            const char* kind;
            const std::string& got;
          } runs[] = {{"cache-primed", cached.primed},
                      {"cache-warm", cached.warm}};
          for (const auto& run : runs) {
            if (run.got != expected) {
              const std::string repro =
                  ReproLine(run.kind, gs, qs, "", semantics, 0, query);
              LogRepro(repro);
              FAIL() << repro << "\n" << FirstDivergence(expected, run.got);
            }
          }
        }
      }
    }
  }
}

/// The `$pN`-parametrized form of every generated statement must behave
/// exactly like its inline-literal sibling — interpreted and cached, on
/// the priming run and warm. This exercises user parameters flowing
/// through auto-parametrization, cache keying, and match-plan compilation
/// without value baking.
TEST(PlanCacheDifferential, ParametrizedMatchesInline) {
  const size_t graphs = EnvCount("CYPHER_FUZZ_GRAPHS", 4);
  for (uint64_t gs = 0; gs < graphs; ++gs) {
    const PropertyGraph base = MakeGraph(gs);
    GraphDatabase cached_db;
    for (uint64_t qs = 0; qs < kQueriesPerGraph; ++qs) {
      const uint64_t seed = gs * 1000 + qs;
      const GeneratedQuery cases[] = {GenerateReadQueryWithParams(seed),
                                      GenerateUpdateQueryWithParams(seed)};
      const std::string inline_cases[] = {GenerateReadQuery(seed),
                                          GenerateUpdateQuery(seed)};
      for (size_t c = 0; c < 2; ++c) {
        const std::string expected = RunInterpreterArtifact(
            base, inline_cases[c], {}, SemanticsMode::kRevised);
        const std::string interp = RunInterpreterArtifact(
            base, cases[c].text, cases[c].params, SemanticsMode::kRevised);
        const CachedArtifacts cached =
            RunCachedArtifacts(&cached_db, base, cases[c].text,
                               cases[c].params, SemanticsMode::kRevised);
        const struct {
          const char* kind;
          const std::string& got;
        } runs[] = {{"param-interp", interp},
                    {"param-primed", cached.primed},
                    {"param-warm", cached.warm}};
        for (const auto& run : runs) {
          if (run.got != expected) {
            const std::string repro =
                ReproLine(run.kind, gs, qs, "", SemanticsMode::kRevised, 0,
                          cases[c].text);
            LogRepro(repro);
            FAIL() << repro << "\n"
                   << "inline: " << inline_cases[c] << "\n"
                   << FirstDivergence(expected, run.got);
          }
        }
      }
    }
  }
}

// ---- Legacy dangling check -------------------------------------------------

/// The full-scan form of legacy's end-of-statement check: some alive
/// relationship has a dead endpoint.
bool DanglingByFullScan(const PropertyGraph& graph) {
  for (RelId r : graph.AllRels()) {
    const RelData& data = graph.rel(r);
    if (!graph.IsNodeAlive(data.src) || !graph.IsNodeAlive(data.tgt)) {
      return true;
    }
  }
  return false;
}

/// `query` with DETACH dropped, so its legacy DELETEs can leave
/// relationships dangling.
std::string WithoutDetach(std::string query) {
  for (size_t at = query.find("DETACH "); at != std::string::npos;
       at = query.find("DETACH ", at)) {
    query.erase(at, 7);
  }
  return query;
}

// The engine's check looks only at the nodes the statement deleted. It must
// agree with a scan of every relationship: at each statement's commit
// point over the update corpus (DETACH dropped, then kept) under legacy
// semantics, and after every step of random force deletes, relationship
// deletes and creates inside an open statement on the same graphs.
TEST(DifferentialTest, LegacyDanglingCheckMatchesFullScan) {
  EvalOptions legacy;
  legacy.semantics = SemanticsMode::kLegacy;
  size_t refused = 0;
  size_t dangling_steps = 0;
  size_t clean_steps = 0;
  for (uint64_t gs = 1; gs <= kGraphSeeds; ++gs) {
    GraphDatabase db;
    ASSERT_TRUE(BuildRandomGraph(&db, gs).ok());
    PropertyGraph& graph = db.graph();
    Symbol type = graph.InternType("R");
    SplitMix64 rng(gs);
    for (uint64_t qs = 0; qs < kQueriesPerGraph; ++qs) {
      const std::string update = GenerateUpdateQuery(gs * 1000 + qs);
      for (const std::string& text : {WithoutDetach(update), update}) {
        auto query = ParseQuery(text);
        ASSERT_TRUE(query.ok()) << text;
        CommitHook hook = [&](PropertyGraph::JournalMark mark) {
          EXPECT_FALSE(graph.HasDanglingRels(mark)) << text;
          EXPECT_FALSE(DanglingByFullScan(graph)) << text;
          return Status::OK();
        };
        auto result = ExecuteQuery(&graph, *query, {}, legacy, hook);
        if (!result.ok() &&
            result.status().message().find("without endpoints") !=
                std::string::npos) {
          ++refused;
        }
        ASSERT_FALSE(DanglingByFullScan(graph)) << text;
      }
      PropertyGraph::JournalMark mark = graph.BeginJournal();
      for (int step = 0; step < 8; ++step) {
        std::vector<NodeId> nodes = graph.AllNodes();
        std::vector<RelId> rels = graph.AllRels();
        uint64_t op = rng.NextBelow(3);
        if (op == 0 && !nodes.empty()) {
          graph.DeleteNodeForce(nodes[rng.NextBelow(nodes.size())]);
        } else if (op == 1 && !rels.empty()) {
          graph.DeleteRel(rels[rng.NextBelow(rels.size())]);
        } else if (nodes.size() >= 2) {
          NodeId src = nodes[rng.NextBelow(nodes.size())];
          NodeId tgt = nodes[rng.NextBelow(nodes.size())];
          ASSERT_TRUE(graph.CreateRel(src, tgt, type, {}).ok());
        }
        bool dangling = DanglingByFullScan(graph);
        ASSERT_EQ(graph.HasDanglingRels(mark), dangling)
            << "graph seed " << gs << ", query " << qs << ", step " << step;
        ++(dangling ? dangling_steps : clean_steps);
      }
      graph.RollbackTo(mark);
    }
  }
  // Both outcomes occur, at statement and at step level.
  EXPECT_GT(refused, 0u);
  EXPECT_GT(dangling_steps, 0u);
  EXPECT_GT(clean_steps, 0u);
}

}  // namespace
}  // namespace cypher::testing
