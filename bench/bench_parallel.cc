// Engineering bench: anchor-tile parallel MATCH — the first path's label
// or all-nodes scan split into ordered tiles — swept over worker counts.
// workers=1 runs the sequential path (the regression baseline). Every
// statement drives one record, so all parallelism comes from the tiles;
// speedups require physical cores, and on a single core the interesting
// column is that workers>1 stays close to sequential (scheduling overhead
// only) while remaining byte-identical.

#include "bench_util.h"

namespace cypher {
namespace {

EvalOptions ParallelOptions(int64_t workers) {
  EvalOptions o;
  o.parallel_workers = static_cast<size_t>(workers);
  o.parallel_min_cost = 1;  // measure the machinery, not the heuristic
  return o;
}

std::string WorkerLabel(int64_t workers) {
  return "workers=" + std::to_string(workers);
}

/// One driving record fanning a big label scan into tiles, with a property
/// filter evaluated per candidate and a streamed count.
void BM_ParallelScan(benchmark::State& state) {
  GraphDatabase db;
  (void)workload::LoadRandomMarketplace(&db, state.range(0), 16, 0, 1);
  EvalOptions options = ParallelOptions(state.range(1));
  for (auto _ : state) {
    auto r = db.Execute(
        "MATCH (u:User) WHERE u.id % 7 <> 0 RETURN count(u) AS c", {},
        options);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(WorkerLabel(state.range(1)));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelScan)
    ->Args({4096, 1})->Args({4096, 2})->Args({4096, 4})->Args({4096, 8})
    ->Args({32768, 1})->Args({32768, 2})->Args({32768, 4})->Args({32768, 8})
    ->Unit(benchmark::kMicrosecond);

/// One driving record whose :User anchor scan splits into tiles; each tile
/// expands its users' two-hop joins.
void BM_ParallelTwoHop(benchmark::State& state) {
  GraphDatabase db;
  (void)workload::LoadRandomMarketplace(&db, state.range(0), state.range(0) / 4,
                                        state.range(0) * 2, 2);
  EvalOptions options = ParallelOptions(state.range(1));
  for (auto _ : state) {
    auto r = db.Execute(
        "MATCH (a:User)-[:ORDERED]->(p:Product)<-[:ORDERED]-(b:User) "
        "RETURN count(*) AS c",
        {}, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(WorkerLabel(state.range(1)));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelTwoHop)
    ->Args({256, 1})->Args({256, 2})->Args({256, 4})->Args({256, 8})
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})->Args({1024, 8})
    ->Unit(benchmark::kMicrosecond);

/// A streamed grouped aggregate: the :P anchor scan splits into tiles, and
/// each tile folds its matches into its own group table, merged in tile
/// order. `groups` distinct keys over 32,768 nodes, so every tile meets
/// (nearly) every group: the tiles x groups cost of the per-tile tables.
void BM_ParallelScanIntoTileGroups(benchmark::State& state) {
  GraphDatabase db;
  (void)db.Run("UNWIND range(0, 32767) AS i CREATE (:P {g: i % " +
               std::to_string(state.range(0)) + ", v: i % 100})");
  EvalOptions options = ParallelOptions(state.range(1));
  for (auto _ : state) {
    auto r = db.Execute(
        "MATCH (p:P) RETURN p.g AS g, count(*) AS n, sum(p.v) AS s, "
        "max(p.v) AS mx",
        {}, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(WorkerLabel(state.range(1)));
  state.SetItemsProcessed(state.iterations() * 32768);
}
BENCHMARK(BM_ParallelScanIntoTileGroups)
    ->Args({64, 1})->Args({64, 2})->Args({64, 4})
    ->Args({4096, 1})->Args({4096, 2})->Args({4096, 4})
    ->Unit(benchmark::kMicrosecond);

/// A tiled MATCH feeding a grouped count / sum / min / max / DISTINCT
/// projection. Only the anchor scan fans out: count(DISTINCT) keeps the
/// pair off the streamed pass, so the MATCH materializes its table and the
/// aggregation runs sequentially.
void BM_ParallelScanThenMaterializedAgg(benchmark::State& state) {
  GraphDatabase db;
  (void)workload::LoadRandomMarketplace(&db, state.range(0) / 8, 64,
                                        state.range(0), 3);
  EvalOptions options = ParallelOptions(state.range(1));
  for (auto _ : state) {
    auto r = db.Execute(
        "MATCH (u:User)-[:ORDERED]->(p:Product) "
        "RETURN u.id AS uid, count(*) AS n, sum(p.id) AS s, "
        "min(p.id) AS mn, max(p.id) AS mx, count(DISTINCT p.id) AS dp",
        {}, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(WorkerLabel(state.range(1)));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelScanThenMaterializedAgg)
    ->Args({4096, 1})->Args({4096, 2})->Args({4096, 4})->Args({4096, 8})
    ->Args({32768, 1})->Args({32768, 2})->Args({32768, 4})->Args({32768, 8})
    ->Unit(benchmark::kMicrosecond);

/// One start node found by scanning :User for `id: 1` (tiled), then a
/// var-length walk from it. Only the anchor scan fans out: the walk runs
/// on the one tile that holds the start.
void BM_ParallelScanThenVarLength(benchmark::State& state) {
  GraphDatabase db;
  (void)workload::LoadRandomMarketplace(&db, state.range(0), state.range(0) / 4,
                                        state.range(0) * 2, 5);
  EvalOptions options = ParallelOptions(state.range(1));
  for (auto _ : state) {
    auto r = db.Execute(
        "MATCH (u:User {id: 1})-[:ORDERED*1..3]-(x) "
        "RETURN count(*) AS c, min(x.id) AS lo",
        {}, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(WorkerLabel(state.range(1)));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelScanThenVarLength)
    ->Args({256, 1})->Args({256, 2})->Args({256, 4})->Args({256, 8})
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})->Args({1024, 8})
    ->Unit(benchmark::kMicrosecond);

/// shortestPath over a dense graph. Only the anchor scan of the first
/// MATCH fans out (its endpoint scans split into tiles); the BFS of the
/// second MATCH runs on one thread, because its anchor is bound.
void BM_ParallelScanThenBFS(benchmark::State& state) {
  GraphDatabase db;
  (void)workload::LoadRandomMarketplace(&db, state.range(0), state.range(0) / 2,
                                        state.range(0) * 4, 11);
  EvalOptions options = ParallelOptions(state.range(1));
  for (auto _ : state) {
    auto r = db.Execute(
        "MATCH (a:User {id: 1}), (b:User {id: " +
            std::to_string(state.range(0) - 2) +
            "}) OPTIONAL MATCH p = shortestPath((a)-[*]-(b)) "
            "RETURN length(p) AS len",
        {}, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(WorkerLabel(state.range(1)));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelScanThenBFS)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})->Args({1024, 8})
    ->Args({8192, 1})->Args({8192, 2})->Args({8192, 4})->Args({8192, 8})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cypher

BENCHMARK_MAIN();
