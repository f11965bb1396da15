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

/// A tiled MATCH feeding a grouped count / sum / min / max / DISTINCT
/// projection. count(DISTINCT) keeps the pair off the streamed pass, so the
/// MATCH materializes its table and the aggregation runs sequentially.
void BM_ParallelAggregation(benchmark::State& state) {
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
BENCHMARK(BM_ParallelAggregation)
    ->Args({4096, 1})->Args({4096, 2})->Args({4096, 4})->Args({4096, 8})
    ->Args({32768, 1})->Args({32768, 2})->Args({32768, 4})->Args({32768, 8})
    ->Unit(benchmark::kMicrosecond);

/// One start node found by scanning :User for `id: 1` (tiled), then a
/// var-length walk from it: the walk runs on the one tile that holds the
/// start, so workers>1 can only split the scan.
void BM_ParallelVarLength(benchmark::State& state) {
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
BENCHMARK(BM_ParallelVarLength)
    ->Args({256, 1})->Args({256, 2})->Args({256, 4})->Args({256, 8})
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})->Args({1024, 8})
    ->Unit(benchmark::kMicrosecond);

/// shortestPath over a dense graph: the two endpoint scans of the first
/// MATCH split into tiles, and the BFS of the second MATCH runs on one
/// thread (its anchor is bound).
void BM_ParallelBFS(benchmark::State& state) {
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
BENCHMARK(BM_ParallelBFS)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})->Args({1024, 8})
    ->Args({8192, 1})->Args({8192, 2})->Args({8192, 4})->Args({8192, 8})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cypher

BENCHMARK_MAIN();
