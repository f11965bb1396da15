// Ablation bench (DESIGN.md design-choice): the (label, key) property index
// vs plain label scans for point lookups, joins, and MERGE match phases.
// Expected shape: indexed point lookups are O(1)-ish vs O(label size);
// results are identical (verified before timing).

#include "bench_util.h"
#include "value/compare.h"

namespace cypher {
namespace {

using bench::Banner;
using bench::Check;
using bench::Verdict;

GraphDatabase MakeDb(bool indexed, int64_t n, uint64_t seed) {
  GraphDatabase db;
  if (indexed) {
    (void)db.Run("CREATE INDEX ON :User(id)");
    (void)db.Run("CREATE INDEX ON :Product(id)");
  }
  (void)workload::LoadRandomMarketplace(&db, n, n / 2 + 1, n * 2, seed);
  return db;
}

int VerifyShapes() {
  Banner("Ablation: property index vs label scan (engineering)",
         "identical MATCH/MERGE results; point lookups go from O(|label|) "
         "to O(1) expected");
  Verdict verdict;
  GraphDatabase plain = MakeDb(false, 64, 9);
  GraphDatabase indexed = MakeDb(true, 64, 9);
  const char* probes[] = {
      "MATCH (u:User {id: 7}) RETURN count(u) AS c",
      "MATCH (u:User {id: 7})-[:ORDERED]->(p) RETURN count(p) AS c",
      "MATCH (p:Product {id: 3})<-[:ORDERED]-(u:User) RETURN count(u) AS c",
  };
  for (const char* probe : probes) {
    auto a = plain.Execute(probe);
    auto b = indexed.Execute(probe);
    bool same = a.ok() && b.ok() &&
                GroupEquals(a->rows[0][0], b->rows[0][0]);
    verdict.Note(Check(probe, "same", same ? "same" : "DIFFERENT"));
  }
  return verdict.Finish();
}

void BM_PointLookup(benchmark::State& state) {
  bool indexed = state.range(1) != 0;
  int64_t n = state.range(0);
  GraphDatabase db = MakeDb(indexed, n, 10);
  int64_t probe = 0;
  for (auto _ : state) {
    auto r = db.Execute("MATCH (u:User {id: $id}) RETURN count(u) AS c",
                        {{"id", Value::Int(1 + (probe++ % n))}});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(indexed ? "indexed" : "label-scan");
}
BENCHMARK(BM_PointLookup)
    ->ArgsProduct({{256, 2048, 8192}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// The same lookup on a snapshot read session: pinned plans seek the
// versioned index too, so `indexed` should stay O(1)-ish here as well.
void BM_PointLookupPinned(benchmark::State& state) {
  bool indexed = state.range(1) != 0;
  int64_t n = state.range(0);
  GraphDatabase db = MakeDb(indexed, n, 10);
  (void)db.EnableMvcc();
  auto session = db.BeginReadSession();
  if (!session.ok()) {
    state.SkipWithError(session.status().ToString().c_str());
    return;
  }
  int64_t probe = 0;
  for (auto _ : state) {
    auto r = session->Execute("MATCH (u:User {id: $id}) RETURN count(u) AS c",
                              {{"id", Value::Int(1 + (probe++ % n))}});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(indexed ? "indexed, pinned" : "label-scan, pinned");
}
BENCHMARK(BM_PointLookupPinned)
    ->ArgsProduct({{256, 2048, 8192}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_LookupJoin(benchmark::State& state) {
  bool indexed = state.range(1) != 0;
  int64_t n = state.range(0);
  GraphDatabase db = MakeDb(indexed, n, 11);
  ValueList ids;
  for (int64_t i = 1; i <= 64; ++i) ids.push_back(Value::Int(i % n + 1));
  Value id_list = Value::List(std::move(ids));
  for (auto _ : state) {
    auto r = db.Execute(
        "UNWIND $ids AS i MATCH (u:User {id: i})-[:ORDERED]->(p) "
        "RETURN count(p) AS c",
        {{"ids", id_list}});
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(indexed ? "indexed" : "label-scan");
}
BENCHMARK(BM_LookupJoin)
    ->ArgsProduct({{512, 4096}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_MergeMatchPhase(benchmark::State& state) {
  bool indexed = state.range(1) != 0;
  int64_t n = state.range(0);
  // Pre-populate with MERGE SAME, then re-merge: pure match-phase work.
  GraphDatabase db;
  if (indexed) {
    (void)db.Run("CREATE INDEX ON :User(id)");
    (void)db.Run("CREATE INDEX ON :Product(id)");
  }
  Value rows = workload::RandomOrderRows(n, n / 4 + 1, n / 4 + 1, 0, 12);
  {
    auto seeded = db.Execute(workload::Example5Query("MERGE SAME"),
                             {{"rows", rows}});
    if (!seeded.ok()) {
      state.SkipWithError(seeded.status().ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    auto r = db.Execute(workload::Example5Query("MERGE SAME"),
                        {{"rows", rows}});
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(indexed ? "indexed" : "label-scan");
}
BENCHMARK(BM_MergeMatchPhase)
    ->ArgsProduct({{256, 1024}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cypher

int main(int argc, char** argv) {
  int verdict = cypher::VerifyShapes();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return verdict;
}
