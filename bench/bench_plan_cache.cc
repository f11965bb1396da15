// Engineering bench: the parametrized plan cache over the interpreter —
// cold parse+compile per statement vs warm raw-key hits vs the cache off,
// across point lookups, projection chains, aggregation, and update
// round-trips. Warm hits are expected to be >= 2x faster than cold
// compiles on these statement shapes.

#include "bench_util.h"

namespace cypher {
namespace {

/// Each Args tuple selects a regime: 0 = cold (the cache is dropped every
/// iteration, so every statement pays parse + parametrize + compile),
/// 1 = warm (steady-state raw hits), 2 = interpreter (use_plan_cache off).
enum Regime { kCold = 0, kWarm = 1, kInterp = 2 };

const char* RegimeLabel(int64_t regime) {
  switch (regime) {
    case kCold:
      return "cold";
    case kWarm:
      return "warm";
    default:
      return "interpreter";
  }
}

EvalOptions RegimeOptions(int64_t regime) {
  EvalOptions options;
  options.use_plan_cache = regime != kInterp;
  return options;
}

void RunStatement(GraphDatabase* db, const std::string& query,
                  const ValueMap& params, const EvalOptions& options,
                  int64_t regime, benchmark::State& state) {
  for (auto _ : state) {
    if (regime == kCold) db->plan_cache().Clear();
    auto r = db->Execute(query, params, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(RegimeLabel(regime));
  state.SetItemsProcessed(state.iterations());
}

/// Indexed point lookup — the classic parametrized-statement hot path: the
/// cache skips parse + compile and the plan probes the index directly.
void BM_PointLookup(benchmark::State& state) {
  GraphDatabase db;
  (void)workload::LoadRandomMarketplace(&db, 1024, 128, 2048, 7);
  (void)db.Run("CREATE INDEX ON :User(id)");
  RunStatement(&db, "MATCH (u:User {id: 357}) RETURN u.id AS n", {},
               RegimeOptions(state.range(0)), state.range(0), state);
}
BENCHMARK(BM_PointLookup)
    ->Arg(kCold)->Arg(kWarm)->Arg(kInterp)
    ->Unit(benchmark::kMicrosecond);

/// WITH/WHERE arithmetic chain over a label scan: projection work per row
/// dominates, so warm and interpreter differ mainly by parse cost, while
/// the warm run also resolves each lifted literal as a `$#N` parameter per
/// row.
void BM_ProjectionChain(benchmark::State& state) {
  GraphDatabase db;
  (void)workload::LoadRandomMarketplace(&db, 512, 64, 1024, 11);
  RunStatement(&db,
               "MATCH (u:User) WITH u.id * 2 + 1 AS x, u "
               "WHERE x % 7 < 5 RETURN x + u.id AS y ORDER BY y LIMIT 32",
               {}, RegimeOptions(state.range(0)), state.range(0), state);
}
BENCHMARK(BM_ProjectionChain)
    ->Arg(kCold)->Arg(kWarm)->Arg(kInterp)
    ->Unit(benchmark::kMicrosecond);

/// UNWIND + grouped aggregation: no MATCH, so the cache saves only the
/// parse and this measures its dispatch overhead.
void BM_UnwindAggregate(benchmark::State& state) {
  GraphDatabase db;
  RunStatement(&db,
               "UNWIND range(0, 255) AS x "
               "RETURN x % 16 AS g, count(*) AS c, sum(x) AS s ORDER BY g",
               {}, RegimeOptions(state.range(0)), state.range(0), state);
}
BENCHMARK(BM_UnwindAggregate)
    ->Arg(kCold)->Arg(kWarm)->Arg(kInterp)
    ->Unit(benchmark::kMicrosecond);

/// Parametrized update round-trip (SET then reset): journal + rollback
/// machinery is shared, so the delta is parse/compile amortization.
void BM_UpdateRoundTrip(benchmark::State& state) {
  GraphDatabase db;
  (void)workload::LoadRandomMarketplace(&db, 256, 32, 512, 13);
  (void)db.Run("CREATE INDEX ON :User(id)");
  const EvalOptions options = RegimeOptions(state.range(0));
  const ValueMap params = {{"id", Value::Int(77)}};
  for (auto _ : state) {
    if (state.range(0) == kCold) db.plan_cache().Clear();
    auto r = db.Execute("MATCH (u:User {id: $id}) SET u.hits = u.id + 1",
                        params, options);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(RegimeLabel(state.range(0)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateRoundTrip)
    ->Arg(kCold)->Arg(kWarm)->Arg(kInterp)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cypher

int main(int argc, char** argv) {
  cypher::bench::Banner(
      "Engineering: parametrized plan cache over the interpreter",
      "warm cache hits skip parse/parametrize/compile and must be >= 2x "
      "faster than cold compiles on point lookups and projection chains");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
