#ifndef CYPHER_EXEC_PARALLEL_H_
#define CYPHER_EXEC_PARALLEL_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ast/clause.h"
#include "common/result.h"
#include "eval/env.h"
#include "eval/evaluator.h"
#include "exec/options.h"
#include "match/matcher.h"
#include "table/table.h"

namespace cypher {

// Morsel-driven parallel execution of the read-only clause fragment.
//
// The paper's semantics ([[C]] : (G, T) -> (G', T')) fixes the driving
// table as an ordered bag, and the read fragment (MATCH / WHERE /
// projection / aggregation, and the match phase of revised MERGE) is
// side-effect-free — so it may fan out across threads as long as results
// are re-emitted in canonical order. Every function here guarantees the
// output is byte-identical to the sequential executor: morsels are merged
// in domain order, aggregate partials in morsel order, and the first error
// in task order is the first error the sequential walk would have hit.
// Updating clauses never go through this path.

/// Resolved fan-out decision for one clause execution.
struct ParallelPlan {
  size_t workers = 0;      // > 1 when the parallel path engages
  size_t morsel = 0;       // anchor positions (anchor mode) per task
  bool anchor_mode = false;  // split the first path's anchor-scan domain
                             // (few rows driving a large scan); otherwise
                             // contiguous row ranges are the tasks
  bool expand_mode = false;  // few rows, small anchor domain, but a costly
                             // var-length / BFS leg: rows run sequentially
                             // and the matcher fans each expansion frontier
                             // out instead (MatchOptions::expand_workers)
  size_t domain = 0;       // AnchorScanDomain, valid in anchor mode
};

/// Decides whether the per-record match loop for `compiled` over `num_rows`
/// driving records should fan out, using the compiled anchor cost as the
/// work estimate (options.parallel_min_cost is the threshold). nullopt =
/// run the sequential loop.
std::optional<ParallelPlan> PlanParallelMatch(const EvalOptions& options,
                                              const PropertyGraph& graph,
                                              const CompiledMatch& compiled,
                                              size_t num_rows);

/// EXPLAIN annotation: "parallel(workers=N, morsel=K)" when the options
/// would route this compiled match through the parallel path for a large
/// enough table, "" otherwise.
std::string DescribeParallelMatch(const EvalOptions& options,
                                  const CompiledMatch& compiled);

/// Runs the MATCH record loop — sequentially when `plan` is null, else
/// fanned out per `plan` — and appends the matched rows (input row +
/// `new_vars` columns) to `out`, byte-identical either way. `where` (may be
/// null) filters assignments; `optional_match` appends the null-extended
/// row for match-less records; `unmatched` (may be null) collects the
/// indices of match-less records in ascending order (revised MERGE's
/// failed list). A plan opens a PropertyGraph::ParallelReadScope for the
/// duration.
Status MatchRows(const EvalContext& ec, const MatchOptions& mopts,
                 const ParallelPlan* plan, const Table& input,
                 const CompiledMatch& compiled, const Expr* where,
                 const std::vector<std::string>& new_vars, bool optional_match,
                 std::vector<size_t>* unmatched, Table* out);

/// The anchor-domain tiles of an anchor-mode plan — the tasks StreamMatches
/// splits one record's enumeration into — else 1.
size_t AnchorTiles(const ParallelPlan* plan);

/// Streams the passing matches of the single record of `input` into
/// `emit(task, assignment)` instead of building rows. Tasks partition the
/// enumeration in order (every match of task t precedes those of task
/// t + 1); anchor tiles run concurrently, so `emit` may only touch
/// task-local state. Like MatchRows, the error returned is the lowest
/// failing task's — the one the sequential walk hits first.
Status StreamMatches(
    const EvalContext& ec, const MatchOptions& mopts, const ParallelPlan* plan,
    const Table& input, const CompiledMatch& compiled, const WhereEval& where,
    const std::function<Result<bool>(size_t, const MatchAssignment&)>& emit);

/// One projection item as the parallel executor sees it.
struct ProjItemView {
  const Expr* expr = nullptr;
  const std::string* alias = nullptr;
  bool has_agg = false;
};

/// Row-parallel evaluation of a non-aggregated projection: appends one
/// output row per input row to `out` (and its ORDER BY key vector to
/// `sort_keys` when non-null), byte-identical to the sequential loop.
/// Returns false without touching `out` when the parallel path does not
/// engage (options off, or the table is below parallel_min_cost rows).
Result<bool> TryParallelProject(const EvalContext& ec,
                                const EvalOptions& options, const Table& input,
                                const std::vector<ProjItemView>& items,
                                const std::vector<SortItem>& order_by,
                                Table* out,
                                std::vector<std::vector<Value>>* sort_keys);

/// Parallel implicit-grouping aggregation: workers build per-morsel partial
/// aggregates (count/sum/min/max/collect; DISTINCT via per-worker hash
/// sets) which are merged in morsel order, so group first-occurrence order,
/// collect() element order, DISTINCT first-occurrence order, integer-sum
/// overflow behavior and min/max tie-breaks all replicate the sequential
/// executor exactly. Item shapes outside the partial fragment (avg(),
/// float sums, aggregates nested in larger expressions) fall back to the
/// generic evaluator per group over the merged row lists — still parallel
/// across the scan, still byte-identical. Returns false without touching
/// `out` when the parallel path does not engage.
Result<bool> TryParallelAggregate(const EvalContext& ec,
                                  const EvalOptions& options,
                                  const Table& input,
                                  const std::vector<ProjItemView>& items,
                                  const std::vector<SortItem>& order_by,
                                  Table* out,
                                  std::vector<std::vector<Value>>* sort_keys);

}  // namespace cypher

#endif  // CYPHER_EXEC_PARALLEL_H_
