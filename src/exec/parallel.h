#ifndef CYPHER_EXEC_PARALLEL_H_
#define CYPHER_EXEC_PARALLEL_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "eval/env.h"
#include "eval/evaluator.h"
#include "exec/options.h"
#include "match/matcher.h"
#include "table/table.h"

namespace cypher {

// Anchor-tile fan-out of the MATCH enumeration.
//
// The paper's reading clauses treat the driving table as a bag and build
// each clause's output as a bag union over its input records, so the
// enumeration of one record may be split at its outermost choice point —
// the first path's label or all-nodes anchor scan — into ordered tiles and
// run across threads. Tile outputs are re-emitted in (record, tile) order,
// which replays the sequential (record, ascending anchor position) walk:
// the result is byte-identical to the sequential executor, and the first
// error in task order is the first error the sequential walk would have
// hit. Only MATCH, its WHERE, and the match phase of revised MERGE go
// through this path; projection, aggregation and updating clauses run
// sequentially.

/// Resolved fan-out decision for one clause execution: the first path's
/// anchor-scan domain split into `tiles` contiguous tiles of `morsel`
/// positions (the last one possibly shorter).
struct ParallelPlan {
  size_t workers = 0;  // > 1
  size_t domain = 0;   // AnchorScanDomain of the compiled match, >= 2
  size_t morsel = 0;   // anchor positions per tile
  size_t tiles = 0;    // ceil(domain / morsel)
};

/// Decides whether the per-record match loop for `compiled` over `num_rows`
/// driving records should fan out: more than one worker, estimated work
/// (records x anchor cost) at least options.parallel_min_cost, and a scan
/// anchor of at least two positions. The domain is cut into
/// min(domain, workers x 8) tiles. nullopt = run the sequential loop.
std::optional<ParallelPlan> PlanParallelMatch(const EvalOptions& options,
                                              const PropertyGraph& graph,
                                              const CompiledMatch& compiled,
                                              size_t num_rows);

/// EXPLAIN annotation: "parallel(workers=N)" when the options enable
/// fan-out and the first path anchors on a label or all-nodes scan (the
/// only anchors that split), "" otherwise.
std::string DescribeParallelMatch(const EvalOptions& options,
                                  const CompiledMatch& compiled);

/// Runs the MATCH record loop — sequentially when `plan` is null, else
/// fanned out over (record, anchor tile) tasks — and appends the matched
/// rows (input row + `new_vars` columns) to `out`, byte-identical either
/// way. `where` (may be null) filters assignments; `optional_match`
/// appends the null-extended row for match-less records; `unmatched` (may
/// be null) collects the indices of match-less records in ascending order
/// (revised MERGE's failed list). A plan opens a
/// PropertyGraph::ParallelReadScope for the duration.
Status MatchRows(const EvalContext& ec, const MatchOptions& mopts,
                 const ParallelPlan* plan, const Table& input,
                 const CompiledMatch& compiled, const Expr* where,
                 const std::vector<std::string>& new_vars, bool optional_match,
                 std::vector<size_t>* unmatched, Table* out);

/// Streams the passing matches of the single record of `input` into
/// `emit(task, assignment)` instead of building rows, with one task per
/// plan tile (one task without a plan). Tasks partition the enumeration in
/// order (every match of task t precedes those of task t + 1); anchor
/// tiles run concurrently, so `emit` may only touch task-local state. Like
/// MatchRows, the error returned is the lowest failing task's — the one the
/// sequential walk hits first.
Status StreamMatches(
    const EvalContext& ec, const MatchOptions& mopts, const ParallelPlan* plan,
    const Table& input, const CompiledMatch& compiled, const WhereEval& where,
    const std::function<Result<bool>(size_t, const MatchAssignment&)>& emit);

}  // namespace cypher

#endif  // CYPHER_EXEC_PARALLEL_H_
