#include "exec/parallel.h"

#include <algorithm>
#include <utility>

#include "common/cancel.h"
#include "common/check.h"
#include "common/thread_pool.h"

namespace cypher {
namespace {

// ---- Task plumbing ----------------------------------------------------------

/// Tiles per worker: enough that a tile with a dense neighbourhood does not
/// leave the other workers idle at the end of the region.
constexpr size_t kTilesPerWorker = 8;

/// Runs `fn(0) .. fn(num_tasks - 1)` on the shared pool and returns the
/// error of the LOWEST failing task — the error the sequential walk would
/// hit first, because tasks partition the sequential enumeration in order
/// and the read fragment is side-effect-free (a later task's error cannot
/// have been caused by an earlier task's work).
Status RunOrdered(size_t num_tasks, size_t workers,
                  const std::function<Status(size_t)>& fn) {
  std::vector<Status> status(num_tasks);  // default OK
  ThreadPool::Shared().Run(num_tasks, workers,
                           [&](size_t task) { status[task] = fn(task); });
  for (Status& st : status) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

/// Anchor-domain tile `tile` of `plan`.
AnchorMorsel Tile(const ParallelPlan& plan, size_t tile) {
  return {tile * plan.morsel, std::min(plan.domain, (tile + 1) * plan.morsel)};
}

// ---- Shared per-record match body ------------------------------------------

/// The per-record MATCH body every executor shares: enumerates the matches
/// of `compiled` for driving record `r` of `input` (restricted to `morsel`
/// when non-null), keeps those `where` accepts, and hands each to
/// `emit(assignment) -> Result<bool>` (false stops). Returns whether any
/// match passed.
template <typename Emit>
Result<bool> ForEachPassingMatch(const EvalContext& ec,
                                 const MatchOptions& mopts,
                                 const CompiledMatch& compiled,
                                 const Table& input, size_t r,
                                 const WhereEval& where,
                                 const AnchorMorsel* morsel, const Emit& emit) {
  Bindings bindings(&input, r);
  bool any = false;
  MatchSink sink = [&](const MatchAssignment& assignment) -> Result<bool> {
    CYPHER_ASSIGN_OR_RETURN(Tri pass, where.Eval(r, assignment));
    if (pass != Tri::kTrue) return true;  // keep enumerating
    any = true;
    return emit(assignment);
  };
  Status st = morsel != nullptr
                  ? MatchCompiledMorsel(ec, bindings, compiled, mopts, *morsel,
                                        sink)
                  : MatchCompiled(ec, bindings, compiled, mopts, sink);
  CYPHER_RETURN_NOT_OK(st);
  return any;
}

void Append(std::vector<Value> row, Table* out) { out->AddRow(std::move(row)); }
void Append(std::vector<Value> row, std::vector<std::vector<Value>>* out) {
  out->push_back(std::move(row));
}

/// Appends record `r`'s output rows — the input row extended by the
/// `new_vars` values of each passing match — to `out` (a Table or a task's
/// row buffer).
template <typename Out>
Result<bool> MatchOneRecord(const EvalContext& ec, const MatchOptions& mopts,
                            const CompiledMatch& compiled, const Table& input,
                            size_t r, const WhereEval& where,
                            const std::vector<std::string>& new_vars,
                            const AnchorMorsel* morsel, Out* out) {
  return ForEachPassingMatch(
      ec, mopts, compiled, input, r, where, morsel,
      [&](const MatchAssignment& assignment) -> Result<bool> {
        const std::vector<Value>& base = input.row(r);
        std::vector<Value> row;
        row.reserve(base.size() + new_vars.size());
        row.insert(row.end(), base.begin(), base.end());
        for (const std::string& var : new_vars) {
          const Value* v = assignment.Find(var);
          CYPHER_CHECK(v != nullptr && "pattern variable not assigned");
          row.push_back(*v);
        }
        Append(std::move(row), out);
        return true;
      });
}

/// What a match-less record `r` leaves behind: OPTIONAL MATCH's
/// null-extended row, and its index in the unmatched list (when kept).
void NoMatch(const Table& input, size_t r, size_t num_new_vars,
             bool optional_match, Table* out, std::vector<size_t>* unmatched) {
  if (optional_match) {
    std::vector<Value> row = input.row(r);
    row.resize(row.size() + num_new_vars);  // nulls
    out->AddRow(std::move(row));
  }
  if (unmatched != nullptr) unmatched->push_back(r);
}

}  // namespace

// ---- Planning ---------------------------------------------------------------

std::optional<ParallelPlan> PlanParallelMatch(const EvalOptions& options,
                                              const PropertyGraph& graph,
                                              const CompiledMatch& compiled,
                                              size_t num_rows) {
  if (options.parallel_workers <= 1 || num_rows == 0) return std::nullopt;
  // 0 unless the first path anchors on a scan (and the match is possible).
  size_t domain = AnchorScanDomain(graph, compiled);
  if (domain < 2) return std::nullopt;
  size_t anchor_cost = std::max<size_t>(1, compiled.paths.front().anchor.cost);
  if (num_rows * anchor_cost < options.parallel_min_cost) return std::nullopt;

  ParallelPlan plan;
  plan.workers = options.parallel_workers;
  plan.domain = domain;
  // min(domain, workers x 8), without overflowing on a huge worker count.
  size_t tiles = plan.workers > domain / kTilesPerWorker
                     ? domain
                     : plan.workers * kTilesPerWorker;
  plan.morsel = (domain + tiles - 1) / tiles;
  plan.tiles = (domain + plan.morsel - 1) / plan.morsel;
  return plan;
}

std::string DescribeParallelMatch(const EvalOptions& options,
                                  const CompiledMatch& compiled) {
  if (options.parallel_workers <= 1) return "";
  if (compiled.impossible || compiled.paths.empty()) return "";
  AnchorKind kind = compiled.paths.front().anchor.kind;
  if (kind != AnchorKind::kLabelScan && kind != AnchorKind::kAllScan) {
    return "";
  }
  return "parallel(workers=" + std::to_string(options.parallel_workers) + ")";
}

// ---- MATCH record loop ------------------------------------------------------

Status MatchRows(const EvalContext& ec, const MatchOptions& mopts,
                 const ParallelPlan* plan, const Table& input,
                 const CompiledMatch& compiled, const Expr* where_expr,
                 const std::vector<std::string>& new_vars, bool optional_match,
                 std::vector<size_t>* unmatched, Table* out) {
  const size_t num_rows = input.num_rows();
  const WhereEval where(ec, input, where_expr);

  if (plan == nullptr) {
    for (size_t r = 0; r < num_rows; ++r) {
      CYPHER_ASSIGN_OR_RETURN(
          bool any, MatchOneRecord(ec, mopts, compiled, input, r, where,
                                   new_vars, nullptr, out));
      if (!any) {
        NoMatch(input, r, new_vars.size(), optional_match, out, unmatched);
      }
    }
    return Status::OK();
  }

  // Tasks = driving rows x anchor tiles, tile varying fastest, so
  // concatenating task outputs in task index order replays the sequential
  // (row, ascending anchor position) enumeration exactly. Whether a record
  // matched at all is only known once every tile reports, so OPTIONAL null
  // rows and the unmatched list are decided at the merge.
  PropertyGraph::ParallelReadScope read_scope(*ec.graph);
  const size_t tiles = plan->tiles;
  struct TileResult {
    std::vector<std::vector<Value>> rows;
    bool any = false;
  };
  std::vector<TileResult> results(num_rows * tiles);
  CYPHER_RETURN_NOT_OK(
      RunOrdered(results.size(), plan->workers, [&](size_t task) -> Status {
        TileResult& res = results[task];
        CYPHER_RETURN_NOT_OK(CancelGate(ec.cancel).Check());
        size_t r = task / tiles;
        AnchorMorsel morsel = Tile(*plan, task % tiles);
        CYPHER_ASSIGN_OR_RETURN(
            res.any, MatchOneRecord(ec, mopts, compiled, input, r, where,
                                    new_vars, &morsel, &res.rows));
        return Status::OK();
      }));
  for (size_t r = 0; r < num_rows; ++r) {
    bool any = false;
    for (size_t tile = 0; tile < tiles; ++tile) {
      TileResult& res = results[r * tiles + tile];
      any |= res.any;
      for (std::vector<Value>& row : res.rows) out->AddRow(std::move(row));
    }
    if (!any) {
      NoMatch(input, r, new_vars.size(), optional_match, out, unmatched);
    }
  }
  return Status::OK();
}

Status StreamMatches(
    const EvalContext& ec, const MatchOptions& mopts, const ParallelPlan* plan,
    const Table& input, const CompiledMatch& compiled, const WhereEval& where,
    const std::function<Result<bool>(size_t, const MatchAssignment&)>& emit) {
  CYPHER_CHECK(input.num_rows() == 1);
  if (plan == nullptr) {
    return ForEachPassingMatch(
               ec, mopts, compiled, input, 0, where, nullptr,
               [&](const MatchAssignment& a) { return emit(0, a); })
        .status();
  }
  PropertyGraph::ParallelReadScope read_scope(*ec.graph);
  return RunOrdered(plan->tiles, plan->workers, [&](size_t tile) -> Status {
    CYPHER_RETURN_NOT_OK(CancelGate(ec.cancel).Check());
    AnchorMorsel morsel = Tile(*plan, tile);
    return ForEachPassingMatch(
               ec, mopts, compiled, input, 0, where, &morsel,
               [&](const MatchAssignment& a) { return emit(tile, a); })
        .status();
  });
}

}  // namespace cypher
