#include "exec/parallel.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/cancel.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "eval/evaluator.h"
#include "exec/aggregate.h"
#include "value/compare.h"

namespace cypher {
namespace {

// ---- Task plumbing ----------------------------------------------------------

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

/// Row-range chunk size: the configured morsel, shrunk so every worker gets
/// several tasks (load balancing against skewed per-row match costs), never
/// below one row.
size_t RowChunk(const ParallelPlan& plan, size_t num_rows) {
  size_t spread = plan.workers * 8;
  size_t balanced = (num_rows + spread - 1) / spread;
  return std::max<size_t>(1, std::min(plan.morsel, balanced));
}

/// Anchor-domain tile `tile` of an anchor-mode plan.
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
template <typename Out>
void NoMatch(const Table& input, size_t r, size_t num_new_vars,
             bool optional_match, Out* out, std::vector<size_t>* unmatched) {
  if (optional_match) {
    std::vector<Value> row = input.row(r);
    row.resize(row.size() + num_new_vars);  // nulls
    Append(std::move(row), out);
  }
  if (unmatched != nullptr) unmatched->push_back(r);
}

}  // namespace

// ---- Planning ---------------------------------------------------------------

std::optional<ParallelPlan> PlanParallelMatch(const EvalOptions& options,
                                              const PropertyGraph& graph,
                                              const CompiledMatch& compiled,
                                              size_t num_rows) {
  if (options.parallel_workers <= 1) return std::nullopt;
  if (num_rows == 0 || compiled.impossible || compiled.paths.empty()) {
    return std::nullopt;
  }
  size_t anchor_cost = std::max<size_t>(1, compiled.paths.front().anchor.cost);
  // A var-length / BFS leg multiplies the per-start work; saturate rather
  // than overflow (both factors are already capped estimates).
  size_t work = num_rows * anchor_cost;
  if (compiled.expand_safe && compiled.expand_cost > 1) {
    constexpr size_t kWorkCap = std::numeric_limits<size_t>::max() / 2;
    work = work > kWorkCap / compiled.expand_cost
               ? kWorkCap
               : work * compiled.expand_cost;
  }
  if (work < options.parallel_min_cost) return std::nullopt;

  ParallelPlan plan;
  plan.workers = options.parallel_workers;
  plan.morsel = std::max<size_t>(1, options.parallel_morsel_size);
  // Plenty of driving records: contiguous row ranges saturate the workers
  // with no per-task anchor bookkeeping.
  if (num_rows >= plan.workers * 4) return plan;
  // Few records driving a big scan: splitting the anchor domain keeps every
  // worker busy when it yields at least a tile per worker.
  size_t domain = AnchorScanDomain(graph, compiled);
  if (domain >= plan.workers * plan.morsel) {
    plan.anchor_mode = true;
    plan.domain = domain;
    return plan;
  }
  // Few starts but an expensive expansion behind each: parallelism must
  // come from inside the walk — morsel-split the expansion frontier.
  if (compiled.expand_safe && compiled.expand_cost > 1) {
    plan.expand_mode = true;
    return plan;
  }
  // Mid-size scan domain: anchor tiles still beat nothing.
  if (domain > plan.morsel) {
    plan.anchor_mode = true;
    plan.domain = domain;
    return plan;
  }
  // Not a scan anchor (or a tiny one): row mode still helps when there are
  // at least two rows to split; a single cheap-anchored row stays sequential.
  if (num_rows >= 2) return plan;
  return std::nullopt;
}

std::string DescribeParallelMatch(const EvalOptions& options,
                                  const CompiledMatch& compiled) {
  if (options.parallel_workers <= 1) return "";
  if (compiled.impossible || compiled.paths.empty()) return "";
  std::string out =
      "parallel(workers=" + std::to_string(options.parallel_workers) +
      ", morsel=" +
      std::to_string(std::max<size_t>(1, options.parallel_morsel_size));
  if (compiled.expand_safe) out += ", expand";
  return out + ")";
}

// ---- MATCH record loop ------------------------------------------------------

Status MatchRows(const EvalContext& ec, const MatchOptions& mopts,
                 const ParallelPlan* plan, const Table& input,
                 const CompiledMatch& compiled, const Expr* where_expr,
                 const std::vector<std::string>& new_vars, bool optional_match,
                 std::vector<size_t>* unmatched, Table* out) {
  const size_t num_rows = input.num_rows();
  const WhereEval where(ec, input, where_expr);
  std::optional<PropertyGraph::ParallelReadScope> read_scope;
  if (plan != nullptr) read_scope.emplace(*ec.graph);

  if (plan == nullptr || plan->expand_mode) {
    // The sequential loop. In expand mode the matcher fans each var-length
    // walk / BFS level out across the pool instead (a per-task trail-state
    // arena merged in task-index order keeps emission order byte-identical),
    // so the sink, OPTIONAL null extension, and unmatched bookkeeping stay
    // the sequential loop's.
    MatchOptions loop_opts = mopts;
    if (plan != nullptr) loop_opts.expand_workers = plan->workers;
    for (size_t r = 0; r < num_rows; ++r) {
      CYPHER_ASSIGN_OR_RETURN(
          bool any, MatchOneRecord(ec, loop_opts, compiled, input, r, where,
                                   new_vars, nullptr, out));
      if (!any) {
        NoMatch(input, r, new_vars.size(), optional_match, out, unmatched);
      }
    }
    return Status::OK();
  }

  if (!plan->anchor_mode) {
    // Row mode: each task owns a contiguous row range and produces its
    // complete output chunk — including OPTIONAL null extensions and its
    // slice of the unmatched list — so the merge is pure concatenation in
    // task order.
    size_t chunk = RowChunk(*plan, num_rows);
    size_t tasks = (num_rows + chunk - 1) / chunk;
    struct RowTaskResult {
      std::vector<std::vector<Value>> rows;
      std::vector<size_t> unmatched;
    };
    std::vector<RowTaskResult> results(tasks);
    CYPHER_RETURN_NOT_OK(
        RunOrdered(tasks, plan->workers, [&](size_t task) -> Status {
          RowTaskResult& res = results[task];
          CancelGate gate(ec.cancel);
          size_t begin = task * chunk;
          size_t end = std::min(num_rows, begin + chunk);
          for (size_t r = begin; r < end; ++r) {
            CYPHER_RETURN_NOT_OK(gate.Check());
            CYPHER_ASSIGN_OR_RETURN(
                bool any, MatchOneRecord(ec, mopts, compiled, input, r, where,
                                         new_vars, nullptr, &res.rows));
            if (!any) {
              NoMatch(input, r, new_vars.size(), optional_match, &res.rows,
                      unmatched != nullptr ? &res.unmatched : nullptr);
            }
          }
          return Status::OK();
        }));
    for (RowTaskResult& res : results) {
      for (std::vector<Value>& row : res.rows) out->AddRow(std::move(row));
      if (unmatched != nullptr) {
        unmatched->insert(unmatched->end(), res.unmatched.begin(),
                          res.unmatched.end());
      }
    }
    return Status::OK();
  }

  // Anchor mode: tasks = driving rows x anchor-domain tiles, tile varying
  // fastest, so concatenating task outputs in task index order replays the
  // sequential (row, ascending anchor position) enumeration exactly.
  // Whether a record matched at all is only known once every tile reports,
  // so OPTIONAL null rows and the unmatched list are decided at the merge.
  size_t tiles = AnchorTiles(plan);
  size_t tasks = num_rows * tiles;
  struct TileResult {
    std::vector<std::vector<Value>> rows;
    bool any = false;
  };
  std::vector<TileResult> results(tasks);
  CYPHER_RETURN_NOT_OK(
      RunOrdered(tasks, plan->workers, [&](size_t task) -> Status {
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

size_t AnchorTiles(const ParallelPlan* plan) {
  if (plan == nullptr || !plan->anchor_mode) return 1;
  return (plan->domain + plan->morsel - 1) / plan->morsel;
}

Status StreamMatches(
    const EvalContext& ec, const MatchOptions& mopts, const ParallelPlan* plan,
    const Table& input, const CompiledMatch& compiled, const WhereEval& where,
    const std::function<Result<bool>(size_t, const MatchAssignment&)>& emit) {
  CYPHER_CHECK(input.num_rows() == 1);
  std::optional<PropertyGraph::ParallelReadScope> read_scope;
  if (plan != nullptr) read_scope.emplace(*ec.graph);
  if (plan == nullptr || !plan->anchor_mode) {
    // One record never takes row mode; expand mode fans out inside the walk.
    MatchOptions loop_opts = mopts;
    if (plan != nullptr && plan->expand_mode) {
      loop_opts.expand_workers = plan->workers;
    }
    return ForEachPassingMatch(
               ec, loop_opts, compiled, input, 0, where, nullptr,
               [&](const MatchAssignment& a) { return emit(0, a); })
        .status();
  }
  return RunOrdered(AnchorTiles(plan), plan->workers,
                    [&](size_t tile) -> Status {
                      CYPHER_RETURN_NOT_OK(CancelGate(ec.cancel).Check());
                      AnchorMorsel morsel = Tile(*plan, tile);
                      return ForEachPassingMatch(
                                 ec, mopts, compiled, input, 0, where, &morsel,
                                 [&](const MatchAssignment& a) {
                                   return emit(tile, a);
                                 })
                          .status();
                    });
}

// ---- Parallel projection ----------------------------------------------------

namespace {

/// ORDER BY key evaluation for one output row, replicating ExecProjection's
/// eval_sort_keys: projected aliases shadow the underlying record.
Result<std::vector<Value>> EvalSortKeys(const EvalContext& ec,
                                        const Bindings& base,
                                        const std::vector<ProjItemView>& items,
                                        const std::vector<Value>& out_row,
                                        const std::vector<SortItem>& order_by,
                                        const AggregateScope* scope) {
  Bindings sb = base;
  for (size_t i = 0; i < items.size(); ++i) {
    sb.Push(*items[i].alias, out_row[i]);
  }
  std::vector<Value> keys;
  keys.reserve(order_by.size());
  for (const SortItem& sort : order_by) {
    CYPHER_ASSIGN_OR_RETURN(Value v, Evaluate(ec, sb, *sort.expr, scope));
    keys.push_back(std::move(v));
  }
  return keys;
}

}  // namespace

Result<bool> TryParallelProject(const EvalContext& ec,
                                const EvalOptions& options, const Table& input,
                                const std::vector<ProjItemView>& items,
                                const std::vector<SortItem>& order_by,
                                Table* out,
                                std::vector<std::vector<Value>>* sort_keys) {
  const size_t num_rows = input.num_rows();
  if (options.parallel_workers <= 1 || num_rows < 2 ||
      num_rows < options.parallel_min_cost) {
    return false;
  }
  ParallelPlan plan;
  plan.workers = options.parallel_workers;
  plan.morsel = std::max<size_t>(1, options.parallel_morsel_size);

  // RowEval is immutable after construction; one shared set serves every
  // worker (the per-task state is just the output slot).
  std::vector<RowEval> fast;
  fast.reserve(items.size());
  for (const ProjItemView& item : items) {
    fast.emplace_back(ec, input, *item.expr);
  }

  // Results land in slots indexed by input row — placement by index, not by
  // thread, so the merged order is the sequential order by construction.
  std::vector<std::vector<Value>> rows(num_rows);
  std::vector<std::vector<Value>> keys(sort_keys != nullptr ? num_rows : 0);

  PropertyGraph::ParallelReadScope read_scope(*ec.graph);
  size_t chunk = RowChunk(plan, num_rows);
  size_t tasks = (num_rows + chunk - 1) / chunk;
  CYPHER_RETURN_NOT_OK(
      RunOrdered(tasks, plan.workers, [&](size_t task) -> Status {
        CancelGate gate(ec.cancel);
        size_t begin = task * chunk;
        size_t end = std::min(num_rows, begin + chunk);
        for (size_t r = begin; r < end; ++r) {
          CYPHER_RETURN_NOT_OK(gate.Check());
          std::vector<Value> row;
          row.reserve(items.size());
          for (const RowEval& item : fast) {
            CYPHER_ASSIGN_OR_RETURN(Value v, item.Eval(r));
            row.push_back(std::move(v));
          }
          if (sort_keys != nullptr) {
            CYPHER_ASSIGN_OR_RETURN(
                keys[r], EvalSortKeys(ec, Bindings(&input, r), items, row,
                                      order_by, nullptr));
          }
          rows[r] = std::move(row);
        }
        return Status::OK();
      }));
  for (size_t r = 0; r < num_rows; ++r) {
    out->AddRow(std::move(rows[r]));
    if (sort_keys != nullptr) sort_keys->push_back(std::move(keys[r]));
  }
  return true;
}

// ---- Parallel partial aggregation ------------------------------------------

Result<bool> TryParallelAggregate(const EvalContext& ec,
                                  const EvalOptions& options,
                                  const Table& input,
                                  const std::vector<ProjItemView>& items,
                                  const std::vector<SortItem>& order_by,
                                  Table* out,
                                  std::vector<std::vector<Value>>* sort_keys) {
  const size_t num_rows = input.num_rows();
  if (options.parallel_workers <= 1 || num_rows < 2 ||
      num_rows < options.parallel_min_cost) {
    return false;
  }
  ParallelPlan plan;
  plan.workers = options.parallel_workers;
  plan.morsel = std::max<size_t>(1, options.parallel_morsel_size);

  // Item classification and shared (immutable) per-row evaluators. Grouping
  // keys are the non-aggregate items, in item order, as ExecProjection does.
  std::vector<AggSpec> specs(items.size());
  std::vector<size_t> key_items;
  std::vector<RowEval> key_eval;
  std::vector<std::unique_ptr<RowEval>> arg_eval(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    if (!items[i].has_agg) {
      key_items.push_back(i);
      key_eval.emplace_back(ec, input, *items[i].expr);
      continue;
    }
    specs[i] = ClassifyAggregate(*items[i].expr);
    if (specs[i].arg != nullptr) {
      arg_eval[i] = std::make_unique<RowEval>(ec, input, *specs[i].arg);
    }
  }

  // Phase 1 (parallel): per-morsel grouping with partial aggregates.
  size_t chunk = RowChunk(plan, num_rows);
  size_t tasks = (num_rows + chunk - 1) / chunk;
  std::vector<GroupSet> task_groups(tasks);
  {
    PropertyGraph::ParallelReadScope read_scope(*ec.graph);
    CYPHER_RETURN_NOT_OK(
        RunOrdered(tasks, plan.workers, [&](size_t task) -> Status {
          GroupSet& gs = task_groups[task];
          CancelGate gate(ec.cancel);
          size_t begin = task * chunk;
          size_t end = std::min(num_rows, begin + chunk);
          std::vector<Value> key;
          for (size_t r = begin; r < end; ++r) {
            CYPHER_RETURN_NOT_OK(gate.Check());
            key.clear();
            for (const RowEval& ke : key_eval) {
              CYPHER_ASSIGN_OR_RETURN(Value v, ke.Eval(r));
              key.push_back(std::move(v));
            }
            size_t g = gs.Group(key, items.size());
            gs.rows[g].push_back(r);
            for (size_t i = 0; i < items.size(); ++i) {
              if (!items[i].has_agg) continue;
              UpdatePartial(specs[i], &gs.partials[g][i],
                            [&] { return arg_eval[i]->Eval(r); });
            }
          }
          return Status::OK();
        }));
  }

  // Phase 2 (sequential): merge task group sets in morsel order.
  GroupSet merged =
      MergeGroupSets(std::move(task_groups), specs, key_items.empty());

  // Phase 3 (sequential, tiny: one step per group): finalize in group
  // order. Fast partials materialize directly; everything else re-runs the
  // sequential evaluator over the merged row list, so values and errors
  // surface in the exact sequential (group, item) order.
  for (size_t gi = 0; gi < merged.keys.size(); ++gi) {
    const std::vector<size_t>& rows = merged.rows[gi];
    Bindings rep = rows.empty() ? Bindings() : Bindings(&input, rows.front());
    AggregateScope scope{&input, &rows};
    std::vector<Value> row(items.size());
    size_t key_slot = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      if (!items[i].has_agg) {
        row[i] = merged.keys[gi][key_slot++];
      } else if (specs[i].op != AggOp::kGeneric &&
                 !merged.partials[gi][i].fallback) {
        CYPHER_ASSIGN_OR_RETURN(
            row[i], FinalizePartial(specs[i], std::move(merged.partials[gi][i])));
      } else {
        CYPHER_ASSIGN_OR_RETURN(row[i],
                                Evaluate(ec, rep, *items[i].expr, &scope));
      }
    }
    if (sort_keys != nullptr) {
      CYPHER_ASSIGN_OR_RETURN(
          std::vector<Value> keys,
          EvalSortKeys(ec, rep, items, row, order_by, &scope));
      sort_keys->push_back(std::move(keys));
    }
    out->AddRow(std::move(row));
  }
  return true;
}

}  // namespace cypher
