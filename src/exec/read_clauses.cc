#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/read_pin.h"
#include "eval/evaluator.h"
#include "exec/clauses.h"
#include "exec/match_slots.h"
#include "exec/parallel.h"

namespace cypher {

// ---- MATCH / OPTIONAL MATCH ---------------------------------------------

PlanStamp TakeStamp(const PropertyGraph& graph) {
  PlanStamp stamp;
  stamp.num_label_symbols = graph.num_label_symbols();
  stamp.num_type_symbols = graph.num_type_symbols();
  stamp.num_key_symbols = graph.num_key_symbols();
  stamp.index_epoch = graph.index_epoch();
  stamp.num_nodes = graph.num_nodes();
  stamp.num_rels = graph.num_rels();
  // FNV-1a over every per-label cardinality (symbols are dense), so any
  // label-count shift — the input to anchor selection and chain reversal —
  // changes the stamp even when the totals happen to cancel out.
  uint64_t h = 1469598103934665603ULL;
  for (size_t label = 0; label < stamp.num_label_symbols; ++label) {
    h ^= static_cast<uint64_t>(graph.LabelCount(static_cast<Symbol>(label)));
    h *= 1099511628211ULL;
  }
  stamp.label_counts_hash = h;
  return stamp;
}

namespace {

/// The fresh variables a MATCH introduces on top of `table`'s columns, in
/// first-occurrence order (consistent across records of one table).
std::vector<std::string> MatchNewVars(const MatchClause& clause,
                                      const Table& table) {
  std::vector<std::string> new_vars;
  for (const PathPattern& pattern : clause.patterns) {
    for (const std::string& var : PatternVariables(pattern)) {
      if (table.HasColumn(var)) continue;
      if (std::find(new_vars.begin(), new_vars.end(), var) == new_vars.end()) {
        new_vars.push_back(var);
      }
    }
  }
  return new_vars;
}

/// Runs `compiled` for every record of `*table` (fanning out through the
/// morsel pool when the planner says so), applies the clause's WHERE and
/// OPTIONAL null-padding, and replaces `*table` with the joined output.
Status ExecMatchCompiled(ExecContext* ctx, const MatchClause& clause,
                         const CompiledMatch& compiled,
                         const std::vector<std::string>& new_vars,
                         Table* table) {
  Table out = Table::WithColumns(table->columns());
  for (const std::string& var : new_vars) out.AddColumn(var);
  EvalContext ec = ctx->Eval();
  if (std::optional<ParallelPlan> plan = PlanParallelMatch(
          ctx->options, *ec.graph, compiled, table->num_rows())) {
    CYPHER_RETURN_NOT_OK(ParallelMatchRows(
        ec, ctx->Match(), *plan, *table, compiled, clause.where.get(),
        new_vars, clause.optional, /*unmatched=*/nullptr, &out));
    *table = std::move(out);
    return Status::OK();
  }
  for (size_t r = 0; r < table->num_rows(); ++r) {
    Bindings bindings(table, r);
    bool any = false;
    Status st = MatchCompiled(
        ec, bindings, compiled, ctx->Match(),
        [&](const MatchAssignment& assignment) -> Result<bool> {
          if (clause.where != nullptr) {
            Bindings wb = bindings;
            for (const auto& [name, value] : assignment.entries()) {
              wb.Push(name, value);
            }
            CYPHER_ASSIGN_OR_RETURN(Tri pass,
                                    EvaluatePredicate(ec, wb, *clause.where));
            if (pass != Tri::kTrue) return true;  // keep enumerating
          }
          const std::vector<Value>& base = table->row(r);
          std::vector<Value> row;
          row.reserve(base.size() + new_vars.size());
          row.insert(row.end(), base.begin(), base.end());
          for (const std::string& var : new_vars) {
            const Value* v = assignment.Find(var);
            CYPHER_CHECK(v != nullptr && "pattern variable not assigned");
            row.push_back(*v);
          }
          out.AddRow(std::move(row));
          any = true;
          return true;
        });
    CYPHER_RETURN_NOT_OK(st);
    if (clause.optional && !any) {
      std::vector<Value> row = table->row(r);
      row.resize(row.size() + new_vars.size());  // nulls
      out.AddRow(std::move(row));
    }
  }
  *table = std::move(out);
  return Status::OK();
}

/// The plan in `slot`, recompiled first unless its stamp still matches the
/// graph. The compile context carries no parameters — constant folding
/// only ever folds literal/parameter subtrees, and a failed `$#N` fold
/// stays a lazy filter evaluated with the session's real parameters at
/// match time, so the cached plan has the same anchors, orientation, and
/// emission order as a params-in-hand compile. Hints stay at the default
/// num_rows=1: below kTransientIndexMinRows the hint changes nothing else.
std::shared_ptr<const CompiledMatch> SlotPlan(const ExecContext& ctx,
                                              const MatchSlot& slot,
                                              const Table& table) {
  EvalContext ec = ctx.Eval();
  std::lock_guard<std::mutex> lock(slot.mu);
  PlanStamp stamp = TakeStamp(*ec.graph);
  if (ec.read_pin != nullptr) stamp.pinned_epoch = ec.read_pin->epoch + 1;
  if (slot.plan == nullptr || !(slot.stamp == stamp)) {
    EvalContext compile_ec{ec.graph, nullptr, ctx.options.match_mode,
                           &ctx.options.cancel, ec.read_pin};
    slot.plan = std::make_shared<const CompiledMatch>(
        CompileMatch(compile_ec, Bindings(&table, 0), slot.clause->patterns));
    slot.stamp = stamp;
  }
  return slot.plan;
}

}  // namespace

Status ExecMatch(ExecContext* ctx, const MatchClause& clause, Table* table) {
  // Fresh variables this MATCH introduces (consistent across records).
  std::vector<std::string> new_vars = MatchNewVars(clause, *table);
  size_t rows = table->num_rows();
  if (rows == 0) {
    // Still introduces the new (empty) columns.
    Table out = Table::WithColumns(table->columns());
    for (const std::string& var : new_vars) out.AddColumn(var);
    *table = std::move(out);
    return Status::OK();
  }
  // A cached statement reuses its stamped plan for small tables (the hot
  // parametrized-statement case). From kTransientIndexMinRows rows on the
  // compile may plan a transient hash index, which bakes live NodeIds and
  // is never cacheable, so those compile fresh like an uncached clause.
  const MatchSlot* slot = ctx->match_slots == nullptr
                              ? nullptr
                              : ctx->match_slots->Find(clause);
  if (slot != nullptr && rows < kTransientIndexMinRows) {
    std::shared_ptr<const CompiledMatch> plan = SlotPlan(*ctx, *slot, *table);
    return ExecMatchCompiled(ctx, clause, *plan, new_vars, table);
  }
  // Compile once per clause: boundness and interned symbols are identical
  // across records of one table; only row values differ (memoized per
  // record inside the engine).
  CompiledMatch compiled = CompileMatch(ctx->Eval(), Bindings(table, 0),
                                        clause.patterns, {.num_rows = rows});
  return ExecMatchCompiled(ctx, clause, compiled, new_vars, table);
}

// ---- UNWIND ---------------------------------------------------------------

Status ExecUnwind(ExecContext* ctx, const UnwindClause& clause, Table* table) {
  if (table->HasColumn(clause.variable)) {
    return Status::SemanticError("variable '" + clause.variable +
                                 "' is already bound");
  }
  Table out = Table::WithColumns(table->columns());
  out.AddColumn(clause.variable);
  EvalContext ec = ctx->Eval();
  for (size_t r = 0; r < table->num_rows(); ++r) {
    Bindings bindings(table, r);
    CYPHER_ASSIGN_OR_RETURN(Value list, Evaluate(ec, bindings, *clause.list));
    if (list.is_null()) continue;  // UNWIND null -> no rows
    if (list.is_list()) {
      for (const Value& element : list.AsList()) {
        std::vector<Value> row = table->row(r);
        row.push_back(element);
        out.AddRow(std::move(row));
      }
    } else {
      std::vector<Value> row = table->row(r);
      row.push_back(std::move(list));
      out.AddRow(std::move(row));
    }
  }
  *table = std::move(out);
  return Status::OK();
}

// ---- WITH / RETURN ----------------------------------------------------------

namespace {

struct ProjItem {
  const Expr* expr;
  std::string alias;
  bool has_agg;
};

/// Lexicographic comparison of sort-key vectors with per-key direction.
struct SortKeyLess {
  const std::vector<bool>* ascending;
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      int cmp = TotalOrderCompare(a[i], b[i]);
      if (cmp != 0) return (*ascending)[i] ? cmp < 0 : cmp > 0;
    }
    return false;
  }
};

}  // namespace

Result<int64_t> EvalRowCount(const EvalContext& ec, const Expr& expr,
                             const char* what) {
  Bindings empty;
  CYPHER_ASSIGN_OR_RETURN(Value v, Evaluate(ec, empty, expr));
  if (!v.is_int() || v.AsInt() < 0) {
    return Status::ExecutionError(std::string(what) +
                                  " expects a non-negative integer");
  }
  return v.AsInt();
}

Status ExecProjection(ExecContext* ctx, const ProjectionBody& body,
                      const Expr* where, Table* table) {
  EvalContext ec = ctx->Eval();

  // Assemble the item list; `*` expands to all existing columns first.
  std::vector<ExprPtr> synthesized;
  std::vector<ProjItem> items;
  if (body.include_existing) {
    for (const std::string& column : table->columns()) {
      synthesized.push_back(std::make_unique<VariableExpr>(column));
      items.push_back({synthesized.back().get(), column, false});
    }
  }
  for (const ReturnItem& item : body.items) {
    items.push_back({item.expr.get(), item.alias, ContainsAggregate(*item.expr)});
  }
  if (items.empty()) {
    return Status::SemanticError("projection requires at least one item");
  }
  {
    std::unordered_set<std::string> seen;
    for (const ProjItem& item : items) {
      if (!seen.insert(item.alias).second) {
        return Status::SemanticError("duplicate projection alias: " +
                                     item.alias);
      }
    }
  }
  bool aggregated = false;
  for (const ProjItem& item : items) aggregated |= item.has_agg;
  for (const SortItem& sort : body.order_by) {
    aggregated |= ContainsAggregate(*sort.expr);
  }

  std::vector<std::string> aliases;
  aliases.reserve(items.size());
  for (const ProjItem& item : items) aliases.push_back(item.alias);
  Table out = Table::WithColumns(aliases);

  bool has_order = !body.order_by.empty();
  std::vector<std::vector<Value>> sort_keys;

  // Evaluates ORDER BY keys for one output row: projected aliases shadow
  // the underlying record's variables.
  auto eval_sort_keys =
      [&](const Bindings& base, const std::vector<Value>& out_row,
          const AggregateScope* scope) -> Result<std::vector<Value>> {
    Bindings sb = base;
    for (size_t i = 0; i < items.size(); ++i) {
      sb.Push(items[i].alias, out_row[i]);
    }
    std::vector<Value> keys;
    keys.reserve(body.order_by.size());
    for (const SortItem& sort : body.order_by) {
      CYPHER_ASSIGN_OR_RETURN(Value v, Evaluate(ec, sb, *sort.expr, scope));
      keys.push_back(std::move(v));
    }
    return keys;
  };

  // The per-row (and per-group partial) work below is read-only, so large
  // tables fan out across the morsel pool; the sequential loops remain both
  // the semantics reference and the small-table path.
  std::vector<ProjItemView> item_views;
  item_views.reserve(items.size());
  for (const ProjItem& item : items) {
    item_views.push_back({item.expr, &item.alias, item.has_agg});
  }

  bool parallel_done = false;
  if (!aggregated) {
    CYPHER_ASSIGN_OR_RETURN(
        parallel_done,
        TryParallelProject(ec, ctx->options, *table, item_views, body.order_by,
                           &out, has_order ? &sort_keys : nullptr));
  } else {
    CYPHER_ASSIGN_OR_RETURN(
        parallel_done,
        TryParallelAggregate(ec, ctx->options, *table, item_views,
                             body.order_by, &out,
                             has_order ? &sort_keys : nullptr));
  }
  if (parallel_done) {
    // Rows (and aligned sort keys) are already in `out`, byte-identical to
    // the sequential loops below.
  } else if (!aggregated) {
    // Hoist name resolution out of the row loop (RowEval falls back to the
    // generic evaluator for anything beyond `u` / `u.prop`).
    std::vector<RowEval> fast;
    fast.reserve(items.size());
    for (const ProjItem& item : items) fast.emplace_back(ec, *table, *item.expr);
    for (size_t r = 0; r < table->num_rows(); ++r) {
      std::vector<Value> row;
      row.reserve(items.size());
      for (const RowEval& item : fast) {
        CYPHER_ASSIGN_OR_RETURN(Value v, item.Eval(r));
        row.push_back(std::move(v));
      }
      if (has_order) {
        CYPHER_ASSIGN_OR_RETURN(std::vector<Value> keys,
                                eval_sort_keys(Bindings(table, r), row, nullptr));
        sort_keys.push_back(std::move(keys));
      }
      out.AddRow(std::move(row));
    }
  } else {
    // Implicit grouping: non-aggregate items are the grouping key.
    std::vector<size_t> key_items;
    std::vector<RowEval> key_eval;
    for (size_t i = 0; i < items.size(); ++i) {
      if (!items[i].has_agg) {
        key_items.push_back(i);
        key_eval.emplace_back(ec, *table, *items[i].expr);
      }
    }
    std::vector<std::vector<size_t>> groups;
    std::vector<std::vector<Value>> group_keys;
    std::unordered_map<std::vector<Value>, size_t, ValueVecHash, ValueVecEq>
        group_index;
    if (key_items.empty()) {
      groups.emplace_back();  // one global group, present even for 0 rows
      group_keys.emplace_back();
    }
    for (size_t r = 0; r < table->num_rows(); ++r) {
      std::vector<Value> key;
      key.reserve(key_items.size());
      for (const RowEval& ke : key_eval) {
        CYPHER_ASSIGN_OR_RETURN(Value v, ke.Eval(r));
        key.push_back(std::move(v));
      }
      if (key_items.empty()) {
        groups[0].push_back(r);
        continue;
      }
      auto [it, inserted] = group_index.try_emplace(key, groups.size());
      if (inserted) {
        groups.emplace_back();
        group_keys.push_back(std::move(key));
      }
      groups[it->second].push_back(r);
    }
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      const std::vector<size_t>& rows = groups[gi];
      Bindings rep =
          rows.empty() ? Bindings() : Bindings(table, rows.front());
      AggregateScope scope{table, &rows};
      std::vector<Value> row(items.size());
      size_t key_slot = 0;
      for (size_t i = 0; i < items.size(); ++i) {
        if (!items[i].has_agg) {
          row[i] = group_keys[gi][key_slot++];
        } else {
          CYPHER_ASSIGN_OR_RETURN(row[i],
                                  Evaluate(ec, rep, *items[i].expr, &scope));
        }
      }
      if (has_order) {
        CYPHER_ASSIGN_OR_RETURN(std::vector<Value> keys,
                                eval_sort_keys(rep, row, &scope));
        sort_keys.push_back(std::move(keys));
      }
      out.AddRow(std::move(row));
    }
  }

  // DISTINCT (dedupe output rows, keeping sort keys aligned).
  if (body.distinct) {
    Table deduped = Table::WithColumns(out.columns());
    std::vector<std::vector<Value>> deduped_keys;
    std::unordered_set<std::vector<Value>, ValueVecHash, ValueVecEq> seen;
    for (size_t r = 0; r < out.num_rows(); ++r) {
      if (seen.insert(out.row(r)).second) {
        deduped.AddRow(out.row(r));
        if (has_order) deduped_keys.push_back(std::move(sort_keys[r]));
      }
    }
    out = std::move(deduped);
    sort_keys = std::move(deduped_keys);
  }

  // WHERE (WITH ... WHERE): filter on the projected record.
  if (where != nullptr) {
    Table filtered = Table::WithColumns(out.columns());
    std::vector<std::vector<Value>> filtered_keys;
    for (size_t r = 0; r < out.num_rows(); ++r) {
      Bindings bindings(&out, r);
      CYPHER_ASSIGN_OR_RETURN(Tri pass, EvaluatePredicate(ec, bindings, *where));
      if (pass == Tri::kTrue) {
        filtered.AddRow(out.row(r));
        if (has_order) filtered_keys.push_back(std::move(sort_keys[r]));
      }
    }
    out = std::move(filtered);
    sort_keys = std::move(filtered_keys);
  }

  // ORDER BY: stable sort by key vectors.
  if (has_order) {
    std::vector<bool> ascending;
    ascending.reserve(body.order_by.size());
    for (const SortItem& sort : body.order_by) {
      ascending.push_back(sort.ascending);
    }
    std::vector<size_t> order(out.num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    SortKeyLess less{&ascending};
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return less(sort_keys[a], sort_keys[b]);
    });
    Table sorted = Table::WithColumns(out.columns());
    for (size_t i : order) sorted.AddRow(out.row(i));
    out = std::move(sorted);
  }

  // SKIP / LIMIT.
  size_t begin = 0;
  size_t end = out.num_rows();
  if (body.skip != nullptr) {
    CYPHER_ASSIGN_OR_RETURN(int64_t skip, EvalRowCount(ec, *body.skip, "SKIP"));
    begin = std::min<size_t>(static_cast<size_t>(skip), end);
  }
  if (body.limit != nullptr) {
    CYPHER_ASSIGN_OR_RETURN(int64_t limit,
                            EvalRowCount(ec, *body.limit, "LIMIT"));
    end = std::min(end, begin + static_cast<size_t>(limit));
  }
  if (begin != 0 || end != out.num_rows()) {
    Table window = Table::WithColumns(out.columns());
    for (size_t r = begin; r < end; ++r) window.AddRow(out.row(r));
    out = std::move(window);
  }

  *table = std::move(out);
  return Status::OK();
}

// ---- Dispatch ---------------------------------------------------------------

Status ExecClause(ExecContext* ctx, const Clause& clause, Table* table) {
  switch (clause.kind) {
    case ClauseKind::kMatch:
      return ExecMatch(ctx, static_cast<const MatchClause&>(clause), table);
    case ClauseKind::kUnwind:
      return ExecUnwind(ctx, static_cast<const UnwindClause&>(clause), table);
    case ClauseKind::kWith: {
      const auto& c = static_cast<const WithClause&>(clause);
      return ExecProjection(ctx, c.body, c.where.get(), table);
    }
    case ClauseKind::kReturn: {
      const auto& c = static_cast<const ReturnClause&>(clause);
      return ExecProjection(ctx, c.body, nullptr, table);
    }
    case ClauseKind::kCreate:
      return ExecCreate(ctx, static_cast<const CreateClause&>(clause), table);
    case ClauseKind::kSet:
      return ExecSet(ctx, static_cast<const SetClause&>(clause), table);
    case ClauseKind::kRemove:
      return ExecRemove(ctx, static_cast<const RemoveClause&>(clause), table);
    case ClauseKind::kDelete:
      return ExecDelete(ctx, static_cast<const DeleteClause&>(clause), table);
    case ClauseKind::kMerge:
      return ExecMerge(ctx, static_cast<const MergeClause&>(clause), table);
    case ClauseKind::kForeach:
      return ExecForeach(ctx, static_cast<const ForeachClause&>(clause), table);
    case ClauseKind::kCreateIndex: {
      const auto& c = static_cast<const CreateIndexClause&>(clause);
      // DDL: applied immediately and not journaled — an index is a pure
      // accelerator (lookups validate against the live graph), so leaving
      // it behind after a rollback is harmless and idempotent.
      Symbol label = ctx->graph->InternLabel(c.label);
      Symbol key = ctx->graph->InternKey(c.key);
      if (c.drop) {
        ctx->graph->DropIndex(label, key);
      } else {
        ctx->graph->CreateIndex(label, key);
      }
      return Status::OK();
    }
    case ClauseKind::kCallSubquery:
      return ExecCallSubquery(
          ctx, static_cast<const CallSubqueryClause&>(clause), table);
    case ClauseKind::kConstraint: {
      const auto& c = static_cast<const ConstraintClause&>(clause);
      Symbol label = ctx->graph->InternLabel(c.label);
      Symbol key = ctx->graph->InternKey(c.key);
      if (c.drop) {
        ctx->graph->DropUniqueConstraint(label, key);
        return Status::OK();
      }
      return ctx->graph->AddUniqueConstraint(label, key);
    }
  }
  return Status::InternalError("unknown clause kind");
}

}  // namespace cypher
