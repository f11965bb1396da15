#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "common/check.h"
#include "eval/evaluator.h"
#include "exec/aggregate.h"
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
  if (slot.plan == nullptr || !(slot.stamp == stamp)) {
    EvalContext compile_ec{ec.graph, nullptr, ctx.options.match_mode,
                           &ctx.options.cancel};
    slot.plan = std::make_shared<const CompiledMatch>(
        CompileMatch(compile_ec, Bindings(&table, 0), slot.clause->patterns));
    slot.stamp = stamp;
  }
  return slot.plan;
}

/// The plan MATCH runs `clause` with over the non-empty `table`. A cached
/// statement reuses its stamped plan for small tables (the hot
/// parametrized-statement case). From kTransientIndexMinRows rows on the
/// compile may plan a transient hash index, which bakes live NodeIds and is
/// never cacheable, so those compile fresh like an uncached clause — once
/// per clause: boundness and interned symbols are identical across records
/// of one table; only row values differ (memoized per record inside the
/// engine).
std::shared_ptr<const CompiledMatch> MatchPlan(const ExecContext& ctx,
                                               const MatchClause& clause,
                                               const Table& table) {
  size_t rows = table.num_rows();
  const MatchSlot* slot =
      ctx.match_slots == nullptr ? nullptr : ctx.match_slots->Find(clause);
  if (slot != nullptr && rows < kTransientIndexMinRows) {
    return SlotPlan(ctx, *slot, table);
  }
  return std::make_shared<const CompiledMatch>(CompileMatch(
      ctx.Eval(), Bindings(&table, 0), clause.patterns, {.num_rows = rows}));
}

}  // namespace

Status ExecMatch(ExecContext* ctx, const MatchClause& clause, Table* table) {
  // Fresh variables this MATCH introduces (consistent across records); an
  // empty table still introduces the new (empty) columns.
  std::vector<std::string> new_vars = MatchNewVars(clause, *table);
  Table out = Table::WithColumns(table->columns());
  for (const std::string& var : new_vars) out.AddColumn(var);
  if (table->num_rows() > 0) {
    std::shared_ptr<const CompiledMatch> compiled =
        MatchPlan(*ctx, clause, *table);
    // Fans out over anchor tiles when the planner says so; applies the
    // clause's WHERE and OPTIONAL null-padding either way.
    EvalContext ec = ctx->Eval();
    std::optional<ParallelPlan> plan = PlanParallelMatch(
        ctx->options, *ec.graph, *compiled, table->num_rows());
    CYPHER_RETURN_NOT_OK(MatchRows(
        ec, ctx->Match(), plan.has_value() ? &*plan : nullptr, *table,
        *compiled, clause.where.get(), new_vars, clause.optional,
        /*unmatched=*/nullptr, &out));
  }
  *table = std::move(out);
  return Status::OK();
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

/// ORDER BY — a stable sort on the key vectors aligned with `*out`'s rows —
/// then SKIP / LIMIT.
Status OrderAndPage(const EvalContext& ec, const ProjectionBody& body,
                    const std::vector<std::vector<Value>>& sort_keys,
                    Table* out) {
  if (!body.order_by.empty()) {
    std::vector<bool> ascending;
    ascending.reserve(body.order_by.size());
    for (const SortItem& sort : body.order_by) {
      ascending.push_back(sort.ascending);
    }
    std::vector<size_t> order(out->num_rows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    SortKeyLess less{&ascending};
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return less(sort_keys[a], sort_keys[b]);
    });
    Table sorted = Table::WithColumns(out->columns());
    for (size_t i : order) sorted.AddRow(out->row(i));
    *out = std::move(sorted);
  }

  // SKIP / LIMIT.
  size_t begin = 0;
  size_t end = out->num_rows();
  if (body.skip != nullptr) {
    CYPHER_ASSIGN_OR_RETURN(int64_t skip, EvalRowCount(ec, *body.skip, "SKIP"));
    begin = std::min<size_t>(static_cast<size_t>(skip), end);
  }
  if (body.limit != nullptr) {
    CYPHER_ASSIGN_OR_RETURN(int64_t limit,
                            EvalRowCount(ec, *body.limit, "LIMIT"));
    end = std::min(end, begin + static_cast<size_t>(limit));
  }
  if (begin != 0 || end != out->num_rows()) {
    Table window = Table::WithColumns(out->columns());
    for (size_t r = begin; r < end; ++r) window.AddRow(out->row(r));
    *out = std::move(window);
  }
  return Status::OK();
}

}  // namespace

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

  if (!aggregated) {
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
    // Rows per group, in the index's first-occurrence order; the global
    // group exists even for 0 rows.
    std::vector<std::vector<size_t>> groups;
    GroupIndex index(key_items.size());
    bool inserted = false;
    if (key_items.empty()) {
      index.FindOrInsert(GroupIndex::Hash(0, CopyKey(nullptr)),
                         CopyKey(nullptr), &inserted);
      groups.emplace_back();
    }
    std::vector<Value> key(key_items.size());
    for (size_t r = 0; r < table->num_rows(); ++r) {
      for (size_t k = 0; k < key_eval.size(); ++k) {
        CYPHER_ASSIGN_OR_RETURN(key[k], key_eval[k].Eval(r));
      }
      size_t g = index.FindOrInsert(
          GroupIndex::Hash(key.size(), CopyKey(key.data())),
          MoveKey(key.data()), &inserted);
      if (inserted) groups.emplace_back();
      groups[g].push_back(r);
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
          row[i] = std::move(index.mutable_key(gi)[key_slot++]);
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
    GroupIndex seen(out.num_columns());
    for (size_t r = 0; r < out.num_rows(); ++r) {
      Value* row = out.mutable_row(r).data();
      bool inserted;
      seen.FindOrInsert(GroupIndex::Hash(seen.arity(), CopyKey(row)),
                        MoveKey(row), &inserted);
      if (inserted && has_order) {
        deduped_keys.push_back(std::move(sort_keys[r]));
      }
    }
    for (size_t g = 0; g < seen.size(); ++g) {
      Value* row = seen.mutable_key(g);
      deduped.AddRow({std::make_move_iterator(row),
                      std::make_move_iterator(row + seen.arity())});
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

  CYPHER_RETURN_NOT_OK(OrderAndPage(ec, body, sort_keys, &out));
  *table = std::move(out);
  return Status::OK();
}

// ---- MATCH -> aggregating projection, streamed -----------------------------

namespace {

/// The body of a WITH (without WHERE) or RETURN clause; null otherwise.
const ProjectionBody* StreamableBody(const Clause& clause) {
  if (clause.kind == ClauseKind::kReturn) {
    return &static_cast<const ReturnClause&>(clause).body;
  }
  if (clause.kind != ClauseKind::kWith) return nullptr;
  const auto& with = static_cast<const WithClause&>(clause);
  return with.where == nullptr ? &with.body : nullptr;
}

/// `v` or `v.key` for one of `vars`.
bool IsStreamOperand(const Expr& expr, const std::vector<std::string>& vars) {
  const Expr* base = &expr;
  if (base->kind == ExprKind::kProperty) {
    base = static_cast<const PropertyExpr&>(expr).object.get();
  }
  if (base->kind != ExprKind::kVariable) return false;
  const std::string& name = static_cast<const VariableExpr&>(*base).name;
  return std::find(vars.begin(), vars.end(), name) != vars.end();
}

/// The item an ORDER BY key names by its alias, or items.size().
size_t SortAlias(const ProjectionBody& body, const Expr& key) {
  if (key.kind != ExprKind::kVariable) return body.items.size();
  const std::string& name = static_cast<const VariableExpr&>(key).name;
  size_t i = 0;
  while (i < body.items.size() && body.items[i].alias != name) ++i;
  return i;
}

}  // namespace

bool StreamsIntoProjection(const SingleQuery& part) {
  if (part.clauses.size() < 2) return false;
  const ProjectionBody* body = StreamableBody(*part.clauses[1]);
  if (part.clauses[0]->kind != ClauseKind::kMatch || body == nullptr ||
      body->distinct || body->skip != nullptr || body->include_existing) {
    return false;
  }
  const auto& match = static_cast<const MatchClause&>(*part.clauses[0]);
  if (match.optional ||
      std::none_of(body->items.begin(), body->items.end(),
                   [](const ReturnItem& item) {
                     return ContainsAggregate(*item.expr);
                   })) {
    return false;
  }
  std::vector<std::string> vars;
  for (const PathPattern& pattern : match.patterns) {
    for (std::string& var : PatternVariables(pattern)) {
      vars.push_back(std::move(var));
    }
  }
  for (size_t i = 0; i < body->items.size(); ++i) {
    const ReturnItem& item = body->items[i];
    for (size_t j = 0; j < i; ++j) {
      if (body->items[j].alias == item.alias) return false;  // an error
    }
    if (!ContainsAggregate(*item.expr)) {
      if (!IsStreamOperand(*item.expr, vars)) return false;
      continue;
    }
    AggSpec spec = ClassifyAggregate(*item.expr);
    switch (spec.op) {
      case AggOp::kCountStar:
        break;
      case AggOp::kCount:
      case AggOp::kSum:
      case AggOp::kMin:
      case AggOp::kMax:
        if (!IsStreamOperand(*spec.arg, vars)) return false;
        break;
      default:
        return false;
    }
  }
  for (const SortItem& sort : body->order_by) {
    if (SortAlias(*body, *sort.expr) == body->items.size()) return false;
  }
  return true;
}

Result<bool> ExecStreamedAggregate(
    ExecContext* ctx, const SingleQuery& part,
    const std::function<Status(size_t)>& after_match, Table* table) {
  const auto& match = static_cast<const MatchClause&>(*part.clauses[0]);
  const ProjectionBody& body = *StreamableBody(*part.clauses[1]);
  EvalContext ec = ctx->Eval();
  const size_t num_items = body.items.size();
  // Per item: the operand it reads, resolved once (none for count(*)).
  // The items split into grouping keys and aggregates, each aggregate with
  // its spec and one partial per group.
  std::vector<std::optional<MatchOperand>> operands(num_items);
  std::vector<size_t> key_items;
  std::vector<size_t> agg_items;
  std::vector<AggSpec> specs;  // per aggregate item
  for (size_t i = 0; i < num_items; ++i) {
    const Expr* operand = body.items[i].expr.get();
    if (ContainsAggregate(*operand)) {
      specs.push_back(ClassifyAggregate(*operand));
      operand = specs.back().arg;
      agg_items.push_back(i);
    } else {
      key_items.push_back(i);
    }
    if (operand != nullptr) {
      operands[i] = MatchOperand::Resolve(ec, *table, *operand);
      CYPHER_CHECK(operands[i].has_value() && "`v` / `v.key` always resolves");
    }
  }

  std::shared_ptr<const CompiledMatch> compiled = MatchPlan(*ctx, match, *table);
  std::optional<ParallelPlan> plan =
      PlanParallelMatch(ctx->options, *ec.graph, *compiled, table->num_rows());
  const ParallelPlan* plan_ptr = plan.has_value() ? &*plan : nullptr;
  // Written on every match by the worker running the tile: one cache line
  // each, so adjacent tiles on different workers do not false-share.
  struct alignas(64) TaskState {
    GroupSet groups;
    std::vector<const Value*> key;  // scratch: the row's key operands
    size_t matches = 0;
    bool declined = false;
  };
  std::vector<TaskState> tasks(
      plan.has_value() ? plan->tiles : 1,
      TaskState{GroupSet(key_items.size(), agg_items.size())});
  const WhereEval where(ec, *table, match.where.get());
  Status st = StreamMatches(
      ec, ctx->Match(), plan_ptr, *table, *compiled, where,
      [&](size_t task, const MatchAssignment& assignment) -> Result<bool> {
        TaskState& ts = tasks[task];
        ++ts.matches;
        ts.key.clear();
        for (size_t i : key_items) {
          const Value* v = operands[i]->Eval(0, assignment);
          if (v == nullptr) {
            ts.declined = true;  // the key would need the generic rules
            return false;
          }
          ts.key.push_back(v);
        }
        auto key = [&ts](size_t k) -> const Value& { return *ts.key[k]; };
        Partial* partials = ts.groups.partials_of(
            ts.groups.Group(GroupIndex::Hash(ts.key.size(), key), key));
        for (size_t a = 0; a < agg_items.size(); ++a) {
          UpdatePartial(specs[a], &partials[a], [&] {
            return operands[agg_items[a]]->Eval(0, assignment);
          });
          if (partials[a].fallback) {
            ts.declined = true;
            return false;
          }
        }
        return true;
      });
  // A declined task stopped early, so neither its count nor an error from
  // a later task is final: the materialized path decides both.
  size_t matches = 0;
  for (const TaskState& ts : tasks) {
    if (ts.declined) return false;
    matches += ts.matches;
  }
  CYPHER_RETURN_NOT_OK(st);
  CYPHER_RETURN_NOT_OK(after_match(matches));

  std::vector<GroupSet> parts;
  parts.reserve(tasks.size());
  for (TaskState& ts : tasks) parts.push_back(std::move(ts.groups));
  GroupSet merged = MergeGroupSets(std::move(parts), specs, key_items.empty());
  std::vector<std::string> aliases;
  for (const ReturnItem& item : body.items) aliases.push_back(item.alias);
  Table out = Table::WithColumns(aliases);
  std::vector<std::vector<Value>> sort_keys;
  for (size_t g = 0; g < merged.size(); ++g) {
    Value* key = merged.index.mutable_key(g);
    Partial* partials = merged.partials_of(g);
    std::vector<Value> row(num_items);
    for (size_t k = 0; k < key_items.size(); ++k) {
      row[key_items[k]] = std::move(key[k]);
    }
    for (size_t a = 0; a < agg_items.size(); ++a) {
      CYPHER_ASSIGN_OR_RETURN(row[agg_items[a]],
                              FinalizePartial(specs[a], std::move(partials[a])));
    }
    if (!body.order_by.empty()) {
      std::vector<Value> keys;
      for (const SortItem& sort : body.order_by) {
        keys.push_back(row[SortAlias(body, *sort.expr)]);
      }
      sort_keys.push_back(std::move(keys));
    }
    out.AddRow(std::move(row));
  }
  CYPHER_RETURN_NOT_OK(OrderAndPage(ec, body, sort_keys, &out));
  *table = std::move(out);
  return true;
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
