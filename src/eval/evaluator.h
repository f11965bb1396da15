#ifndef CYPHER_EVAL_EVALUATOR_H_
#define CYPHER_EVAL_EVALUATOR_H_

#include <vector>

#include "ast/expr.h"
#include "common/result.h"
#include "eval/env.h"
#include "value/compare.h"

namespace cypher {

/// Rows an aggregate ranges over: one group produced by the projection
/// executor's implicit grouping. Aggregate subexpressions iterate these
/// rows; everything outside an aggregate sees the group's representative
/// bindings.
struct AggregateScope {
  const Table* table = nullptr;
  const std::vector<size_t>* rows = nullptr;
};

/// Per-row evaluator with name resolution hoisted out of the loop, for the
/// two expression shapes that dominate projection and aggregation workloads:
/// a bare variable (`u`) and a property of a bare variable (`u.name`). The
/// table column and property Symbol are resolved once at construction;
/// Eval(row) then reads cells directly, with no string hashing per row.
/// Any other shape — or a cell whose type the fast path does not cover —
/// falls back to the generic evaluator, so semantics are identical.
///
/// Valid only while `table` and `expr` outlive the evaluator, and only for
/// bindings with no local overlay (the projection executor's row loops).
///
/// Thread-compatibility: construction resolves names (may intern — must
/// happen before a parallel region); Eval() is const and touches only the
/// immutable resolution, the table and the graph, so one RowEval may be
/// shared by every worker of a parallel region, each evaluating its own
/// row range concurrently.
class RowEval {
 public:
  RowEval(const EvalContext& ctx, const Table& table, const Expr& expr);
  Result<Value> Eval(size_t row) const;

 private:
  enum class Mode { kGeneric, kColumn, kColumnProp };
  const EvalContext* ctx_;
  const Table* table_;
  const Expr* expr_;
  Mode mode_ = Mode::kGeneric;
  size_t col_ = 0;
  Symbol key_ = kNoSymbol;  // kColumnProp; kNoSymbol when never interned
};

/// Evaluates [[e]]_{G,u}: expression `expr` on graph `ctx.graph` under the
/// variable assignment `bindings` (the record u).
///
/// `agg` must be non-null when `expr` may contain aggregate functions
/// (RETURN/WITH item evaluation); anywhere else an aggregate yields a
/// SemanticError. Type errors (e.g. `1 + 'a'.prop`) yield ExecutionError;
/// null inputs propagate per Cypher's ternary logic instead of erroring.
Result<Value> Evaluate(const EvalContext& ctx, const Bindings& bindings,
                       const Expr& expr, const AggregateScope* agg = nullptr);

/// Evaluates a predicate to a ternary truth value: null and non-boolean
/// results count as kNull (per openCypher WHERE semantics a non-boolean
/// non-null predicate is an error; we fold it to kNull and the caller of
/// EvaluatePredicateStrict can choose to error).
Result<Tri> EvaluatePredicate(const EvalContext& ctx, const Bindings& bindings,
                              const Expr& expr);

}  // namespace cypher

#endif  // CYPHER_EVAL_EVALUATOR_H_
