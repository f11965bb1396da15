#ifndef CYPHER_EVAL_EVALUATOR_H_
#define CYPHER_EVAL_EVALUATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "ast/expr.h"
#include "common/result.h"
#include "eval/env.h"
#include "match/matcher.h"
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

/// A literal, a parameter, a variable `v` or a property `v.key`, resolved
/// once per clause for evaluation over one match: the assignment a MATCH
/// adds on top of a driving record. Variables read the assignment first —
/// its bindings shadow the record, as Bindings::Push does — then the
/// record's column. Same thread-compatibility as RowEval.
class MatchOperand {
 public:
  /// Resolves `expr` against `table`'s columns; nullopt when `expr` has
  /// another shape or names a parameter the statement lacks (the generic
  /// evaluator raises that error).
  static std::optional<MatchOperand> Resolve(const EvalContext& ctx,
                                             const Table& table,
                                             const Expr& expr);

  /// The operand's value for record `row` extended by `assignment`; null
  /// when the generic evaluator must decide: an unbound variable, or `v.key`
  /// on something other than null, a node or a relationship.
  const Value* Eval(size_t row, const MatchAssignment& assignment) const;

 private:
  enum class Mode { kConstant, kVariable, kProperty };
  const PropertyGraph* graph_ = nullptr;
  const Table* table_ = nullptr;
  Mode mode_ = Mode::kConstant;
  Value constant_;
  const std::string* name_ = nullptr;  // kVariable / kProperty
  size_t col_ = Table::kNoColumn;      // the record column, if any
  Symbol key_ = kNoSymbol;             // kProperty; kNoSymbol when never
                                       //   interned
};

/// A MATCH clause's WHERE, resolved once per clause against the driving
/// table: a conjunction of comparisons (=, <>, <, <=, >, >=) over
/// MatchOperands reads each match directly; any other predicate — or an
/// operand that needs the generic rules at runtime — is evaluated on the
/// record overlaid with the assignment, so results and errors are those of
/// EvaluatePredicate either way. Same thread-compatibility as RowEval.
class WhereEval {
 public:
  /// `where` may be null (every match passes).
  WhereEval(const EvalContext& ctx, const Table& table, const Expr* where);

  /// [[where]] for record `row` of the table extended by `assignment`.
  Result<Tri> Eval(size_t row, const MatchAssignment& assignment) const;

 private:
  struct Comparison {
    BinaryOp op;
    MatchOperand left;
    MatchOperand right;
  };
  const EvalContext* ctx_;
  const Table* table_;
  const Expr* where_;
  bool resolved_ = false;
  std::vector<Comparison> conjuncts_;  // when resolved_
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
