#ifndef CYPHER_EXEC_CLAUSES_H_
#define CYPHER_EXEC_CLAUSES_H_

#include <functional>

#include "ast/clause.h"
#include "ast/query.h"
#include "common/result.h"
#include "exec/context.h"
#include "match/compiled_pattern.h"
#include "table/table.h"

namespace cypher {

/// Clause executors: each implements [[C]](G, T) -> (G', T'), mutating the
/// graph through `ctx` and replacing `*table` with the output driving table.
/// All validation that the grammar defers (CREATE pattern restrictions,
/// bare-MERGE rejection in revised mode, ...) happens here and surfaces as
/// SemanticError / ExecutionError.

/// MATCH compiles its pattern plan once per clause execution, or reuses the
/// stamped slot of a cached statement (ExecContext::match_slots).
Status ExecMatch(ExecContext* ctx, const MatchClause& clause, Table* table);
Status ExecUnwind(ExecContext* ctx, const UnwindClause& clause, Table* table);
Status ExecProjection(ExecContext* ctx, const ProjectionBody& body,
                      const Expr* where, Table* table);
Status ExecCreate(ExecContext* ctx, const CreateClause& clause, Table* table);
Status ExecSet(ExecContext* ctx, const SetClause& clause, Table* table);
Status ExecRemove(ExecContext* ctx, const RemoveClause& clause, Table* table);
Status ExecDelete(ExecContext* ctx, const DeleteClause& clause, Table* table);
Status ExecMerge(ExecContext* ctx, const MergeClause& clause, Table* table);
Status ExecForeach(ExecContext* ctx, const ForeachClause& clause, Table* table);
Status ExecCallSubquery(ExecContext* ctx, const CallSubqueryClause& clause,
                        Table* table);

/// True when the first two clauses of `part` run as one streamed pass: a
/// non-OPTIONAL MATCH followed by a RETURN or WITH (no WITH ... WHERE,
/// DISTINCT, SKIP or `*`) that groups only by `v` / `v.key` of the MATCH's
/// variables, aggregates only with count(*) or non-DISTINCT count / sum /
/// min / max of such operands, and orders only by its own aliases.
bool StreamsIntoProjection(const SingleQuery& part);

/// Runs that pair (StreamsIntoProjection(part) holds) over the unit table
/// `*table` without building the joined table: each passing match feeds the partial aggregates
/// (exec/aggregate.h) directly, one GroupSet per anchor tile merged in tile
/// order, then ORDER BY and LIMIT run as in ExecProjection. Before any
/// aggregate is finalized, `after_match` sees the row count the MATCH would
/// have produced. Returns false, leaving `*table` untouched, when an operand
/// left the fragment at runtime or a partial asked for the generic
/// fallback: the caller then runs the two clauses one by one.
Result<bool> ExecStreamedAggregate(
    ExecContext* ctx, const SingleQuery& part,
    const std::function<Status(size_t)>& after_match, Table* table);

/// Dispatches on clause kind. WITH/RETURN both route to ExecProjection.
Status ExecClause(ExecContext* ctx, const Clause& clause, Table* table);

/// Evaluates a SKIP/LIMIT operand against an empty record; anything but a
/// non-negative integer is an ExecutionError naming `what`.
Result<int64_t> EvalRowCount(const EvalContext& ec, const Expr& expr,
                             const char* what);

/// Applies a list of SET items to a single record, legacy-style (immediate,
/// left to right). Shared by the legacy SET executor and legacy MERGE's
/// ON CREATE SET / ON MATCH SET.
Status ApplySetItemsLegacy(ExecContext* ctx, const std::vector<SetItem>& items,
                           const Bindings& bindings);

}  // namespace cypher

#endif  // CYPHER_EXEC_CLAUSES_H_
