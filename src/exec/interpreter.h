#ifndef CYPHER_EXEC_INTERPRETER_H_
#define CYPHER_EXEC_INTERPRETER_H_

#include <functional>
#include <string>
#include <vector>

#include "ast/query.h"
#include "common/result.h"
#include "exec/options.h"
#include "exec/stats.h"
#include "graph/graph.h"
#include "table/table.h"
#include "value/value.h"

namespace cypher {

struct MatchSlots;

/// The observable outcome of one statement: the output table (empty for
/// update-only statements) and the mutation summary.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
  UpdateStats stats;

  size_t num_rows() const { return rows.size(); }
};

/// Runs after a statement passes every end-of-statement validation but
/// before its journal commits. A durable session logs the statement here
/// (the write-ahead property: a statement reaches the log strictly before
/// it becomes visible as committed); a non-OK return rolls the statement
/// back exactly like a validation failure. The argument is the statement's
/// journal mark: the entries after it name every slot the statement touched.
using CommitHook = std::function<Status(PropertyGraph::JournalMark)>;

/// Executes a parsed statement: output(Q, G) of Section 8.
///
/// The graph mutates in place on success. On any error the statement's
/// mutations are rolled back via the graph's undo journal, so a failed
/// statement is a no-op — including legacy-mode statements that fail the
/// end-of-statement dangling-relationship check.
///
/// `match_slots` is the plan cache's slot table for `query` (built by
/// CompileStatement); its top-level MATCH clauses then reuse their stamped
/// pattern plans instead of compiling per execution.
Result<QueryResult> ExecuteQuery(PropertyGraph* graph, const Query& query,
                                 const ValueMap& params,
                                 const EvalOptions& options,
                                 const CommitHook& commit_hook = nullptr,
                                 const MatchSlots* match_slots = nullptr);

}  // namespace cypher

#endif  // CYPHER_EXEC_INTERPRETER_H_
