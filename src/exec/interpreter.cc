#include "exec/interpreter.h"

#include <unordered_set>

#include "ast/printer.h"
#include "common/check.h"
#include "common/read_pin.h"
#include "exec/clauses.h"
#include "exec/context.h"
#include "exec/parallel.h"
#include "match/compiled_pattern.h"
#include "vm/normalize.h"

namespace cypher {

std::string UpdateStats::ToString() const {
  std::string out;
  auto add = [&out](uint64_t n, const char* what) {
    if (n == 0) return;
    if (!out.empty()) out += ", ";
    out += std::to_string(n);
    out += " ";
    out += what;
  };
  add(nodes_created, "nodes created");
  add(rels_created, "relationships created");
  add(properties_set, "properties set");
  add(labels_added, "labels added");
  add(labels_removed, "labels removed");
  add(nodes_deleted, "nodes deleted");
  add(rels_deleted, "relationships deleted");
  if (out.empty()) out = "no changes";
  return out;
}

namespace {

/// The Cypher 9 clause-ordering rule of Figure 2: reading clauses may not
/// follow an update clause without an intervening WITH (Section 4.4).
Status CheckStrictCypher9Ordering(const SingleQuery& part) {
  bool updates_pending = false;
  for (const ClausePtr& clause : part.clauses) {
    if (IsUpdateClause(*clause)) {
      updates_pending = true;
      continue;
    }
    switch (clause->kind) {
      case ClauseKind::kWith:
        updates_pending = false;
        break;
      case ClauseKind::kMatch:
      case ClauseKind::kUnwind:
        if (updates_pending) {
          return Status::SemanticError(
              "Cypher 9 syntax requires WITH between an updating clause and "
              "a subsequent reading clause");
        }
        break;
      default:
        break;
    }
  }
  return Status::OK();
}

/// Display name of a clause for error messages and plan rows
/// ("OPTIONAL MATCH", "MERGE ALL", "CALL {...}", ...).
const char* ClauseDisplayName(const Clause& clause) {
  switch (clause.kind) {
    case ClauseKind::kMatch:
      return static_cast<const MatchClause&>(clause).optional
                 ? "OPTIONAL MATCH"
                 : "MATCH";
    case ClauseKind::kUnwind:
      return "UNWIND";
    case ClauseKind::kWith:
      return "WITH";
    case ClauseKind::kReturn:
      return "RETURN";
    case ClauseKind::kCreate:
      return "CREATE";
    case ClauseKind::kSet:
      return "SET";
    case ClauseKind::kRemove:
      return "REMOVE";
    case ClauseKind::kDelete:
      return static_cast<const DeleteClause&>(clause).detach ? "DETACH DELETE"
                                                             : "DELETE";
    case ClauseKind::kMerge:
      switch (static_cast<const MergeClause&>(clause).form) {
        case MergeForm::kAll:
          return "MERGE ALL";
        case MergeForm::kSame:
          return "MERGE SAME";
        case MergeForm::kLegacy:
          return "MERGE";
      }
      return "MERGE";
    case ClauseKind::kForeach:
      return "FOREACH";
    case ClauseKind::kCreateIndex:
      return static_cast<const CreateIndexClause&>(clause).drop
                 ? "DROP INDEX"
                 : "CREATE INDEX";
    case ClauseKind::kConstraint:
      return static_cast<const ConstraintClause&>(clause).drop
                 ? "DROP CONSTRAINT"
                 : "CREATE CONSTRAINT";
    case ClauseKind::kCallSubquery:
      return "CALL {...}";
  }
  return "?";
}

/// Per-clause cardinality record for PROFILE.
struct ProfileRow {
  std::string clause;
  size_t rows_out;
};

Status RunSingleQuery(ExecContext* ctx, const SingleQuery& part, Table* table,
                      bool* has_return, std::vector<ProfileRow>* profile) {
  *has_return = false;
  *table = Table::Unit();
  // What follows every clause: the row budget, then PROFILE's cardinality.
  auto after = [&](const Clause& clause, size_t rows) -> Status {
    if (ctx->options.max_rows != 0 && rows > ctx->options.max_rows) {
      return Status::ExecutionError(
          "driving table exceeded the configured row limit (" +
          std::to_string(ctx->options.max_rows) + " records) after " +
          ClauseDisplayName(clause));
    }
    if (clause.kind == ClauseKind::kReturn) *has_return = true;
    if (profile != nullptr) profile->push_back({ToCypher(clause), rows});
    return Status::OK();
  };
  for (size_t i = 0; i < part.clauses.size(); ++i) {
    const Clause& clause = *part.clauses[i];
    // Watchdog poll at clause granularity; the matcher and the parallel
    // loops poll the same token at finer grain during long enumerations.
    CYPHER_RETURN_NOT_OK(ctx->options.cancel.Check());
    // A leading MATCH whose projection only groups and aggregates its
    // matches runs as one pass that never builds the joined table; when
    // the pass declines, the pair runs clause by clause below.
    if (i == 0 && StreamsIntoProjection(part)) {
      CYPHER_ASSIGN_OR_RETURN(
          bool streamed,
          ExecStreamedAggregate(
              ctx, part,
              [&](size_t matches) { return after(clause, matches); }, table));
      if (streamed) {
        CYPHER_RETURN_NOT_OK(after(*part.clauses[1], table->num_rows()));
        ++i;
        continue;
      }
    }
    CYPHER_RETURN_NOT_OK(ExecClause(ctx, clause, table));
    CYPHER_RETURN_NOT_OK(after(clause, table->num_rows()));
  }
  if (!*has_return) *table = Table();
  return Status::OK();
}

/// EXPLAIN: a plan description, no execution. MATCH and MERGE clauses show
/// the access path the compiled pipeline selects (see DescribeMatchPlan),
/// computed against the variables earlier clauses would have bound.
QueryResult BuildExplainPlan(const PropertyGraph& graph, const Query& query,
                             const ValueMap& params,
                             const EvalOptions& options) {
  QueryResult result;
  result.columns = {"step", "clause", "details"};
  EvalContext ec{&graph, &params, options.match_mode};
  int step = 0;
  for (size_t p = 0; p < query.parts.size(); ++p) {
    if (p > 0) {
      result.rows.push_back(
          {Value::Int(step++),
           Value::String(query.union_all[p - 1] ? "UNION ALL" : "UNION"),
           Value::String("combine branch output tables")});
    }
    // Variables in scope at each clause; UNION branches start fresh.
    std::unordered_set<std::string> bound;
    auto bind_patterns = [&bound](const std::vector<PathPattern>& patterns) {
      for (const PathPattern& pattern : patterns) {
        for (const std::string& var : PatternVariables(pattern)) {
          bound.insert(var);
        }
      }
    };
    for (const ClausePtr& clause : query.parts[p].clauses) {
      std::string details = ToCypher(*clause);
      switch (clause->kind) {
        case ClauseKind::kMatch: {
          const auto& match = static_cast<const MatchClause&>(*clause);
          CompiledMatch compiled =
              CompileMatchForExplain(ec, bound, match.patterns);
          bool streamed = clause == query.parts[p].clauses.front() &&
                          StreamsIntoProjection(query.parts[p]);
          details += "  [" + DescribeMatchPlan(graph, compiled) +
                     (streamed ? ", aggregate: streamed" : "") + "]";
          std::string par = DescribeParallelMatch(options, compiled);
          if (!par.empty()) details += "  [" + par + "]";
          bind_patterns(match.patterns);
          break;
        }
        case ClauseKind::kMerge: {
          const auto& merge = static_cast<const MergeClause&>(*clause);
          CompiledMatch compiled =
              CompileMatchForExplain(ec, bound, merge.patterns);
          details += "  [match phase " + DescribeMatchPlan(graph, compiled) +
                     "]";
          // Only the revised variants fan out their match phase; legacy
          // MERGE reads its own writes record by record.
          if (options.semantics == SemanticsMode::kRevised) {
            std::string par = DescribeParallelMatch(options, compiled);
            if (!par.empty()) details += "  [" + par + "]";
          }
          bind_patterns(merge.patterns);
          break;
        }
        case ClauseKind::kCreate:
          bind_patterns(static_cast<const CreateClause&>(*clause).patterns);
          break;
        case ClauseKind::kUnwind:
          bound.insert(static_cast<const UnwindClause&>(*clause).variable);
          break;
        case ClauseKind::kWith:
        case ClauseKind::kReturn: {
          // A projection replaces the scope with its aliases.
          const ProjectionBody& body =
              clause->kind == ClauseKind::kWith
                  ? static_cast<const WithClause&>(*clause).body
                  : static_cast<const ReturnClause&>(*clause).body;
          if (!body.include_existing) bound.clear();  // `WITH *` keeps scope
          for (const ReturnItem& item : body.items) bound.insert(item.alias);
          break;
        }
        default:
          break;  // SET/REMOVE/DELETE/FOREACH/DDL bind nothing
      }
      result.rows.push_back({Value::Int(step++),
                             Value::String(ClauseDisplayName(*clause)),
                             Value::String(details)});
    }
  }
  result.rows.push_back(
      {Value::Int(step), Value::String("SEMANTICS"),
       Value::String(options.semantics == SemanticsMode::kLegacy
                         ? "legacy (Cypher 9), record-at-a-time updates"
                         : "revised (Sections 7-8), atomic updates")});
  return result;
}

}  // namespace

Result<QueryResult> ExecuteQuery(PropertyGraph* graph, const Query& query,
                                 const ValueMap& params,
                                 const EvalOptions& options,
                                 const CommitHook& commit_hook,
                                 const MatchSlots* match_slots) {
  CYPHER_CHECK(!query.parts.empty());
  // Mixing UNION and UNION ALL is ambiguous; reject like Neo4j does.
  if (!query.union_all.empty()) {
    bool first = query.union_all.front();
    for (bool all : query.union_all) {
      if (all != first) {
        return Status::SemanticError(
            "cannot mix UNION and UNION ALL in one statement");
      }
    }
  }

  if (query.mode == QueryMode::kExplain) {
    return BuildExplainPlan(*graph, query, params, options);
  }

  ExecContext ctx(graph, &params, options);
  ctx.match_slots = match_slots;
  std::vector<ProfileRow> profile;
  std::vector<ProfileRow>* profile_ptr =
      query.mode == QueryMode::kProfile ? &profile : nullptr;

  Table combined;
  bool combined_has_return = false;
  auto run_parts = [&]() -> Status {
    for (size_t p = 0; p < query.parts.size(); ++p) {
      const SingleQuery& part = query.parts[p];
      if (options.semantics == SemanticsMode::kLegacy &&
          options.strict_cypher9_syntax) {
        CYPHER_RETURN_NOT_OK(CheckStrictCypher9Ordering(part));
      }
      Table table;
      bool has_return = false;
      CYPHER_RETURN_NOT_OK(
          RunSingleQuery(&ctx, part, &table, &has_return, profile_ptr));
      if (p == 0) {
        combined = std::move(table);
        combined_has_return = has_return;
        continue;
      }
      if (has_return != combined_has_return) {
        return Status::SemanticError(
            "all UNION branches must RETURN, or none may");
      }
      if (has_return) {
        CYPHER_ASSIGN_OR_RETURN(combined, Table::BagUnion(combined, table));
      }
    }
    if (!query.union_all.empty() && !query.union_all.front() &&
        combined_has_return) {
      combined = combined.Distinct();
    }
    return Status::OK();
  };

  auto build_result = [&]() -> QueryResult {
    QueryResult result;
    if (query.mode == QueryMode::kProfile) {
      // PROFILE commits the statement but reports per-clause cardinalities
      // instead of the query output.
      result.columns = {"step", "clause", "rows_out"};
      for (size_t i = 0; i < profile.size(); ++i) {
        result.rows.push_back({Value::Int(static_cast<int64_t>(i)),
                               Value::String(profile[i].clause),
                               Value::Int(static_cast<int64_t>(
                                   profile[i].rows_out))});
      }
    } else {
      Table::Contents contents = std::move(combined).Release();
      result.columns = std::move(contents.columns);
      result.rows = std::move(contents.rows);
    }
    result.stats = ctx.stats;
    return result;
  };

  // Snapshot read session: execute lock-free against the pinned committed
  // epoch, concurrently with the writer. Pure reads touch neither journal
  // nor indexes nor the WAL, so the whole statement lifecycle collapses to
  // "install the pin thread-locally and enumerate".
  if (options.read_pin != nullptr) {
    if (!IsReadOnlyQuery(query)) {
      return Status::ExecutionError(
          "snapshot read session is read-only: update and DDL statements "
          "must run on the writer database");
    }
    ScopedReadPin scope(*options.read_pin);
    CYPHER_RETURN_NOT_OK(run_parts());
    return build_result();
  }

  PropertyGraph::JournalMark mark = graph->BeginJournal();
  auto fail = [&](Status status) -> Status {
    graph->RollbackTo(mark);
    return status;
  };

  if (Status st = run_parts(); !st.ok()) return fail(st);

  // Legacy mode defers the dangling-relationship check to statement end
  // (Neo4j's commit-time validation; Section 4.2).
  if (options.semantics == SemanticsMode::kLegacy &&
      graph->HasDanglingRels()) {
    return fail(Status::ExecutionError(
        "cannot commit: deleting nodes left relationships without "
        "endpoints (delete the relationships too, or use DETACH DELETE)"));
  }

  // Uniqueness constraints are enforced at statement granularity: a
  // violating statement rolls back in full (same atomicity story as the
  // revised SET/DELETE).
  if (Status st = graph->ValidateUniqueConstraints(); !st.ok()) {
    return fail(st);
  }

  // Last exit before the statement becomes visible: a durable session logs
  // it here, and a logging failure rolls back — the log never runs behind
  // the committed state.
  if (commit_hook != nullptr) {
    if (Status st = commit_hook(mark); !st.ok()) return fail(st);
  }

  graph->CommitTo(mark);
  return build_result();
}

}  // namespace cypher
