#ifndef CYPHER_VM_COMPILER_H_
#define CYPHER_VM_COMPILER_H_

#include "ast/query.h"
#include "exec/match_slots.h"

namespace cypher {

/// Builds the slot table of a statement entering the plan cache: one empty
/// stamped slot per top-level MATCH / OPTIONAL MATCH clause of every UNION
/// branch. ExecMatch fills a slot on first use and reuses it while the
/// graph's PlanStamp holds. MATCH clauses nested in CALL {...} get no slot
/// and compile fresh on every execution. The Query must outlive the slots
/// (CachedPlan keeps them together).
MatchSlots CompileStatement(const Query& query);

}  // namespace cypher

#endif  // CYPHER_VM_COMPILER_H_
