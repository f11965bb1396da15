#include "vm/compiler.h"

#include <memory>

#include "ast/clause.h"

namespace cypher {

MatchSlots CompileStatement(const Query& query) {
  MatchSlots table;
  for (const SingleQuery& part : query.parts) {
    for (const ClausePtr& clause : part.clauses) {
      if (clause->kind != ClauseKind::kMatch) continue;
      auto slot = std::make_unique<MatchSlot>();
      slot->clause = &static_cast<const MatchClause&>(*clause);
      table.slots.push_back(std::move(slot));
    }
  }
  return table;
}

}  // namespace cypher
