#ifndef CYPHER_EXEC_MATCH_SLOTS_H_
#define CYPHER_EXEC_MATCH_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ast/clause.h"
#include "graph/graph.h"
#include "match/compiled_pattern.h"

namespace cypher {

/// Everything PlanAnchor and the reversal/expansion cost model read from
/// the graph: interner sizes (a grown interner can resolve a label/type/key
/// that previously compiled to "impossible"), index presence (the epoch
/// counts creations and drops), alive-entity counts, and every per-label
/// cardinality (folded into one hash). Two executions with equal stamps see
/// identical planner inputs, so a cached match plan replays byte-identically
/// — including emission order. Over-invalidation (a write that changes
/// counts without changing the best plan) only costs a re-compile.
struct PlanStamp {
  size_t num_label_symbols = 0;
  size_t num_type_symbols = 0;
  size_t num_key_symbols = 0;
  uint64_t index_epoch = 0;
  size_t num_nodes = 0;
  size_t num_rels = 0;
  uint64_t label_counts_hash = 0;

  bool operator==(const PlanStamp& o) const {
    return num_label_symbols == o.num_label_symbols &&
           num_type_symbols == o.num_type_symbols &&
           num_key_symbols == o.num_key_symbols &&
           index_epoch == o.index_epoch && num_nodes == o.num_nodes &&
           num_rels == o.num_rels &&
           label_counts_hash == o.label_counts_hash;
  }
};

PlanStamp TakeStamp(const PropertyGraph& graph);

/// The stamped plan slot of one top-level MATCH / OPTIONAL MATCH clause of
/// a cached statement. The pattern plan cannot be compiled when the
/// statement enters the cache — anchor selection reads live graph
/// statistics — so ExecMatch fills the slot lazily and revalidates it per
/// execution. The slot is shared by every session running the cached
/// statement; `mu` guards it.
struct MatchSlot {
  const MatchClause* clause = nullptr;

  mutable std::mutex mu;
  mutable PlanStamp stamp;
  mutable std::shared_ptr<const CompiledMatch> plan;  // null until compiled
};

/// The slot table of one cached statement: a slot per top-level MATCH
/// clause of every UNION branch. Immutable once built except for the
/// internally locked slots, so concurrent sessions share it.
struct MatchSlots {
  std::vector<std::unique_ptr<MatchSlot>> slots;

  /// The slot for `clause`, or null when it has none (a MATCH nested in
  /// CALL {...}); such a clause compiles fresh on every execution.
  const MatchSlot* Find(const MatchClause& clause) const {
    for (const std::unique_ptr<MatchSlot>& slot : slots) {
      if (slot->clause == &clause) return slot.get();
    }
    return nullptr;
  }
};

}  // namespace cypher

#endif  // CYPHER_EXEC_MATCH_SLOTS_H_
