#ifndef CYPHER_EVAL_ENV_H_
#define CYPHER_EVAL_ENV_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "graph/graph.h"
#include "table/table.h"
#include "value/value.h"

namespace cypher {

/// Relationship-repetition policy during pattern matching.
///
/// kRelUnique is Cypher's semantics (Section 2): distinct relationship
/// patterns in one MATCH must bind distinct relationships ("trail"
/// semantics) — this is what keeps `MATCH (v)-[*]->(v)` finite.
/// kHomomorphism lifts the restriction (planned for future Cypher per
/// Section 6, needed to re-match Strong Collapse outputs in Example 7).
enum class MatchMode { kRelUnique, kHomomorphism };

/// Statement-wide evaluation context: the graph G that expressions read,
/// the caller's parameter map, and the matching mode (used by existential
/// pattern predicates inside expressions).
struct EvalContext {
  const PropertyGraph* graph = nullptr;
  const ValueMap* params = nullptr;
  MatchMode match_mode = MatchMode::kRelUnique;
  /// Watchdog token the match/expansion loops poll (through a CancelGate);
  /// null means the statement runs uncancellable.
  const CancelToken* cancel = nullptr;
};

/// One record u of the driving table, viewed without copying, plus an
/// overlay for locally-scoped variables (the FOREACH iteration variable and
/// CREATE's saturation temporaries).
class Bindings {
 public:
  /// An empty environment (no variables bound).
  Bindings() = default;

  /// Views row `row` of `table`. The table must outlive the bindings.
  Bindings(const Table* table, size_t row) : table_(table), row_(row) {}

  /// Adds/overrides a local binding (shadowing the table's column).
  void Push(std::string name, Value value) {
    extras_.emplace_back(std::move(name), std::move(value));
  }

  void Pop() { extras_.pop_back(); }

  /// Looks up a variable; nullopt when unbound (distinct from bound-to-null).
  std::optional<Value> Lookup(std::string_view name) const {
    for (auto it = extras_.rbegin(); it != extras_.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    if (table_ != nullptr) {
      size_t col = table_->ColumnIndex(name);
      if (col != Table::kNoColumn) return table_->At(row_, col);
    }
    return std::nullopt;
  }

  bool IsBound(std::string_view name) const { return Lookup(name).has_value(); }

  const Table* table() const { return table_; }
  size_t row() const { return row_; }

 private:
  const Table* table_ = nullptr;
  size_t row_ = 0;
  std::vector<std::pair<std::string, Value>> extras_;
};

}  // namespace cypher

#endif  // CYPHER_EVAL_ENV_H_
