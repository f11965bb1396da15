#ifndef CYPHER_EXEC_AGGREGATE_H_
#define CYPHER_EXEC_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ast/expr.h"
#include "common/result.h"
#include "table/table.h"
#include "value/compare.h"
#include "value/value.h"

namespace cypher {

// Partial aggregation for the streamed MATCH -> aggregate pass
// (read_clauses.cc): count/sum/min/max decomposed into partial states that
// are built per anchor tile and merged in tile order, so group
// first-occurrence order, integer-sum overflow behaviour and min/max
// tie-breaks all replicate the sequential executor exactly.

/// Aggregates with a partial/merge decomposition. Anything else — avg()
/// (a float sum), collect(), DISTINCT, aggregates nested inside larger
/// expressions, unknown names — carries kGeneric and keeps the
/// materialized path.
enum class AggOp { kGeneric, kCountStar, kCount, kSum, kMin, kMax };

struct AggSpec {
  AggOp op = AggOp::kGeneric;
  const Expr* arg = nullptr;  // null for kCountStar / kGeneric
};

AggSpec ClassifyAggregate(const Expr& expr);

/// Exact running stats of an integer-sum prefix sequence, wide enough that
/// the partials themselves cannot overflow. The sequential loop errors at
/// the first prefix outside int64 (stepwise __builtin_add_overflow), so two
/// segments merge by composing prefix extrema under the left segment's
/// offset: overflow happened iff some row-granular prefix of the merged
/// sequence escapes int64 — even when later rows bring the total back in
/// range. The empty prefix (0) is included; it is always in range, so it
/// never manufactures an error.
struct SumStats {
  __int128 sum = 0;
  __int128 max_prefix = 0;
  __int128 min_prefix = 0;

  void Add(int64_t v) {
    sum += v;
    if (sum > max_prefix) max_prefix = sum;
    if (sum < min_prefix) min_prefix = sum;
  }
  void Merge(const SumStats& next);
  bool Overflowed() const;
};

/// Partial state of one (group, item) pair within one tile, merged across
/// tiles in tile order.
struct Partial {
  int64_t count = 0;  // kCountStar / kCount
  SumStats sum;       // kSum (integers only)
  Value best;         // kMin / kMax
  bool has_best = false;
  /// The fast path met something it cannot decompose exactly — an argument
  /// evaluation error, or a float / non-number in sum() (whose stepwise
  /// int-overflow check is order-entangled with the float path). The
  /// streamed pass then declines and the materialized path reruns the pair,
  /// reproducing its value or its error verbatim.
  bool fallback = false;
};

/// Folds one row's argument value — or its evaluation error, which flags
/// the fallback — into `p`. count(*) and kGeneric never get here
/// (see UpdatePartial).
void FoldArgument(const AggSpec& spec, Result<Value> arg, Partial* p);

/// Folds one row into `p`; `arg()` yields the row's argument value and is
/// only called when the aggregate reads it.
template <typename ArgFn>
void UpdatePartial(const AggSpec& spec, Partial* p, const ArgFn& arg) {
  if (spec.op == AggOp::kCountStar) {
    ++p->count;
    return;
  }
  if (spec.op == AggOp::kGeneric || p->fallback) return;
  FoldArgument(spec, arg(), p);
}

/// Folds `next` (the later tile) into `into` (the earlier), preserving
/// sequential row order everywhere order matters.
void MergePartial(const AggSpec& spec, Partial&& next, Partial* into);

/// The aggregate's value from a partial without fallback (kGeneric has
/// none); the only error is integer overflow in sum().
Result<Value> FinalizePartial(const AggSpec& spec, Partial&& p);

/// One tile's (or the merged) grouping state: groups in first-occurrence
/// order, each with its key and one Partial per projection item (key items
/// keep an unused kGeneric partial).
struct GroupSet {
  std::vector<std::vector<Value>> keys;
  std::vector<std::vector<Partial>> partials;
  std::unordered_map<std::vector<Value>, size_t, ValueVecHash, ValueVecEq>
      index;

  /// The group keyed `key`, appended with `num_items` fresh partials on its
  /// first occurrence.
  size_t Group(const std::vector<Value>& key, size_t num_items);
};

/// Folds per-tile group sets into one, in tile order. First occurrence
/// across ordered tiles is first occurrence across rows, so the merged
/// group order is exactly the sequential group order. `global` creates the
/// empty-key group up front: an ungrouped aggregate has one output row even
/// when no row arrives.
GroupSet MergeGroupSets(std::vector<GroupSet>&& parts,
                        const std::vector<AggSpec>& specs, bool global);

}  // namespace cypher

#endif  // CYPHER_EXEC_AGGREGATE_H_
