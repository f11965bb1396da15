#ifndef CYPHER_EXEC_AGGREGATE_H_
#define CYPHER_EXEC_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ast/expr.h"
#include "common/result.h"
#include "value/compare.h"
#include "value/value.h"

namespace cypher {

// Partial aggregation for the streamed MATCH -> aggregate pass
// (read_clauses.cc): count/sum/min/max decomposed into partial states that
// are built per anchor tile and merged in tile order, so group
// first-occurrence order, integer-sum overflow behaviour and min/max
// tie-breaks all replicate the sequential executor exactly. Also the flat
// grouping key index (GroupIndex) that every grouping of the read path
// shares.

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

/// Folds one row's argument value into `p` by reference; a null `arg` (an
/// operand that needs the generic rules) flags the fallback. count(*) and
/// kGeneric never get here (see UpdatePartial).
void FoldArgument(const AggSpec& spec, const Value* arg, Partial* p);

/// Folds one row into `p`; `arg()` yields a pointer to the row's argument
/// value (null: see FoldArgument) and is only called when the aggregate
/// reads it.
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

/// The grouping equivalence of the paper (§6, §8) over fixed-arity keys:
/// an open-addressing index from keys to dense group ids in
/// first-occurrence order. Keys live in one contiguous array, `arity`
/// values per group, beside each group's 64-bit hash; the slot table holds
/// ids only, so growing it rehashes no value. Hashing and equality are
/// HashValue / GroupEquals, folded over the key as ValueVecHash does
/// (1 and 1.0 share a group, null groups with null, different types stay
/// apart). It holds the streamed aggregate's per-tile and merged groups,
/// the groups of a materialized aggregation and projection DISTINCT.
class GroupIndex {
 public:
  explicit GroupIndex(size_t arity) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t size() const { return hashes_.size(); }

  /// Group `g`'s key: `arity()` values.
  const Value* key(size_t g) const { return keys_.data() + g * arity_; }
  Value* mutable_key(size_t g) { return keys_.data() + g * arity_; }
  uint64_t hash(size_t g) const { return hashes_[g]; }

  /// The fold of HashValue over `key(0) .. key(arity - 1)`.
  template <typename KeyFn>
  static uint64_t Hash(size_t arity, const KeyFn& key) {
    uint64_t h = kHashSeed;
    for (size_t i = 0; i < arity; ++i) h = HashStep(h, HashValue(key(i)));
    return h;
  }

  /// The id of the group whose key is `key(0) .. key(arity - 1)` (hashing
  /// to `hash`), appended on first occurrence with `*inserted` set. Only an
  /// insert reads `key(i)` beyond comparing it: a `const Value&` accessor
  /// copies the key in, a `Value&&` one moves it.
  template <typename KeyFn>
  size_t FindOrInsert(uint64_t hash, const KeyFn& key, bool* inserted);

 private:
  static constexpr uint64_t kHashSeed = 59;
  static uint64_t HashStep(uint64_t h, uint64_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  }
  static constexpr uint32_t kEmpty = 0;  // slots hold group id + 1
  static constexpr size_t kMinSlots = 16;

  /// The slot of `hash`'s probe sequence start (Fibonacci hashing: the
  /// folded hash is weak in its low bits for integer keys).
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  /// Doubles the slot table (or creates it) and re-seats every group.
  void Grow();

  size_t arity_;
  std::vector<Value> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> slots_;  // power of two, at most half full
  unsigned shift_ = 64;
};

template <typename KeyFn>
size_t GroupIndex::FindOrInsert(uint64_t hash, const KeyFn& key,
                                bool* inserted) {
  if (2 * (size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t s = Home(hash);
  for (; slots_[s] != kEmpty; s = (s + 1) & mask) {
    size_t g = slots_[s] - 1;
    if (hashes_[g] != hash) continue;
    const Value* stored = this->key(g);
    size_t i = 0;
    while (i < arity_ && GroupEquals(stored[i], key(i))) ++i;
    if (i == arity_) {
      *inserted = false;
      return g;
    }
  }
  size_t g = size();
  for (size_t i = 0; i < arity_; ++i) keys_.push_back(key(i));
  hashes_.push_back(hash);
  slots_[s] = static_cast<uint32_t>(g + 1);
  *inserted = true;
  return g;
}

/// Key accessors for GroupIndex: `CopyKey(p)` reads p[0 .. arity - 1] and
/// copies it on insert, `MoveKey(p)` moves it in.
inline auto CopyKey(const Value* key) {
  return [key](size_t i) -> const Value& { return key[i]; };
}
inline auto MoveKey(Value* key) {
  return [key](size_t i) -> Value&& { return std::move(key[i]); };
}

/// One tile's (or the merged) grouping state: the group index plus
/// `num_items` Partials per group (one per aggregate item), contiguous in
/// group order.
struct GroupSet {
  GroupSet(size_t num_keys, size_t num_items)
      : index(num_keys), num_items(num_items) {}

  size_t size() const { return index.size(); }
  Partial* partials_of(size_t g) { return partials.data() + g * num_items; }

  /// The group keyed `key(0) .. key(num_keys - 1)`, appended with fresh
  /// partials on its first occurrence (the only time the key is stored).
  template <typename KeyFn>
  size_t Group(uint64_t hash, const KeyFn& key) {
    bool inserted;
    size_t g = index.FindOrInsert(hash, key, &inserted);
    if (inserted) partials.resize(partials.size() + num_items);
    return g;
  }

  GroupIndex index;
  size_t num_items;
  std::vector<Partial> partials;
};

/// Folds per-tile group sets into the first, in tile order and within a
/// tile by group id. First occurrence across ordered tiles is first
/// occurrence across rows, so the merged group order is exactly the
/// sequential group order; a later tile's partials merge into the earlier
/// ones (MergePartial), `specs` giving each partial's aggregate. `global`
/// creates the empty-key group when no row arrived: an ungrouped aggregate
/// has one output row even then.
GroupSet MergeGroupSets(std::vector<GroupSet>&& parts,
                        const std::vector<AggSpec>& specs, bool global);

}  // namespace cypher

#endif  // CYPHER_EXEC_AGGREGATE_H_
