#include "exec/aggregate.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace cypher {

AggSpec ClassifyAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kCountStar) {
    return {AggOp::kCountStar, nullptr};
  }
  if (expr.kind != ExprKind::kFunction) return {};
  const auto& call = static_cast<const FunctionExpr&>(expr);
  if (!IsAggregateFunctionName(call.name) || call.args.size() != 1 ||
      call.distinct) {
    return {};
  }
  AggOp op;
  if (call.name == "count") {
    op = AggOp::kCount;
  } else if (call.name == "sum") {
    op = AggOp::kSum;
  } else if (call.name == "min") {
    op = AggOp::kMin;
  } else if (call.name == "max") {
    op = AggOp::kMax;
  } else {
    return {};
  }
  return {op, call.args[0].get()};
}

void SumStats::Merge(const SumStats& next) {
  max_prefix = std::max(max_prefix, sum + next.max_prefix);
  min_prefix = std::min(min_prefix, sum + next.min_prefix);
  sum += next.sum;
}

bool SumStats::Overflowed() const {
  return max_prefix >
             static_cast<__int128>(std::numeric_limits<int64_t>::max()) ||
         min_prefix <
             static_cast<__int128>(std::numeric_limits<int64_t>::min());
}

void FoldArgument(const AggSpec& spec, const Value* arg, Partial* p) {
  if (arg == nullptr) {
    // Not a task error: the sequential executor only meets the generic
    // rules once group finalization reaches this (group, item) — the
    // materialized rerun decides the value or the error at exactly that
    // point.
    p->fallback = true;
    return;
  }
  const Value& v = *arg;
  if (v.is_null()) return;  // every aggregate skips nulls
  switch (spec.op) {
    case AggOp::kCount:
      ++p->count;
      break;
    case AggOp::kSum:
      if (v.is_int()) {
        p->sum.Add(v.AsInt());
      } else {
        p->fallback = true;
      }
      break;
    case AggOp::kMin:
    case AggOp::kMax: {
      if (!p->has_best) {
        p->best = v;
        p->has_best = true;
      } else {
        int cmp = TotalOrderCompare(v, p->best);
        if ((spec.op == AggOp::kMin && cmp < 0) ||
            (spec.op == AggOp::kMax && cmp > 0)) {
          p->best = v;
        }
      }
      break;
    }
    case AggOp::kCountStar:
    case AggOp::kGeneric:
      break;  // handled by UpdatePartial
  }
}

void MergePartial(const AggSpec& spec, Partial&& next, Partial* into) {
  into->fallback |= next.fallback;
  switch (spec.op) {
    case AggOp::kCountStar:
    case AggOp::kCount:
      into->count += next.count;
      break;
    case AggOp::kSum:
      into->sum.Merge(next.sum);
      break;
    case AggOp::kMin:
    case AggOp::kMax:
      if (!into->has_best) {
        into->best = std::move(next.best);
        into->has_best = next.has_best;
      } else if (next.has_best) {
        // `next` holds later rows: it only replaces on a strict win, which
        // is exactly the sequential first-seen tie-break.
        int cmp = TotalOrderCompare(next.best, into->best);
        if ((spec.op == AggOp::kMin && cmp < 0) ||
            (spec.op == AggOp::kMax && cmp > 0)) {
          into->best = std::move(next.best);
        }
      }
      break;
    case AggOp::kGeneric:
      break;
  }
}

Result<Value> FinalizePartial(const AggSpec& spec, Partial&& p) {
  switch (spec.op) {
    case AggOp::kCountStar:
    case AggOp::kCount:
      return Value::Int(p.count);
    case AggOp::kSum:
      if (p.sum.Overflowed()) {
        return Status::ExecutionError("integer overflow in sum()");
      }
      return Value::Int(static_cast<int64_t>(p.sum.sum));
    case AggOp::kMin:
    case AggOp::kMax:
      if (!p.has_best) return Value::Null();
      return std::move(p.best);
    case AggOp::kGeneric:
      break;
  }
  CYPHER_CHECK(false && "generic aggregate has no partial finalize");
  return Value::Null();
}

void GroupIndex::Grow() {
  size_t capacity = slots_.empty() ? kMinSlots : 2 * slots_.size();
  CYPHER_CHECK(capacity / 2 < std::numeric_limits<uint32_t>::max());
  slots_.assign(capacity, kEmpty);
  shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
  const size_t mask = capacity - 1;
  for (size_t g = 0; g < hashes_.size(); ++g) {
    size_t s = Home(hashes_[g]);
    while (slots_[s] != kEmpty) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(g + 1);
  }
}

GroupSet MergeGroupSets(std::vector<GroupSet>&& parts,
                        const std::vector<AggSpec>& specs, bool global) {
  GroupSet merged = std::move(parts.front());
  if (global && merged.size() == 0) {
    merged.Group(GroupIndex::Hash(0, CopyKey(nullptr)), CopyKey(nullptr));
  }
  for (size_t t = 1; t < parts.size(); ++t) {
    GroupSet& tile = parts[t];
    for (size_t g = 0; g < tile.size(); ++g) {
      size_t before = merged.size();
      size_t m = merged.Group(tile.index.hash(g),
                              MoveKey(tile.index.mutable_key(g)));
      Partial* from = tile.partials_of(g);
      Partial* into = merged.partials_of(m);
      if (m == before) {  // first seen in this tile
        std::move(from, from + specs.size(), into);
        continue;
      }
      for (size_t i = 0; i < specs.size(); ++i) {
        MergePartial(specs[i], std::move(from[i]), &into[i]);
      }
    }
  }
  return merged;
}

}  // namespace cypher
