#include "exec/aggregate.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/check.h"

namespace cypher {

AggSpec ClassifyAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kCountStar) {
    return {AggOp::kCountStar, false, nullptr};
  }
  if (expr.kind != ExprKind::kFunction) return {};
  const auto& call = static_cast<const FunctionExpr&>(expr);
  if (!IsAggregateFunctionName(call.name) || call.args.size() != 1) return {};
  AggOp op;
  if (call.name == "count") {
    op = AggOp::kCount;
  } else if (call.name == "sum") {
    op = AggOp::kSum;
  } else if (call.name == "min") {
    op = AggOp::kMin;
  } else if (call.name == "max") {
    op = AggOp::kMax;
  } else if (call.name == "collect") {
    op = AggOp::kCollect;
  } else {
    return {};
  }
  return {op, call.distinct, call.args[0].get()};
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

void FoldArgument(const AggSpec& spec, Result<Value> arg, Partial* p) {
  if (!arg.ok()) {
    // Not a task error: the sequential executor only hits this once group
    // finalization reaches this (group, item) — the generic fallback will
    // re-raise it at exactly that point.
    p->fallback = true;
    return;
  }
  Value v = std::move(arg).value();
  if (v.is_null()) return;  // every aggregate skips nulls
  if (spec.distinct) {
    if (p->seen.insert(v).second) p->values.push_back(std::move(v));
    return;
  }
  switch (spec.op) {
    case AggOp::kCount:
      ++p->count;
      break;
    case AggOp::kCollect:
      p->values.push_back(std::move(v));
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
        p->best = std::move(v);
        p->has_best = true;
      } else {
        int cmp = TotalOrderCompare(v, p->best);
        if ((spec.op == AggOp::kMin && cmp < 0) ||
            (spec.op == AggOp::kMax && cmp > 0)) {
          p->best = std::move(v);
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
      into->count += next.count;
      return;
    case AggOp::kGeneric:
      return;
    default:
      break;
  }
  if (spec.distinct) {
    for (Value& v : next.values) {
      if (into->seen.insert(v).second) into->values.push_back(std::move(v));
    }
    return;
  }
  switch (spec.op) {
    case AggOp::kCount:
      into->count += next.count;
      break;
    case AggOp::kCollect:
      into->values.insert(into->values.end(),
                          std::make_move_iterator(next.values.begin()),
                          std::make_move_iterator(next.values.end()));
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
    case AggOp::kCountStar:
    case AggOp::kGeneric:
      break;  // handled above
  }
}

namespace {

/// The sequential sum() loop (evaluator.cc), replayed over a DISTINCT
/// merged value list: same type checks, same stepwise overflow, same
/// messages.
Result<Value> ReplaySum(const std::vector<Value>& values) {
  bool all_int = true;
  double fsum = 0;
  int64_t isum = 0;
  for (const Value& v : values) {
    if (!v.is_number()) {
      return Status::ExecutionError("sum() expects numeric values");
    }
    if (v.is_int()) {
      if (__builtin_add_overflow(isum, v.AsInt(), &isum)) {
        return Status::ExecutionError("integer overflow in sum()");
      }
    } else {
      all_int = false;
    }
    fsum += v.AsNumber();
  }
  return all_int ? Value::Int(isum) : Value::Float(fsum);
}

/// The sequential min()/max() scan, replayed over a DISTINCT merged list.
Result<Value> ReplayMinMax(const std::vector<Value>& values, bool is_min) {
  if (values.empty()) return Value::Null();
  const Value* best = &values[0];
  for (const Value& v : values) {
    int cmp = TotalOrderCompare(v, *best);
    if ((is_min && cmp < 0) || (!is_min && cmp > 0)) best = &v;
  }
  return *best;
}

}  // namespace

Result<Value> FinalizePartial(const AggSpec& spec, Partial&& p) {
  if (spec.distinct) {
    switch (spec.op) {
      case AggOp::kCount:
        return Value::Int(static_cast<int64_t>(p.values.size()));
      case AggOp::kCollect:
        return Value::List(std::move(p.values));
      case AggOp::kSum:
        return ReplaySum(p.values);
      case AggOp::kMin:
      case AggOp::kMax:
        return ReplayMinMax(p.values, spec.op == AggOp::kMin);
      default:
        break;
    }
  }
  switch (spec.op) {
    case AggOp::kCountStar:
    case AggOp::kCount:
      return Value::Int(p.count);
    case AggOp::kCollect:
      return Value::List(std::move(p.values));
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

size_t GroupSet::Group(const std::vector<Value>& key, size_t num_items) {
  auto it = index.find(key);
  if (it != index.end()) return it->second;
  size_t g = keys.size();
  index.emplace(key, g);
  keys.push_back(key);
  rows.emplace_back();
  partials.emplace_back(num_items);
  return g;
}

GroupSet MergeGroupSets(std::vector<GroupSet>&& parts,
                        const std::vector<AggSpec>& specs, bool global) {
  if (parts.size() == 1) {
    GroupSet only = std::move(parts.front());
    if (global && only.keys.empty()) only.Group({}, specs.size());
    return only;
  }
  GroupSet merged;
  if (global) merged.Group({}, specs.size());
  for (GroupSet& gs : parts) {
    for (size_t g = 0; g < gs.keys.size(); ++g) {
      auto [it, inserted] =
          merged.index.try_emplace(gs.keys[g], merged.keys.size());
      if (inserted) {
        merged.keys.push_back(std::move(gs.keys[g]));
        merged.rows.push_back(std::move(gs.rows[g]));
        merged.partials.push_back(std::move(gs.partials[g]));
        continue;
      }
      size_t m = it->second;
      merged.rows[m].insert(merged.rows[m].end(), gs.rows[g].begin(),
                            gs.rows[g].end());
      for (size_t i = 0; i < specs.size(); ++i) {
        MergePartial(specs[i], std::move(gs.partials[g][i]),
                     &merged.partials[m][i]);
      }
    }
  }
  return merged;
}

}  // namespace cypher
