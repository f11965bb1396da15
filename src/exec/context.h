#ifndef CYPHER_EXEC_CONTEXT_H_
#define CYPHER_EXEC_CONTEXT_H_

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "eval/env.h"
#include "exec/options.h"
#include "exec/stats.h"
#include "graph/graph.h"
#include "table/table.h"
#include "value/value.h"

namespace cypher {

struct MatchSlots;

/// Mutable state threaded through clause executors for one statement.
struct ExecContext {
  ExecContext(PropertyGraph* g, const ValueMap* p, const EvalOptions& o)
      : graph(g), params(p), options(o), rng(o.shuffle_seed) {}

  PropertyGraph* graph;
  const ValueMap* params;
  const EvalOptions& options;
  UpdateStats stats;
  SplitMix64 rng;
  /// The cached statement's match-plan slots (exec/match_slots.h); null
  /// when the statement did not come from the plan cache.
  const MatchSlots* match_slots = nullptr;

  /// Read-only view for the expression evaluator.
  EvalContext Eval() const {
    return EvalContext{graph, params, options.match_mode, &options.cancel};
  }

  MatchOptions Match() const { return MatchOptions{options.match_mode}; }

  /// The record visit order for legacy executors: forward, reverse, or a
  /// seeded shuffle of [0, n). Revised executors must not call this (they
  /// are order-insensitive and always iterate forward).
  std::vector<size_t> LegacyScanOrder(size_t n) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    switch (options.scan_order) {
      case ScanOrder::kForward:
        break;
      case ScanOrder::kReverse:
        for (size_t i = 0; i < n / 2; ++i) std::swap(order[i], order[n - 1 - i]);
        break;
      case ScanOrder::kShuffle:
        rng.Shuffle(&order);
        break;
    }
    return order;
  }
};

}  // namespace cypher

#endif  // CYPHER_EXEC_CONTEXT_H_
