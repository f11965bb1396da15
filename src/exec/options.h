#ifndef CYPHER_EXEC_OPTIONS_H_
#define CYPHER_EXEC_OPTIONS_H_

#include <cstdint>
#include <optional>

#include "common/cancel.h"
#include "common/read_pin.h"
#include "match/matcher.h"

namespace cypher {

/// Which update semantics the engine runs.
///
/// kLegacy is Cypher 9 as described in Sections 3-4: record-at-a-time
/// updates that read their own writes, immediate per-record deletes with
/// zombie entities, and order-dependent MERGE. kRevised is the semantics of
/// Sections 7-8: two-phase atomic SET with conflict errors, atomic DELETE
/// with dangling detection and null substitution, and MERGE ALL/SAME.
enum class SemanticsMode { kLegacy, kRevised };

/// The order in which legacy executors walk the driving table. The paper
/// treats tables as unordered bags that "may be reordered at will by the
/// query-processing engine" — this knob makes that reordering explicit so
/// Example 3's nondeterminism is mechanically demonstrable. Revised
/// executors are order-insensitive by construction and ignore it.
enum class ScanOrder { kForward, kReverse, kShuffle };

/// The five repaired MERGE semantics proposed in Section 6.
/// `MERGE ALL` is kAtomic and `MERGE SAME` is kStrongCollapse (Section 7);
/// the other three are exposed for the Figure 7-9 comparisons.
enum class MergeVariant {
  kAtomic,
  kGrouping,
  kWeakCollapse,
  kCollapse,
  kStrongCollapse,
};

/// Returns a stable display name ("Atomic", "Strong Collapse", ...).
const char* MergeVariantName(MergeVariant variant);

/// Engine configuration for one statement (or a whole session).
struct EvalOptions {
  SemanticsMode semantics = SemanticsMode::kRevised;

  /// Pattern-matching repetition policy (Section 2 trail semantics vs the
  /// homomorphism matching planned for later Cypher versions, Section 6).
  MatchMode match_mode = MatchMode::kRelUnique;

  /// Driving-table scan order for legacy executors.
  ScanOrder scan_order = ScanOrder::kForward;

  /// Seed for ScanOrder::kShuffle.
  uint64_t shuffle_seed = 0;

  /// In revised semantics a bare `MERGE` (without ALL/SAME) is rejected, as
  /// decided in Section 7 ("the query used in Example 5 will no longer be
  /// allowed"). Setting this runs bare MERGE with the given Section 6
  /// variant instead — the knob the figure benches use to compare all five.
  std::optional<MergeVariant> plain_merge_variant;

  /// Enforce the Cypher 9 rule that a reading clause may not follow an
  /// update clause without an intervening WITH (Section 4.4). Off by
  /// default; the revised syntax (Figure 10) drops the rule.
  bool strict_cypher9_syntax = false;

  /// Route statements through the parametrized plan cache
  /// (GraphDatabase::Execute only). Either way the interpreter executes
  /// the statement; a cached statement skips parsing and reuses stamped
  /// match plans. Off = every statement reparses and compiles its patterns
  /// afresh — the reference path the differential suites compare the
  /// cache against.
  bool use_plan_cache = true;

  /// Snapshot session pin (MVCC reads, DESIGN.md §4g). When set, the
  /// statement executes read-only against the pin's committed epoch:
  /// executors install the pin thread-locally around evaluation (graph
  /// accessors resolve against it), skip the journal/validation/commit
  /// machinery, and refuse update clauses. Owned by the ReadSession that
  /// issued the statement; must outlive the Execute call.
  const ReadPin* read_pin = nullptr;

  /// Runaway-query guard: when non-zero, a statement whose driving table
  /// exceeds this many records after any clause aborts (and rolls back)
  /// with an ExecutionError. 0 = unlimited.
  size_t max_rows = 0;

  /// Watchdog handle: the interpreter polls it between clauses and the
  /// matcher/parallel loops poll it at their choice points. A tripped token
  /// aborts the statement with kDeadlineExceeded / kAborted and rolls it
  /// back like any other failure. Default-constructed = never cancels.
  CancelToken cancel;

  // ---- Morsel-driven parallel read execution --------------------------------
  //
  // The read-only fragment (MATCH enumeration, projection, partial
  // aggregation, and the match phase of MERGE ALL / MERGE SAME) can fan out
  // across a worker pool; results are re-merged in morsel order, so the
  // driving table is byte-identical to the sequential one. Updating clauses
  // always apply sequentially, exactly as the paper specifies. Legacy MERGE
  // never parallelizes: it reads its own writes record by record.

  /// Worker threads for the parallel read path, including the calling
  /// thread. 0 or 1 = fully sequential (the default: parallelism is opt-in
  /// per statement or per session).
  size_t parallel_workers = 0;

  /// Work-unit size: anchor-scan domain positions (anchor-partitioned
  /// clauses) or driving-table rows (row-partitioned clauses) per morsel.
  size_t parallel_morsel_size = 256;

  /// Minimum estimated work (records x anchor cost from the compiled plan,
  /// or input rows for projection/aggregation) before the parallel path
  /// engages; below it, fan-out overhead beats the win.
  size_t parallel_min_cost = 2048;
};

}  // namespace cypher

#endif  // CYPHER_EXEC_OPTIONS_H_
