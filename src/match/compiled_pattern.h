#ifndef CYPHER_MATCH_COMPILED_PATTERN_H_
#define CYPHER_MATCH_COMPILED_PATTERN_H_

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ast/pattern.h"
#include "common/interner.h"
#include "eval/env.h"
#include "value/value.h"

namespace cypher {

// Compile-then-execute lowering of MATCH/MERGE patterns, following the
// relational-algebra formalisation of openCypher (Marton, Szárnyas, Varró):
// all string->Symbol resolution, constant folding and access-path selection
// happen once per clause; record-at-a-time execution then touches only
// pre-resolved symbols and pre-evaluated values.

/// One `{key: expr}` property filter with its key resolved to a Symbol.
/// An expression with no variable / graph / aggregate dependency is folded
/// to a Value at compile time; a row-dependent expression instead gets a
/// memo slot so the engine evaluates it once per record, not per candidate.
struct CompiledFilter {
  Symbol key = kNoSymbol;      // kNoSymbol: key never interned (value null)
  const Expr* expr = nullptr;  // source expression, never null
  bool is_constant = false;    // `constant` holds the folded value
  Value constant;
  size_t memo_slot = 0;  // valid when !is_constant
};

/// How one occurrence of a pattern variable behaves, decided at compile
/// time (boundness is a column-level property of the driving table, and
/// earlier patterns/steps bind in a fixed execution order):
///   kNone       — anonymous; nothing to bind or check.
///   kBind       — first occurrence: binds the matched entity, no lookup.
///   kCheckLocal — bound by an earlier pattern/step of this MATCH: the
///                 candidate must equal the value on the assignment stack.
///   kCheckInput — bound by the driving record: the candidate must equal
///                 the record's value (fetched once per record).
enum class VarClass { kNone, kBind, kCheckLocal, kCheckInput };

/// A node pattern with labels resolved. `impossible` marks a label that was
/// never interned: no node can carry it, so the containing pattern
/// short-circuits to zero matches without enumerating candidates.
struct CompiledNode {
  const NodePattern* source = nullptr;
  std::vector<Symbol> labels;
  std::vector<CompiledFilter> filters;
  VarClass var_class = VarClass::kNone;
  size_t input_slot = 0;  // valid when var_class == kCheckInput
  bool impossible = false;
};

/// A relationship pattern with types resolved. Unknown type alternatives
/// are dropped; `impossible` is set when alternatives were written but none
/// resolved. `direction` is the *execution* direction — flipped from the
/// syntax when the pattern runs reversed.
struct CompiledRel {
  const RelPattern* source = nullptr;
  std::vector<Symbol> types;
  std::vector<CompiledFilter> filters;
  RelDirection direction = RelDirection::kUndirected;
  VarClass var_class = VarClass::kNone;
  size_t input_slot = 0;  // valid when var_class == kCheckInput
  bool impossible = false;
};

/// How the engine seeds the first node of a pattern, cheapest first.
/// kTransientIndex is a one-shot hash built at compile time when a clause
/// will probe an unindexed property with equality once per driving record:
/// one O(domain) build replaces a per-record O(domain) scan.
enum class AnchorKind { kBound, kIndex, kTransientIndex, kLabelScan, kAllScan };

struct AnchorPlan {
  AnchorKind kind = AnchorKind::kAllScan;
  Symbol label = kNoSymbol;  // kIndex / kTransientIndex / kLabelScan
                             //   (kNoSymbol: all-node domain)
  Symbol key = kNoSymbol;    // kIndex / kTransientIndex
  size_t index_filter = 0;   // kIndex / kTransientIndex: position in the
                             //   anchor node's filters
  size_t cost = 0;           // estimated candidates to try
};

/// The one-shot hash behind a kTransientIndex anchor: HashValue buckets of
/// the anchor domain's nodes by their `key` property, ascending ids within
/// each bucket (the scan order the bucket replaces — hash collisions and
/// group-equal-but-distinct values are re-checked by the engine's filters,
/// so a bucket only needs to be a superset). Nodes without the property are
/// omitted: a stored null never equals any probe value. Shared, immutable
/// after build; parallel workers probe it concurrently.
struct TransientIndex {
  Symbol key = kNoSymbol;
  std::unordered_map<uint64_t, std::vector<NodeId>> buckets;
};

/// One executable path pattern. When the far end of the chain is a strictly
/// cheaper anchor than the syntactic start, the chain is stored reversed
/// (`reversed`), each relationship direction flipped; the engine re-reverses
/// emitted paths so `p = ...` still observes syntactic order. Patterns with
/// variable-length steps or path functions never reverse.
struct CompiledPath {
  const PathPattern* source = nullptr;
  bool impossible = false;
  bool reversed = false;
  /// The path variable collides with an existing binding (raised as a
  /// semantic error when a match reaches the pattern's end, as the
  /// interpreted engine did).
  bool path_var_conflict = false;
  CompiledNode start;  // the anchor end
  std::vector<std::pair<CompiledRel, CompiledNode>> steps;
  AnchorPlan anchor;
  /// Built when anchor.kind == kTransientIndex (null on EXPLAIN-only
  /// compiles, where the engine falls back to the scan it replaced).
  std::shared_ptr<const TransientIndex> transient;
};

/// A compiled conjunction of path patterns, ready for record-at-a-time
/// execution. Compile once per clause and reuse across records; executors
/// whose graph mutates between records (legacy MERGE reads its own writes,
/// so a label unknown at clause start can exist by record three) must
/// recompile per record instead.
struct CompiledMatch {
  std::vector<CompiledPath> paths;
  size_t memo_slots = 0;   // row-dependent filter cache slots to allocate
  size_t input_slots = 0;  // kCheckInput value cache slots to allocate
  bool impossible = false; // some pattern can never match
};

/// Compile-time knobs that depend on how the compiled match will be driven.
struct CompileMatchHints {
  /// Driving-table records the compiled match will execute over. At least
  /// kTransientIndexMinRows enables transient hash anchors (the build cost
  /// must amortize over repeated probes); the default of 1 keeps one-record
  /// compiles — pattern predicates, legacy MERGE — on the plain planner.
  size_t num_rows = 1;
};

/// A transient hash anchor needs this many driving records (each probing
/// once) and at least this large a scan domain to beat rescanning.
inline constexpr size_t kTransientIndexMinRows = 4;
inline constexpr size_t kTransientIndexMinDomain = 64;

/// Lowers `patterns` for execution against `ctx.graph`. `bindings` supplies
/// which variables are already bound (anchor selection — boundness is a
/// column-level property, identical across records of one table) and the
/// environment for constant folding. Folding is best-effort: a constant
/// expression whose evaluation fails is left unfolded so its error still
/// surfaces exactly when a candidate reaches the filter. Never fails.
CompiledMatch CompileMatch(const EvalContext& ctx, const Bindings& bindings,
                           const std::vector<PathPattern>& patterns,
                           const CompileMatchHints& hints = {});

/// EXPLAIN-time variant: no driving table exists, so `bound` lists the
/// variable names earlier clauses would have bound. Constant folding sees
/// parameters only.
CompiledMatch CompileMatchForExplain(
    const EvalContext& ctx, const std::unordered_set<std::string>& bound,
    const std::vector<PathPattern>& patterns);

/// Human-readable access-path summary for EXPLAIN, one fragment per
/// pattern: "index: :User(id)", "scan: label :User (~12 nodes)",
/// "scan: all nodes (~40)", "bound: 'u'", prefixed with "reversed, " when
/// the chain runs from its far end, or "never matches: ..." for impossible
/// patterns.
std::string DescribeMatchPlan(const PropertyGraph& graph,
                              const CompiledMatch& compiled);

}  // namespace cypher

#endif  // CYPHER_MATCH_COMPILED_PATTERN_H_
