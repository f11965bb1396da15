#ifndef CYPHER_MATCH_MATCHER_H_
#define CYPHER_MATCH_MATCHER_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ast/pattern.h"
#include "common/result.h"
#include "eval/env.h"
#include "match/compiled_pattern.h"

namespace cypher {

// MatchMode lives in eval/env.h (part of EvalContext so expression-level
// pattern predicates use the session's matching mode).

struct MatchOptions {
  MatchMode mode = MatchMode::kRelUnique;
  /// The pinned committed epoch this match reads (0 = latest state / no
  /// MVCC session). Set from EvalOptions::read_pin by ExecContext::Match;
  /// fanned-out helpers inherit the actual pin through the thread pool, so
  /// this field's job is plan identity: cached match plans compiled under a
  /// pin are stamped with it and never shared across epochs.
  uint64_t snapshot_epoch = 0;
};

/// Variable assignment produced by one successful match: the bindings added
/// on top of the input record, in deterministic order (pattern syntactic
/// order, first occurrence).
class MatchAssignment {
 public:
  void Push(const std::string& name, Value value) {
    entries_.emplace_back(name, std::move(value));
  }
  void PopTo(size_t size) { entries_.resize(size); }
  size_t size() const { return entries_.size(); }

  /// Looks up a variable in this assignment only; nullptr when absent.
  const Value* Find(std::string_view name) const {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->first == name) return &it->second;
    }
    return nullptr;
  }

  const std::vector<std::pair<std::string, Value>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, Value>> entries_;
};

/// Receives each complete match. Return false to stop enumeration early
/// (used by MERGE's existence checks), or an error Status to abort.
using MatchSink = std::function<Result<bool>(const MatchAssignment&)>;

/// Enumerates all matches of a conjunction of path patterns in `ctx.graph`,
/// consistent with the already-bound variables in `bindings` (the driving
/// table record). Matches are emitted in a deterministic order (ascending
/// entity ids at every choice point), which the legacy executors rely on
/// for reproducible anomaly demonstrations.
///
/// Property expressions inside patterns are evaluated against `bindings`
/// and compared with CypherEquals: a filter value of null never matches
/// (exactly why Example 5's null-keyed records always fall through to
/// MERGE's create branch).
Status MatchPatterns(const EvalContext& ctx, const Bindings& bindings,
                     const std::vector<PathPattern>& patterns,
                     const MatchOptions& options, const MatchSink& sink);

/// Same, over an already-compiled match (see CompileMatch). Executors that
/// drive many records through one clause compile once and call this per
/// record; MatchPatterns is the compile-per-call convenience wrapper.
/// `bindings` must bind the same variables as the compile-time environment
/// (boundness is a column property) but may hold different row values.
Status MatchCompiled(const EvalContext& ctx, const Bindings& bindings,
                     const CompiledMatch& compiled, const MatchOptions& options,
                     const MatchSink& sink);

/// A contiguous slice [begin, end) of the first path's anchor-scan domain:
/// label-index bucket positions for a kLabelScan anchor, node slots for a
/// kAllScan anchor (see AnchorScanDomain). The parallel executor splits the
/// domain into contiguous tiles; concatenating every tile's matches in
/// range order is byte-identical to the unrestricted enumeration.
struct AnchorMorsel {
  size_t begin = 0;
  size_t end = 0;
};

/// The partitionable domain size of `compiled`'s first path: the label
/// bucket size (kLabelScan), the node-slot capacity (kAllScan), or 0 when
/// the anchor is not a scan (bound / index / transient-hash anchors probe
/// value-dependent candidate sets, which are already cheap). 0 also when
/// the match is impossible or has no paths.
size_t AnchorScanDomain(const PropertyGraph& graph,
                        const CompiledMatch& compiled);

/// MatchCompiled restricted to one anchor morsel: only start candidates of
/// the FIRST path whose domain position falls in `morsel` are enumerated
/// (later paths of the conjunction enumerate in full — partitioning the
/// outermost choice point partitions the whole match set). Requires
/// AnchorScanDomain(graph, compiled) > 0.
Status MatchCompiledMorsel(const EvalContext& ctx, const Bindings& bindings,
                           const CompiledMatch& compiled,
                           const MatchOptions& options,
                           const AnchorMorsel& morsel, const MatchSink& sink);

/// True if at least one match exists.
Result<bool> HasMatch(const EvalContext& ctx, const Bindings& bindings,
                      const std::vector<PathPattern>& patterns,
                      const MatchOptions& options);

}  // namespace cypher

#endif  // CYPHER_MATCH_MATCHER_H_
