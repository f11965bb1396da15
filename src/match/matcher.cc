#include "match/matcher.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>

#include "common/check.h"
#include "eval/evaluator.h"
#include "match/compiled_pattern.h"
#include "value/compare.h"

namespace cypher {

namespace {

const Value kNullValue;

/// A candidate traversal step: an alive relationship leaving `from` toward
/// `to` (direction already resolved).
struct RelCandidate {
  RelId rel;
  NodeId to;
};

/// Zero-copy enumeration of traversal candidates from one node: merge-walks
/// the (sorted) out/in adjacency lists directly, yielding candidates in
/// ascending relationship-id order (the determinism contract) without
/// materializing a vector.
class RelCandidateCursor {
 public:
  RelCandidateCursor(const PropertyGraph& graph, NodeId from, RelDirection dir)
      : graph_(graph),
        out_(graph.RawOutRels(from)),
        in_(graph.RawInRels(from)),
        want_out_(dir != RelDirection::kRightToLeft),
        want_in_(dir != RelDirection::kLeftToRight) {}

  bool Next(RelCandidate* cand) {
    while (true) {
      if (want_out_) {
        while (oi_ < out_.size() && !graph_.IsRelAlive(out_[oi_])) ++oi_;
      }
      if (want_in_) {
        while (ii_ < in_.size() && !graph_.IsRelAlive(in_[ii_])) ++ii_;
      }
      bool have_out = want_out_ && oi_ < out_.size();
      bool have_in = want_in_ && ii_ < in_.size();
      if (!have_out && !have_in) return false;
      // On equal ids (a self-loop listed on both sides) the out side wins.
      if (have_out && (!have_in || !(in_[ii_] < out_[oi_]))) {
        RelId r = out_[oi_++];
        *cand = {r, graph_.rel(r).tgt};
        return true;
      }
      RelId r = in_[ii_++];
      const RelData& data = graph_.rel(r);
      // A self-loop already surfaced via the out side of an undirected
      // pattern; do not produce it twice.
      if (want_out_ && data.src == data.tgt) continue;
      *cand = {r, data.src};
      return true;
    }
  }

 private:
  const PropertyGraph& graph_;
  const std::vector<RelId>& out_;
  const std::vector<RelId>& in_;
  size_t oi_ = 0;
  size_t ii_ = 0;
  bool want_out_;
  bool want_in_;
};

/// Record-at-a-time executor of a CompiledMatch. The candidate loops touch
/// no strings: labels/types/keys are pre-resolved Symbols, filter values
/// are pre-folded constants or per-record memos, and every variable
/// occurrence carries its compile-time VarClass (bind fresh, check against
/// the local assignment stack, or check against a prefetched record value).
class MatchEngine {
 public:
  MatchEngine(const EvalContext& ctx, const Bindings& bindings,
              const CompiledMatch& compiled, const MatchOptions& options,
              const MatchSink& sink, const AnchorMorsel* morsel = nullptr)
      : ctx_(ctx),
        input_(bindings),
        compiled_(compiled),
        options_(options),
        sink_(sink),
        graph_(*ctx.graph),
        morsel_(morsel),
        memo_(compiled.memo_slots),
        input_cache_(compiled.input_slots),
        cancel_gate_(ctx.cancel) {}

  Status Run() {
    for (const CompiledPath& path : compiled_.paths) {
      CYPHER_RETURN_NOT_OK(ValidatePattern(*path.source));
    }
    // A pattern naming a never-interned label/type cannot match: zero rows,
    // zero per-candidate work (semantic validation above still applies).
    if (compiled_.impossible) return Status::OK();
    PrefetchInputs();
    return MatchPattern(0);
  }

 private:
  Status ValidatePattern(const PathPattern& pattern) const {
    for (const auto& [rel, node] : pattern.steps) {
      if (rel.var_length && options_.mode == MatchMode::kHomomorphism &&
          rel.max_hops < 0) {
        return Status::SemanticError(
            "unbounded variable-length patterns are not finite under "
            "homomorphism matching; specify an upper bound");
      }
      if (rel.var_length && rel.min_hops < 0) {
        return Status::SemanticError("variable-length lower bound is negative");
      }
      if (rel.var_length && rel.max_hops >= 0 &&
          rel.max_hops < rel.min_hops) {
        return Status::SemanticError(
            "variable-length upper bound below lower bound");
      }
    }
    return Status::OK();
  }

  // ---- Variable environment -------------------------------------------------

  /// Record values never change while one engine runs (the engine lives for
  /// exactly one record), so every kCheckInput variable is fetched from the
  /// driving record once, up front, instead of per candidate.
  template <typename Compiled>
  void PrefetchInput(const Compiled& c) {
    if (c.var_class != VarClass::kCheckInput) return;
    std::optional<Value>& slot = input_cache_[c.input_slot];
    if (!slot.has_value()) slot = input_.Lookup(c.source->variable);
  }

  void PrefetchInputs() {
    for (const CompiledPath& path : compiled_.paths) {
      PrefetchInput(path.start);
      for (const auto& [rel, node] : path.steps) {
        PrefetchInput(rel);
        PrefetchInput(node);
      }
    }
  }

  /// The already-bound value this occurrence must match, or nullptr when it
  /// binds fresh. nullptr for a kCheck* occurrence means the runtime
  /// environment contradicts the compile-time one; the engine then treats
  /// the variable as unbound (the interpreted engine's behavior).
  template <typename Compiled>
  const Value* BoundValue(const Compiled& c) const {
    switch (c.var_class) {
      case VarClass::kCheckLocal:
        return assigned_.Find(c.source->variable);
      case VarClass::kCheckInput: {
        const std::optional<Value>& v = input_cache_[c.input_slot];
        return v.has_value() ? &*v : nullptr;
      }
      default:
        return nullptr;
    }
  }

  // ---- Filters --------------------------------------------------------------

  /// The wanted value of one filter: the compile-time constant, or the
  /// record-level memo (row-dependent expressions are evaluated at most
  /// once per record).
  Result<const Value*> FilterValue(const CompiledFilter& filter) {
    if (filter.is_constant) return &filter.constant;
    std::optional<Value>& slot = memo_[filter.memo_slot];
    if (!slot.has_value()) {
      CYPHER_ASSIGN_OR_RETURN(Value v, Evaluate(ctx_, input_, *filter.expr));
      slot = std::move(v);
    }
    return &*slot;
  }

  /// Pattern property filters are evaluated against the input record only
  /// (pattern-internal variables are not visible, as in Cypher).
  Result<bool> PropsFilterPass(const std::vector<CompiledFilter>& filters,
                               const PropertyMap& stored) {
    for (const CompiledFilter& filter : filters) {
      CYPHER_ASSIGN_OR_RETURN(const Value* want, FilterValue(filter));
      const Value& have =
          filter.key == kNoSymbol ? kNullValue : stored.Get(filter.key);
      if (CypherEquals(have, *want) != Tri::kTrue) return false;
    }
    return true;
  }

  Result<bool> NodeMatches(const CompiledNode& pattern, NodeId id) {
    if (!graph_.IsNodeAlive(id)) return false;
    for (Symbol label : pattern.labels) {
      if (!graph_.NodeHasLabel(id, label)) return false;
    }
    return PropsFilterPass(pattern.filters, graph_.node(id).props);
  }

  Result<bool> RelMatches(const CompiledRel& pattern, RelId id) {
    const RelData& rel = graph_.rel(id);
    if (!pattern.types.empty()) {
      bool any = false;
      for (Symbol type : pattern.types) {
        if (rel.type == type) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
    return PropsFilterPass(pattern.filters, rel.props);
  }

  bool RelUsable(RelId id) const {
    if (options_.mode == MatchMode::kHomomorphism) return true;
    // Linear scan: the trail stack holds at most the current pattern depth,
    // small enough that hashing would cost more than the walk.
    for (RelId r : used_rels_) {
      if (r == id) return false;
    }
    return true;
  }

  // ---- Start-point enumeration ----------------------------------------------

  /// Enumerates start candidates, ascending by node id. A resolved bound
  /// value yields a single candidate; otherwise the compiled anchor plan
  /// picks the access path. Every plan yields a superset of the true
  /// matches (callers re-check NodeMatches), so the plan affects cost only.
  /// A morsel restriction (parallel execution) applies to the first path's
  /// scan anchor only — the driver only hands out morsels for scan kinds.
  template <typename Fn>
  Status ForEachStartCandidate(const CompiledPath& cpath, size_t pattern_idx,
                               const Value* bound, const Fn& fn) {
    if (bound != nullptr) {
      if (bound->is_null()) return Status::OK();  // null never matches
      if (!bound->is_node()) {
        return Status::ExecutionError(
            "variable '" + cpath.start.source->variable + "' is bound to " +
            ValueTypeName(bound->type()) + ", expected a node");
      }
      return fn(bound->AsNode());
    }
    const AnchorMorsel* morsel =
        (morsel_ != nullptr && pattern_idx == 0) ? morsel_ : nullptr;
    switch (cpath.anchor.kind) {
      case AnchorKind::kIndex: {
        const CompiledFilter& filter =
            cpath.start.filters[cpath.anchor.index_filter];
        CYPHER_ASSIGN_OR_RETURN(const Value* want, FilterValue(filter));
        if (want->is_null()) return Status::OK();  // null filter: no match
        for (NodeId id :
             graph_.IndexLookup(cpath.anchor.label, cpath.anchor.key, *want)) {
          if (stopped_) break;
          CYPHER_RETURN_NOT_OK(fn(id));
        }
        return Status::OK();
      }
      case AnchorKind::kTransientIndex: {
        const CompiledFilter& filter =
            cpath.start.filters[cpath.anchor.index_filter];
        CYPHER_ASSIGN_OR_RETURN(const Value* want, FilterValue(filter));
        if (want->is_null()) return Status::OK();  // null filter: no match
        if (cpath.transient == nullptr) {
          // EXPLAIN-only compile reached execution: fall back to the scan
          // the hash would have replaced.
          return ScanDomain(cpath.anchor.label, nullptr, fn);
        }
        auto it = cpath.transient->buckets.find(HashValue(*want));
        if (it == cpath.transient->buckets.end()) return Status::OK();
        // Bucket entries are ascending and a superset of the true matches
        // (hash collisions included); NodeMatches re-checks the filter.
        for (NodeId id : it->second) {
          if (stopped_) break;
          CYPHER_RETURN_NOT_OK(fn(id));
        }
        return Status::OK();
      }
      case AnchorKind::kLabelScan:
        return ScanDomain(cpath.anchor.label, morsel, fn);
      case AnchorKind::kBound:  // planned bound but unbound at runtime
      case AnchorKind::kAllScan:
        return ScanDomain(kNoSymbol, morsel, fn);
    }
    return Status::OK();
  }

  /// Label scan (label != kNoSymbol) or all-node scan, optionally restricted
  /// to a morsel of the scan domain.
  template <typename Fn>
  Status ScanDomain(Symbol label, const AnchorMorsel* morsel, const Fn& fn) {
    Status st;
    auto visit = [&](NodeId id) {
      if (stopped_) return false;
      st = cancel_gate_.Check();
      if (st.ok()) st = fn(id);
      return st.ok();
    };
    if (label != kNoSymbol) {
      if (morsel != nullptr) {
        graph_.ForEachNodeWithLabelInRange(label, morsel->begin, morsel->end,
                                           visit);
      } else {
        graph_.ForEachNodeWithLabel(label, visit);
      }
    } else {
      if (morsel != nullptr) {
        graph_.ForEachNodeInSlotRange(morsel->begin, morsel->end, visit);
      } else {
        graph_.ForEachNode(visit);
      }
    }
    return st;
  }

  // ---- Search ---------------------------------------------------------------

  Status MatchPattern(size_t pattern_idx) {
    if (stopped_) return Status::OK();
    if (pattern_idx == compiled_.paths.size()) {
      CYPHER_ASSIGN_OR_RETURN(bool more, sink_(assigned_));
      if (!more) stopped_ = true;
      return Status::OK();
    }
    const CompiledPath& cpath = compiled_.paths[pattern_idx];
    if (cpath.source->function != PathFunction::kNone) {
      return MatchShortestPattern(cpath, pattern_idx);
    }
    const CompiledNode& start = cpath.start;
    const std::string& var = start.source->variable;
    const Value* bound_start = BoundValue(start);
    // Bind when this is the variable's first occurrence, or when a checked
    // variable turned out unbound at runtime (environment mismatch).
    bool push_start = !var.empty() && bound_start == nullptr;
    PathValue path;  // reused across candidates to amortize allocation
    return ForEachStartCandidate(cpath, pattern_idx, bound_start,
                                 [&](NodeId id) -> Status {
      CYPHER_ASSIGN_OR_RETURN(bool ok, NodeMatches(start, id));
      if (!ok) return Status::OK();
      size_t mark = assigned_.size();
      if (push_start) assigned_.Push(var, Value::Node(id));
      path.nodes.assign(1, id);
      path.rels.clear();
      Status st = MatchStep(cpath, 0, id, &path, pattern_idx);
      assigned_.PopTo(mark);
      return st;
    });
  }

  // ---- shortestPath / allShortestPaths -------------------------------------

  /// BFS state for one shortest-path search: distance and the shortest-
  /// predecessor links of every reached node.
  struct BfsState {
    std::unordered_map<uint32_t, int64_t> dist;
    std::unordered_map<uint32_t, std::vector<std::pair<NodeId, RelId>>>
        parents;
  };

  Result<BfsState> RunBfs(NodeId source, const CompiledRel& rel_pattern) {
    const RelPattern& rel_src = *rel_pattern.source;
    BfsState state;
    state.dist[source.value] = 0;
    std::vector<NodeId> frontier{source};
    int64_t level = 0;
    while (!frontier.empty() &&
           (rel_src.max_hops < 0 || level < rel_src.max_hops)) {
      CYPHER_RETURN_NOT_OK(cancel_gate_.Check());
      std::vector<NodeId> next;
      for (NodeId n : frontier) {
        RelCandidateCursor cursor(graph_, n, rel_pattern.direction);
        RelCandidate cand;
        while (cursor.Next(&cand)) {
          if (!RelUsable(cand.rel)) continue;  // trail constraint
          CYPHER_ASSIGN_OR_RETURN(bool ok, RelMatches(rel_pattern, cand.rel));
          if (!ok) continue;
          // A first discovery sets the distance and enqueues the target; an
          // equal-distance rediscovery appends another shortest predecessor
          // (for allShortestPaths).
          auto [it, inserted] = state.dist.try_emplace(cand.to.value,
                                                       level + 1);
          if (inserted) {
            state.parents[cand.to.value].emplace_back(n, cand.rel);
            next.push_back(cand.to);
          } else if (it->second == level + 1) {
            state.parents[cand.to.value].emplace_back(n, cand.rel);
          }
        }
      }
      frontier = std::move(next);
      ++level;
    }
    return state;
  }

  /// Enumerates shortest paths from the BFS source to `target`
  /// (all of them for kAllShortest, the rel-id-minimal one for kShortest)
  /// and emits each through `emit(path)`.
  Status ReconstructPaths(const BfsState& state, NodeId source, NodeId target,
                          bool all_shortest,
                          const std::function<Status(const PathValue&)>& emit) {
    // Build paths backwards from target.
    std::vector<std::pair<NodeId, RelId>> suffix;  // reversed (node, rel-in)
    std::function<Status(NodeId)> walk = [&](NodeId cur) -> Status {
      if (cur == source) {
        PathValue path;
        path.nodes.push_back(source);
        for (auto it = suffix.rbegin(); it != suffix.rend(); ++it) {
          path.rels.push_back(it->second);
          path.nodes.push_back(it->first);
        }
        return emit(path);
      }
      auto pit = state.parents.find(cur.value);
      CYPHER_CHECK(pit != state.parents.end());
      std::vector<std::pair<NodeId, RelId>> links = pit->second;
      std::sort(links.begin(), links.end(),
                [](const auto& a, const auto& b) { return a.second < b.second; });
      size_t limit = all_shortest ? links.size() : 1;
      for (size_t i = 0; i < limit; ++i) {
        if (stopped_) break;
        suffix.emplace_back(cur, links[i].second);
        CYPHER_RETURN_NOT_OK(walk(links[i].first));
        suffix.pop_back();
      }
      return Status::OK();
    };
    return walk(target);
  }

  Status MatchShortestPattern(const CompiledPath& cpath, size_t pattern_idx) {
    const PathPattern& pattern = *cpath.source;
    const CompiledRel& rel_pattern = cpath.steps.front().first;
    const CompiledNode& end_pattern = cpath.steps.front().second;
    const RelPattern& rel_src = *rel_pattern.source;
    const NodePattern& start_src = *cpath.start.source;
    const NodePattern& end_src = *end_pattern.source;
    bool all_shortest = pattern.function == PathFunction::kAllShortest;
    // Resolve a bound end variable once (restricts BFS targets).
    std::optional<NodeId> bound_end;
    if (const Value* bound = BoundValue(end_pattern)) {
      if (bound->is_null()) return Status::OK();
      if (!bound->is_node()) {
        return Status::ExecutionError("variable '" + end_src.variable +
                                      "' is bound to " +
                                      ValueTypeName(bound->type()) +
                                      ", expected a node");
      }
      bound_end = bound->AsNode();
    }
    const Value* bound_start = BoundValue(cpath.start);
    bool push_start = !start_src.variable.empty() && bound_start == nullptr;
    return ForEachStartCandidate(cpath, pattern_idx, bound_start,
                                 [&](NodeId s) -> Status {
      if (stopped_) return Status::OK();
      CYPHER_ASSIGN_OR_RETURN(bool start_ok, NodeMatches(cpath.start, s));
      if (!start_ok) return Status::OK();
      CYPHER_ASSIGN_OR_RETURN(BfsState state, RunBfs(s, rel_pattern));
      // Deterministic target order: ascending node id.
      std::vector<NodeId> targets;
      if (bound_end.has_value()) {
        if (state.dist.count(bound_end->value)) targets.push_back(*bound_end);
      } else {
        for (const auto& [id, d] : state.dist) targets.push_back(NodeId(id));
        std::sort(targets.begin(), targets.end());
      }
      for (NodeId t : targets) {
        if (stopped_) break;
        int64_t d = state.dist.at(t.value);
        if (d < rel_src.min_hops) continue;
        if (rel_src.max_hops >= 0 && d > rel_src.max_hops) continue;
        CYPHER_ASSIGN_OR_RETURN(bool end_ok, NodeMatches(end_pattern, t));
        if (!end_ok) continue;
        Status st = ReconstructPaths(
            state, s, t, all_shortest, [&](const PathValue& path) -> Status {
              size_t mark = assigned_.size();
              if (push_start) {
                assigned_.Push(start_src.variable, Value::Node(s));
              }
              // The end binds only on its first occurrence; when it repeats
              // the start variable (`(a)-[*]->(a)`) the start's push above
              // already bound it.
              if (end_pattern.var_class == VarClass::kBind) {
                assigned_.Push(end_src.variable, Value::Node(t));
              }
              if (!rel_src.variable.empty()) {
                if (rel_pattern.var_class != VarClass::kBind) {
                  return Status::SemanticError(
                      "variable-length relationship variable '" +
                      rel_src.variable + "' is already bound");
                }
                ValueList rels;
                for (RelId r : path.rels) rels.push_back(Value::Rel(r));
                assigned_.Push(rel_src.variable, Value::List(std::move(rels)));
              }
              if (!pattern.path_variable.empty()) {
                assigned_.Push(pattern.path_variable, Value::Path(path));
              }
              size_t rel_mark = used_rels_.size();
              for (RelId r : path.rels) used_rels_.push_back(r);
              Status inner = MatchPattern(pattern_idx + 1);
              used_rels_.resize(rel_mark);
              assigned_.PopTo(mark);
              return inner;
            });
        CYPHER_RETURN_NOT_OK(st);
      }
      return Status::OK();
    });
  }

  Status MatchStep(const CompiledPath& cpath, size_t step_idx, NodeId cur,
                   PathValue* path, size_t pattern_idx) {
    if (stopped_) return Status::OK();
    const PathPattern& pattern = *cpath.source;
    if (step_idx == cpath.steps.size()) {
      size_t mark = assigned_.size();
      if (!pattern.path_variable.empty()) {
        if (cpath.path_var_conflict) {
          return Status::SemanticError("path variable '" +
                                       pattern.path_variable +
                                       "' is already bound");
        }
        if (cpath.reversed) {
          // Execution ran end->start; the named path observes syntactic
          // order.
          PathValue forward;
          forward.nodes.assign(path->nodes.rbegin(), path->nodes.rend());
          forward.rels.assign(path->rels.rbegin(), path->rels.rend());
          assigned_.Push(pattern.path_variable,
                         Value::Path(std::move(forward)));
        } else {
          assigned_.Push(pattern.path_variable, Value::Path(*path));
        }
      }
      Status st = MatchPattern(pattern_idx + 1);
      assigned_.PopTo(mark);
      return st;
    }
    const auto& [rel_pattern, node_pattern] = cpath.steps[step_idx];
    const RelPattern& rel_src = *rel_pattern.source;
    if (rel_src.var_length) {
      return MatchVarLength(cpath, step_idx, cur, path, pattern_idx);
    }
    // Bound relationship variable: a single candidate.
    if (const Value* bound = BoundValue(rel_pattern)) {
      if (bound->is_null()) return Status::OK();
      if (!bound->is_rel()) {
        return Status::ExecutionError("variable '" + rel_src.variable +
                                      "' is bound to " +
                                      ValueTypeName(bound->type()) +
                                      ", expected a relationship");
      }
      RelId id = bound->AsRel();
      if (!graph_.IsRelAlive(id) || !RelUsable(id)) return Status::OK();
      const RelData& rel = graph_.rel(id);
      NodeId next;
      bool connects = false;
      if (rel_pattern.direction != RelDirection::kRightToLeft &&
          rel.src == cur) {
        next = rel.tgt;
        connects = true;
      } else if (rel_pattern.direction != RelDirection::kLeftToRight &&
                 rel.tgt == cur) {
        next = rel.src;
        connects = true;
      }
      if (!connects) return Status::OK();
      CYPHER_ASSIGN_OR_RETURN(bool rel_ok, RelMatches(rel_pattern, id));
      if (!rel_ok) return Status::OK();
      return EnterNode(cpath, step_idx, id, next, path, pattern_idx);
    }
    bool push_rel = !rel_src.variable.empty();
    RelCandidateCursor cursor(graph_, cur, rel_pattern.direction);
    RelCandidate cand;
    while (cursor.Next(&cand)) {
      if (stopped_) break;
      CYPHER_RETURN_NOT_OK(cancel_gate_.Check());
      if (!RelUsable(cand.rel)) continue;
      CYPHER_ASSIGN_OR_RETURN(bool rel_ok, RelMatches(rel_pattern, cand.rel));
      if (!rel_ok) continue;
      size_t mark = assigned_.size();
      if (push_rel) assigned_.Push(rel_src.variable, Value::Rel(cand.rel));
      CYPHER_RETURN_NOT_OK(
          EnterNode(cpath, step_idx, cand.rel, cand.to, path, pattern_idx));
      assigned_.PopTo(mark);
    }
    return Status::OK();
  }

  /// Checks the target node pattern of a step against `next`, binds its
  /// variable, marks the relationship used, and recurses to the next step.
  Status EnterNode(const CompiledPath& cpath, size_t step_idx, RelId via,
                   NodeId next, PathValue* path, size_t pattern_idx) {
    const CompiledNode& node_pattern = cpath.steps[step_idx].second;
    const std::string& var = node_pattern.source->variable;
    const Value* bound = BoundValue(node_pattern);
    if (bound != nullptr) {
      if (bound->is_null()) return Status::OK();
      if (!bound->is_node()) {
        return Status::ExecutionError("variable '" + var + "' is bound to " +
                                      ValueTypeName(bound->type()) +
                                      ", expected a node");
      }
      if (bound->AsNode() != next) return Status::OK();
    }
    CYPHER_ASSIGN_OR_RETURN(bool node_ok, NodeMatches(node_pattern, next));
    if (!node_ok) return Status::OK();
    size_t mark = assigned_.size();
    if (!var.empty() && bound == nullptr) {
      assigned_.Push(var, Value::Node(next));
    }
    used_rels_.push_back(via);
    path->rels.push_back(via);
    path->nodes.push_back(next);
    Status st = MatchStep(cpath, step_idx + 1, next, path, pattern_idx);
    path->nodes.pop_back();
    path->rels.pop_back();
    used_rels_.pop_back();
    assigned_.PopTo(mark);
    return st;
  }

  Status MatchVarLength(const CompiledPath& cpath, size_t step_idx,
                        NodeId cur, PathValue* path, size_t pattern_idx) {
    const CompiledRel& rel_pattern = cpath.steps[step_idx].first;
    const RelPattern& rel_src = *rel_pattern.source;
    if (!rel_src.variable.empty() &&
        rel_pattern.var_class != VarClass::kBind) {
      return Status::SemanticError("variable-length relationship variable '" +
                                   rel_src.variable + "' is already bound");
    }
    std::vector<RelId> hops;
    return VarLengthFrom(cpath, step_idx, cur, 0, &hops, path, pattern_idx);
  }

  /// The terminate half of one var-length state: if the walk may end at
  /// `cur`, binds the hop list / end node and continues with the rest of
  /// the pattern.
  Status TryTerminate(const CompiledPath& cpath, size_t step_idx, NodeId cur,
                      const std::vector<RelId>& hops, PathValue* path,
                      size_t pattern_idx) {
    const auto& [rel_pattern, node_pattern] = cpath.steps[step_idx];
    const RelPattern& rel_src = *rel_pattern.source;
    const std::string& node_var = node_pattern.source->variable;
    const Value* bound = BoundValue(node_pattern);
    if (bound != nullptr && (!bound->is_node() || bound->AsNode() != cur)) {
      return Status::OK();  // cannot terminate here; keep walking
    }
    CYPHER_ASSIGN_OR_RETURN(bool node_ok, NodeMatches(node_pattern, cur));
    if (!node_ok) return Status::OK();
    size_t mark = assigned_.size();
    if (!rel_src.variable.empty()) {
      ValueList rel_values;
      rel_values.reserve(hops.size());
      for (RelId r : hops) rel_values.push_back(Value::Rel(r));
      assigned_.Push(rel_src.variable, Value::List(std::move(rel_values)));
    }
    if (!node_var.empty() && BoundValue(node_pattern) == nullptr) {
      assigned_.Push(node_var, Value::Node(cur));
    }
    CYPHER_RETURN_NOT_OK(
        MatchStep(cpath, step_idx + 1, cur, path, pattern_idx));
    assigned_.PopTo(mark);
    return Status::OK();
  }

  Status VarLengthFrom(const CompiledPath& cpath, size_t step_idx,
                       NodeId cur, int64_t count, std::vector<RelId>* hops,
                       PathValue* path, size_t pattern_idx) {
    if (stopped_) return Status::OK();
    CYPHER_RETURN_NOT_OK(cancel_gate_.Check());
    const CompiledRel& rel_pattern = cpath.steps[step_idx].first;
    const RelPattern& rel_src = *rel_pattern.source;
    if (count >= rel_src.min_hops) {
      CYPHER_RETURN_NOT_OK(
          TryTerminate(cpath, step_idx, cur, *hops, path, pattern_idx));
    }
    if (rel_src.max_hops >= 0 && count >= rel_src.max_hops) {
      return Status::OK();
    }
    RelCandidateCursor cursor(graph_, cur, rel_pattern.direction);
    RelCandidate cand;
    while (cursor.Next(&cand)) {
      if (stopped_) break;
      // Within a variable-length walk the trail constraint always applies
      // (it is what bounds unbounded walks); homomorphism mode still skips
      // cross-pattern uniqueness but cannot revisit within the walk.
      if (std::find(hops->begin(), hops->end(), cand.rel) != hops->end()) {
        continue;
      }
      if (!RelUsable(cand.rel)) continue;
      CYPHER_ASSIGN_OR_RETURN(bool rel_ok, RelMatches(rel_pattern, cand.rel));
      if (!rel_ok) continue;
      used_rels_.push_back(cand.rel);
      hops->push_back(cand.rel);
      path->rels.push_back(cand.rel);
      path->nodes.push_back(cand.to);
      CYPHER_RETURN_NOT_OK(VarLengthFrom(cpath, step_idx, cand.to, count + 1,
                                         hops, path, pattern_idx));
      path->nodes.pop_back();
      path->rels.pop_back();
      hops->pop_back();
      used_rels_.pop_back();
    }
    return Status::OK();
  }

  const EvalContext& ctx_;
  const Bindings& input_;
  const CompiledMatch& compiled_;
  const MatchOptions& options_;
  const MatchSink& sink_;
  const PropertyGraph& graph_;
  /// Anchor-domain restriction for the first path (parallel execution);
  /// null = unrestricted.
  const AnchorMorsel* morsel_ = nullptr;
  MatchAssignment assigned_;
  /// Relationships used by the (partial) match, LIFO: pushed entering a
  /// step, popped unwinding it. RelUsable scans it linearly.
  std::vector<RelId> used_rels_;
  /// Per-record cache for row-dependent filter values, indexed by
  /// CompiledFilter::memo_slot.
  std::vector<std::optional<Value>> memo_;
  /// Per-record cache of driving-record variable values, indexed by
  /// input_slot (see PrefetchInputs).
  std::vector<std::optional<Value>> input_cache_;
  /// Amortized watchdog poll for this engine's walks (one per thread: every
  /// anchor tile runs its own engine).
  CancelGate cancel_gate_;
  bool stopped_ = false;
};

}  // namespace

Status MatchCompiled(const EvalContext& ctx, const Bindings& bindings,
                     const CompiledMatch& compiled,
                     const MatchOptions& options, const MatchSink& sink) {
  return MatchEngine(ctx, bindings, compiled, options, sink).Run();
}

size_t AnchorScanDomain(const PropertyGraph& graph,
                        const CompiledMatch& compiled) {
  if (compiled.impossible || compiled.paths.empty()) return 0;
  const CompiledPath& path = compiled.paths.front();
  switch (path.anchor.kind) {
    case AnchorKind::kLabelScan:
      return graph.LabelBucketSize(path.anchor.label);
    case AnchorKind::kAllScan:
      return graph.node_capacity();
    default:
      return 0;
  }
}

Status MatchCompiledMorsel(const EvalContext& ctx, const Bindings& bindings,
                           const CompiledMatch& compiled,
                           const MatchOptions& options,
                           const AnchorMorsel& morsel, const MatchSink& sink) {
  CYPHER_CHECK(AnchorScanDomain(*ctx.graph, compiled) > 0 &&
               "anchor morsels require a scan anchor");
  return MatchEngine(ctx, bindings, compiled, options, sink, &morsel).Run();
}

Status MatchPatterns(const EvalContext& ctx, const Bindings& bindings,
                     const std::vector<PathPattern>& patterns,
                     const MatchOptions& options, const MatchSink& sink) {
  CompiledMatch compiled = CompileMatch(ctx, bindings, patterns);
  return MatchCompiled(ctx, bindings, compiled, options, sink);
}

Result<bool> HasMatch(const EvalContext& ctx, const Bindings& bindings,
                      const std::vector<PathPattern>& patterns,
                      const MatchOptions& options) {
  bool found = false;
  Status st = MatchPatterns(ctx, bindings, patterns, options,
                            [&found](const MatchAssignment&) -> Result<bool> {
                              found = true;
                              return false;  // stop at first match
                            });
  CYPHER_RETURN_NOT_OK(st);
  return found;
}

}  // namespace cypher
