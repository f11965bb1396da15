#include "match/compiled_pattern.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "eval/evaluator.h"
#include "value/compare.h"

namespace cypher {

namespace {

using BoundFn = std::function<bool(std::string_view)>;

/// True when the expression's value cannot depend on the driving record or
/// the graph: safe to fold once per clause. Functions are excluded
/// wholesale (rand() is non-deterministic, aggregates need a scope), as is
/// anything that reads variables or graph entities.
bool IsConstantExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kParameter:
      return true;
    case ExprKind::kProperty:
      return IsConstantExpr(*static_cast<const PropertyExpr&>(e).object);
    case ExprKind::kUnary:
      return IsConstantExpr(*static_cast<const UnaryExpr&>(e).operand);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      return IsConstantExpr(*b.left) && IsConstantExpr(*b.right);
    }
    case ExprKind::kIsNull:
      return IsConstantExpr(*static_cast<const IsNullExpr&>(e).operand);
    case ExprKind::kList: {
      for (const ExprPtr& item : static_cast<const ListExpr&>(e).items) {
        if (!IsConstantExpr(*item)) return false;
      }
      return true;
    }
    case ExprKind::kMap: {
      for (const auto& [key, value] : static_cast<const MapExpr&>(e).entries) {
        if (!IsConstantExpr(*value)) return false;
      }
      return true;
    }
    case ExprKind::kIndex: {
      const auto& i = static_cast<const IndexExpr&>(e);
      return IsConstantExpr(*i.object) && IsConstantExpr(*i.index);
    }
    case ExprKind::kCase: {
      const auto& c = static_cast<const CaseExpr&>(e);
      for (const auto& [cond, value] : c.whens) {
        if (!IsConstantExpr(*cond) || !IsConstantExpr(*value)) return false;
      }
      return c.otherwise == nullptr || IsConstantExpr(*c.otherwise);
    }
    default:
      // kVariable, kHasLabels, kFunction, kCountStar, comprehensions,
      // quantifiers, reduce, pattern predicates, map projections.
      return false;
  }
}

RelDirection Flip(RelDirection d) {
  switch (d) {
    case RelDirection::kLeftToRight:
      return RelDirection::kRightToLeft;
    case RelDirection::kRightToLeft:
      return RelDirection::kLeftToRight;
    case RelDirection::kUndirected:
      return RelDirection::kUndirected;
  }
  return d;
}

class Compiler {
 public:
  Compiler(const EvalContext& ctx, const Bindings& fold_env,
           const BoundFn& is_bound, const CompileMatchHints& hints)
      : ctx_(ctx),
        graph_(*ctx.graph),
        fold_env_(fold_env),
        is_bound_(is_bound),
        hints_(hints) {}

  CompiledMatch Compile(const std::vector<PathPattern>& patterns) {
    CompiledMatch out;
    out.paths.reserve(patterns.size());
    for (const PathPattern& pattern : patterns) {
      out.paths.push_back(CompilePath(pattern));
      ClassifyVariables(&out.paths.back());
      out.impossible |= out.paths.back().impossible;
      // ClassifyVariables added this pattern's variables to earlier_vars_,
      // so later patterns in the conjunction see them as bound (they anchor
      // as kBound / check equality instead of scanning fresh).
    }
    out.memo_slots = memo_slots_;
    out.input_slots = input_slots_;
    return out;
  }

 private:
  bool Bound(const std::string& name) const {
    return !name.empty() &&
           (earlier_vars_.count(name) > 0 || is_bound_(name));
  }

  /// Assigns a VarClass to every variable occurrence of the path, walked in
  /// execution order (after any reversal), so the engine never resolves a
  /// variable name inside a candidate loop. Driving-record variables share
  /// one cache slot per name; variables the path binds enter earlier_vars_.
  template <typename Compiled>
  void Classify(Compiled* c) {
    const std::string& name = c->source->variable;
    if (name.empty()) {
      c->var_class = VarClass::kNone;
    } else if (is_bound_(name)) {
      c->var_class = VarClass::kCheckInput;
      auto [it, inserted] = input_slot_of_.try_emplace(name, input_slots_);
      if (inserted) ++input_slots_;
      c->input_slot = it->second;
    } else if (earlier_vars_.count(name) > 0) {
      c->var_class = VarClass::kCheckLocal;
    } else {
      c->var_class = VarClass::kBind;
      earlier_vars_.insert(name);
    }
  }

  void ClassifyVariables(CompiledPath* path) {
    Classify(&path->start);
    for (auto& [rel, node] : path->steps) {
      Classify(&rel);
      Classify(&node);
    }
    const std::string& path_var = path->source->path_variable;
    if (!path_var.empty()) {
      // Checked after the entity variables on purpose: `p = (p)-->()`
      // conflicts with its own start binding.
      path->path_var_conflict = Bound(path_var);
      earlier_vars_.insert(path_var);
    }
  }

  std::vector<CompiledFilter> CompileFilters(
      const std::vector<std::pair<std::string, ExprPtr>>& props) {
    std::vector<CompiledFilter> out;
    out.reserve(props.size());
    for (const auto& [key, expr] : props) {
      CompiledFilter f;
      f.key = graph_.FindKey(key);
      f.expr = expr.get();
      if (IsConstantExpr(*expr)) {
        Result<Value> folded = Evaluate(ctx_, fold_env_, *expr);
        // A failed fold (e.g. a literal 1/0) stays lazy so the error still
        // surfaces only when a candidate actually reaches the filter.
        if (folded.ok()) {
          f.is_constant = true;
          f.constant = *std::move(folded);
        }
      }
      if (!f.is_constant) f.memo_slot = memo_slots_++;
      out.push_back(std::move(f));
    }
    return out;
  }

  CompiledNode CompileNode(const NodePattern& pattern) {
    CompiledNode out;
    out.source = &pattern;
    out.labels.reserve(pattern.labels.size());
    for (const std::string& label : pattern.labels) {
      Symbol sym = graph_.FindLabel(label);
      if (sym == kNoSymbol) {
        out.impossible = true;  // label never created: nothing can match
      } else {
        out.labels.push_back(sym);
      }
    }
    out.filters = CompileFilters(pattern.properties);
    return out;
  }

  CompiledRel CompileRel(const RelPattern& pattern) {
    CompiledRel out;
    out.source = &pattern;
    out.direction = pattern.direction;
    out.types.reserve(pattern.types.size());
    for (const std::string& type : pattern.types) {
      Symbol sym = graph_.FindType(type);
      if (sym != kNoSymbol) out.types.push_back(sym);
    }
    if (!pattern.types.empty() && out.types.empty()) out.impossible = true;
    out.filters = CompileFilters(pattern.properties);
    return out;
  }

  /// Cheapest access path for seeding the pattern at `node`. Candidates
  /// returned by any kind are a superset of the true matches (NodeMatches
  /// re-checks everything), so the choice affects cost only.
  AnchorPlan PlanAnchor(const CompiledNode& node) {
    AnchorPlan plan;
    if (Bound(node.source->variable)) {
      plan.kind = AnchorKind::kBound;
      plan.cost = 0;
      return plan;
    }
    // Property indexes are unversioned writer-side structures (IndexLookup
    // asserts no pin is active), so snapshot-session compiles never anchor
    // on them — they fall through to pin-aware label/all scans instead.
    if (ctx_.read_pin == nullptr) {
      for (Symbol label : node.labels) {
        for (size_t i = 0; i < node.filters.size(); ++i) {
          Symbol key = node.filters[i].key;
          if (key == kNoSymbol || !graph_.HasIndex(label, key)) continue;
          plan.kind = AnchorKind::kIndex;
          plan.label = label;
          plan.key = key;
          plan.index_filter = i;
          plan.cost = 1;
          return plan;
        }
      }
    }
    Symbol scan_label = kNoSymbol;
    size_t scan_count = graph_.num_nodes();
    if (!node.labels.empty()) {
      scan_label = node.labels.front();
      scan_count = graph_.LabelCount(scan_label);
      for (Symbol label : node.labels) {
        size_t count = graph_.LabelCount(label);
        if (count < scan_count) {
          scan_label = label;
          scan_count = count;
        }
      }
    }
    // Repeated equality probe with no real index: when the clause drives
    // enough records over a large enough domain, one O(domain) hash build
    // beats per-record O(domain) scans (the BM_LookupJoin pathology). The
    // hash itself is built later, once the path's orientation is settled.
    if (hints_.num_rows >= kTransientIndexMinRows &&
        scan_count >= kTransientIndexMinDomain) {
      for (size_t i = 0; i < node.filters.size(); ++i) {
        if (node.filters[i].key == kNoSymbol) continue;
        plan.kind = AnchorKind::kTransientIndex;
        plan.label = scan_label;
        plan.key = node.filters[i].key;
        plan.index_filter = i;
        plan.cost = 2;
        return plan;
      }
    }
    if (scan_label != kNoSymbol) {
      plan.kind = AnchorKind::kLabelScan;
      plan.label = scan_label;
      plan.cost = 2 + scan_count;
      return plan;
    }
    plan.kind = AnchorKind::kAllScan;
    plan.cost = 2 + graph_.num_nodes();
    return plan;
  }

  /// Builds the hash for a chosen kTransientIndex anchor: buckets every
  /// domain node by HashValue of its `key` property, ascending ids within a
  /// bucket (ForEach* scan order), skipping absent values.
  std::shared_ptr<const TransientIndex> BuildTransientIndex(
      const AnchorPlan& plan) const {
    auto index = std::make_shared<TransientIndex>();
    index->key = plan.key;
    auto add = [&](NodeId id) {
      const Value& v = graph_.node(id).props.Get(plan.key);
      if (!v.is_null()) index->buckets[HashValue(v)].push_back(id);
      return true;
    };
    if (plan.label != kNoSymbol) {
      graph_.ForEachNodeWithLabel(plan.label, add);
    } else {
      graph_.ForEachNode(add);
    }
    return index;
  }

  CompiledPath CompilePath(const PathPattern& pattern) {
    CompiledPath out;
    out.source = &pattern;
    std::vector<CompiledNode> nodes;
    std::vector<CompiledRel> rels;
    nodes.reserve(pattern.steps.size() + 1);
    rels.reserve(pattern.steps.size());
    nodes.push_back(CompileNode(pattern.start));
    bool var_length = false;
    for (const auto& [rel, node] : pattern.steps) {
      rels.push_back(CompileRel(rel));
      var_length |= rel.var_length;
      nodes.push_back(CompileNode(node));
    }
    for (const CompiledNode& n : nodes) out.impossible |= n.impossible;
    for (const CompiledRel& r : rels) out.impossible |= r.impossible;

    AnchorPlan forward = PlanAnchor(nodes.front());
    // Run the chain from its far end when that anchor is strictly cheaper.
    // Ties keep forward order (preserves the seed's match emission order);
    // variable-length steps and path functions have their own start logic
    // and never reverse.
    if (pattern.function == PathFunction::kNone && !pattern.steps.empty() &&
        !var_length) {
      AnchorPlan backward = PlanAnchor(nodes.back());
      if (backward.cost < forward.cost) {
        out.reversed = true;
        out.anchor = backward;
        out.start = std::move(nodes.back());
        for (size_t i = nodes.size() - 1; i-- > 0;) {
          CompiledRel rel = std::move(rels[i]);
          rel.direction = Flip(rel.direction);
          out.steps.emplace_back(std::move(rel), std::move(nodes[i]));
        }
        FinishAnchor(&out);
        return out;
      }
    }
    out.anchor = forward;
    out.start = std::move(nodes.front());
    for (size_t i = 0; i < rels.size(); ++i) {
      out.steps.emplace_back(std::move(rels[i]), std::move(nodes[i + 1]));
    }
    FinishAnchor(&out);
    return out;
  }

  /// Post-orientation anchor work: the transient hash is only built for the
  /// end that actually anchors (both ends may have planned one) and never
  /// for impossible paths, which short-circuit before enumerating.
  void FinishAnchor(CompiledPath* path) const {
    if (path->anchor.kind == AnchorKind::kTransientIndex &&
        !path->impossible) {
      path->transient = BuildTransientIndex(path->anchor);
    }
  }

  const EvalContext& ctx_;
  const PropertyGraph& graph_;
  const Bindings& fold_env_;
  const BoundFn& is_bound_;
  const CompileMatchHints& hints_;
  std::unordered_set<std::string> earlier_vars_;
  std::unordered_map<std::string, size_t> input_slot_of_;
  size_t memo_slots_ = 0;
  size_t input_slots_ = 0;
};

/// Names the first never-interned label or type of a pattern, for EXPLAIN's
/// "never matches" note.
std::string FirstUnknownName(const PropertyGraph& graph,
                             const PathPattern& pattern) {
  auto check_node = [&](const NodePattern& node) -> std::string {
    for (const std::string& label : node.labels) {
      if (graph.FindLabel(label) == kNoSymbol) {
        return "label :" + label + " never created";
      }
    }
    return "";
  };
  std::string found = check_node(pattern.start);
  if (!found.empty()) return found;
  for (const auto& [rel, node] : pattern.steps) {
    bool any = rel.types.empty();
    for (const std::string& type : rel.types) {
      if (graph.FindType(type) != kNoSymbol) {
        any = true;
        break;
      }
    }
    if (!any) return "type :" + rel.types.front() + " never created";
    found = check_node(node);
    if (!found.empty()) return found;
  }
  return "unsatisfiable pattern";
}

}  // namespace

CompiledMatch CompileMatch(const EvalContext& ctx, const Bindings& bindings,
                           const std::vector<PathPattern>& patterns,
                           const CompileMatchHints& hints) {
  BoundFn is_bound = [&bindings](std::string_view name) {
    return bindings.IsBound(name);
  };
  return Compiler(ctx, bindings, is_bound, hints).Compile(patterns);
}

CompiledMatch CompileMatchForExplain(
    const EvalContext& ctx, const std::unordered_set<std::string>& bound,
    const std::vector<PathPattern>& patterns) {
  Bindings empty;
  BoundFn is_bound = [&bound](std::string_view name) {
    return bound.count(std::string(name)) > 0;
  };
  // Default hints (num_rows = 1): EXPLAIN never plans (or pays for) a
  // transient hash — the row count is unknown without executing.
  return Compiler(ctx, empty, is_bound, {}).Compile(patterns);
}

std::string DescribeMatchPlan(const PropertyGraph& graph,
                              const CompiledMatch& compiled) {
  std::string out;
  for (const CompiledPath& path : compiled.paths) {
    if (!out.empty()) out += "; ";
    if (path.impossible) {
      out += "never matches: " + FirstUnknownName(graph, *path.source);
      continue;
    }
    if (path.reversed) out += "reversed, ";
    switch (path.anchor.kind) {
      case AnchorKind::kBound:
        out += "bound: '" + path.start.source->variable + "'";
        break;
      case AnchorKind::kIndex:
        out += "index: :" + graph.LabelName(path.anchor.label) + "(" +
               graph.KeyName(path.anchor.key) + ")";
        break;
      case AnchorKind::kTransientIndex:
        out += "transient hash: ";
        if (path.anchor.label != kNoSymbol) {
          out += ":" + graph.LabelName(path.anchor.label);
        } else {
          out += "all nodes";
        }
        out += "(" + graph.KeyName(path.anchor.key) + ")";
        break;
      case AnchorKind::kLabelScan:
        out += "scan: label :" + graph.LabelName(path.anchor.label) + " (~" +
               std::to_string(graph.LabelCount(path.anchor.label)) +
               " nodes)";
        break;
      case AnchorKind::kAllScan:
        out += "scan: all nodes (~" + std::to_string(graph.num_nodes()) + ")";
        break;
    }
    if (!path.steps.empty()) {
      out += ", expand " + std::to_string(path.steps.size()) +
             (path.steps.size() == 1 ? " step" : " steps");
    }
  }
  return out;
}

}  // namespace cypher
