#include <algorithm>
#include <optional>
#include <unordered_map>
#include <variant>

#include "common/check.h"
#include "eval/evaluator.h"
#include "exec/clauses.h"
#include "exec/parallel.h"
#include "exec/update_common.h"
#include "value/compare.h"

namespace cypher {

const char* MergeVariantName(MergeVariant variant) {
  switch (variant) {
    case MergeVariant::kAtomic:
      return "Atomic";
    case MergeVariant::kGrouping:
      return "Grouping";
    case MergeVariant::kWeakCollapse:
      return "Weak Collapse";
    case MergeVariant::kCollapse:
      return "Collapse";
    case MergeVariant::kStrongCollapse:
      return "Strong Collapse";
  }
  return "?";
}

namespace {

// =============================================================================
// Legacy MERGE (Cypher 9, Section 3 / 4.3)
// =============================================================================

Status ExecMergeLegacy(ExecContext* ctx, const MergeClause& clause,
                       Table* table) {
  CYPHER_RETURN_NOT_OK(
      ValidateUpdatePatterns(clause.patterns, /*allow_undirected=*/true));
  std::vector<std::string> new_vars =
      NewPatternVariables(clause.patterns, *table);
  Table out = Table::WithColumns(table->columns());
  for (const std::string& var : new_vars) out.AddColumn(var);
  EvalContext ec = ctx->Eval();
  // Record-at-a-time in scan order, each record matching against the
  // CURRENT graph — i.e. MERGE reads its own writes, the root cause of the
  // nondeterminism demonstrated in Example 3 / Figure 6.
  for (size_t r : ctx->LegacyScanOrder(table->num_rows())) {
    Bindings bindings(table, r);
    std::vector<MatchAssignment> matches;
    // MatchPatterns (not a clause-level compile): each record matches the
    // graph as mutated by earlier records, so a label interned by record
    // one's create branch must be visible to record two's match phase.
    CYPHER_RETURN_NOT_OK(MatchPatterns(
        ec, bindings, clause.patterns, ctx->Match(),
        [&matches](const MatchAssignment& assignment) -> Result<bool> {
          matches.push_back(assignment);
          return true;
        }));
    if (!matches.empty()) {
      for (const MatchAssignment& assignment : matches) {
        std::vector<Value> row = table->row(r);
        for (const std::string& var : new_vars) {
          const Value* v = assignment.Find(var);
          CYPHER_CHECK(v != nullptr);
          row.push_back(*v);
        }
        out.AddRow(std::move(row));
        if (!clause.on_match.empty()) {
          Bindings mb = bindings;
          for (const MatchBinding& binding : assignment.entries()) {
            mb.Push(*binding.name, binding.value);
          }
          CYPHER_RETURN_NOT_OK(ApplySetItemsLegacy(ctx, clause.on_match, mb));
        }
      }
      continue;
    }
    // No match: create an instance immediately (visible to later records).
    Bindings env = bindings;
    for (const PathPattern& pattern : clause.patterns) {
      CYPHER_RETURN_NOT_OK(CreatePatternInstance(ctx, &env, pattern));
    }
    std::vector<Value> row = table->row(r);
    for (const std::string& var : new_vars) {
      std::optional<Value> v = env.Lookup(var);
      CYPHER_CHECK(v.has_value());
      row.push_back(*std::move(v));
    }
    out.AddRow(std::move(row));
    if (!clause.on_create.empty()) {
      CYPHER_RETURN_NOT_OK(ApplySetItemsLegacy(ctx, clause.on_create, env));
    }
  }
  *table = std::move(out);
  return Status::OK();
}

// =============================================================================
// Revised MERGE: the Section 6 variant engine
// =============================================================================
//
// All five variants share one pipeline:
//   A. match every record against the INPUT graph (never own writes);
//   B. plan creations for failed records as *virtual* instances —
//      Atomic plans one instance per record, the others one per group of
//      records with equal pattern-expression values;
//   C. collapse virtual nodes/relationships according to the variant's
//      equivalence (Definitions 1 and 2, with or without the position
//      restriction);
//   D. materialize only equivalence-class representatives in one step;
//   E. emit one output row per failed record, bound to its (collapsed)
//      instance, after the bag of matched rows.
// Because creations are planned virtually, the graph mutates exactly once,
// which makes the clause atomic and order-insensitive by construction.

struct VirtualNode {
  bool existing = false;
  NodeId existing_id;            // when existing
  std::vector<Symbol> labels;    // when created (sorted, deduplicated)
  PropertyMap props;             // when created
  size_t pattern = 0;            // pattern index within the tuple
  size_t position = 0;           // node position within the pattern
};

struct VirtualRel {
  Symbol type = kNoSymbol;
  size_t src = 0;  // vnode index
  size_t tgt = 0;  // vnode index
  PropertyMap props;
  size_t pattern = 0;
  size_t position = 0;  // relationship position within the pattern
};

/// What a pattern variable of one instance binds to.
struct BindTarget {
  enum class Kind { kNode, kRel, kPath } kind;
  size_t index = 0;  // vnode / vrel index (kNode / kRel)
  std::vector<size_t> path_nodes;  // vnode indices (kPath)
  std::vector<size_t> path_rels;   // vrel indices (kPath)
};

struct Instance {
  std::vector<std::pair<std::string, BindTarget>> binds;

  const BindTarget* Find(std::string_view name) const {
    for (const auto& [n, t] : binds) {
      if (n == name) return &t;
    }
    return nullptr;
  }
};

class MergePlanner {
 public:
  MergePlanner(ExecContext* ctx, const MergeClause& clause)
      : ctx_(ctx), clause_(clause) {}

  /// Plans one virtual instance of all patterns for the record `bindings`.
  Result<Instance> PlanInstance(const Bindings& bindings) {
    Instance instance;
    for (size_t p = 0; p < clause_.patterns.size(); ++p) {
      CYPHER_RETURN_NOT_OK(PlanPattern(bindings, p, &instance));
    }
    return instance;
  }

  std::vector<VirtualNode>& vnodes() { return vnodes_; }
  std::vector<VirtualRel>& vrels() { return vrels_; }

 private:
  Result<size_t> PlanNode(const Bindings& bindings, const NodePattern& pattern,
                          size_t pattern_idx, size_t position,
                          Instance* instance) {
    if (!pattern.variable.empty()) {
      if (const BindTarget* prior = instance->Find(pattern.variable)) {
        if (prior->kind != BindTarget::Kind::kNode) {
          return Status::ExecutionError("variable '" + pattern.variable +
                                        "' is not a node");
        }
        if (!pattern.labels.empty() || !pattern.properties.empty()) {
          return Status::SemanticError(
              "variable '" + pattern.variable +
              "' is already bound; it cannot be redeclared with labels or "
              "properties");
        }
        return prior->index;
      }
      if (std::optional<Value> bound = bindings.Lookup(pattern.variable)) {
        if (!pattern.labels.empty() || !pattern.properties.empty()) {
          return Status::SemanticError(
              "variable '" + pattern.variable +
              "' is already bound; it cannot be redeclared with labels or "
              "properties");
        }
        if (bound->is_null()) {
          return Status::ExecutionError(
              "MERGE cannot create a pattern over null (variable '" +
              pattern.variable + "')");
        }
        if (!bound->is_node()) {
          return Status::ExecutionError(
              "variable '" + pattern.variable + "' is bound to " +
              ValueTypeName(bound->type()) + ", expected a node");
        }
        if (!ctx_->graph->IsNodeAlive(bound->AsNode())) {
          return Status::ExecutionError("variable '" + pattern.variable +
                                        "' refers to a deleted node");
        }
        VirtualNode vn;
        vn.existing = true;
        vn.existing_id = bound->AsNode();
        vn.pattern = pattern_idx;
        vn.position = position;
        vnodes_.push_back(std::move(vn));
        size_t idx = vnodes_.size() - 1;
        instance->binds.emplace_back(
            pattern.variable,
            BindTarget{BindTarget::Kind::kNode, idx, {}, {}});
        return idx;
      }
    }
    VirtualNode vn;
    vn.pattern = pattern_idx;
    vn.position = position;
    for (const std::string& label : pattern.labels) {
      vn.labels.push_back(ctx_->graph->InternLabel(label));
    }
    std::sort(vn.labels.begin(), vn.labels.end());
    vn.labels.erase(std::unique(vn.labels.begin(), vn.labels.end()),
                    vn.labels.end());
    CYPHER_ASSIGN_OR_RETURN(vn.props,
                            EvalPatternProps(ctx_, bindings, pattern.properties));
    vnodes_.push_back(std::move(vn));
    size_t idx = vnodes_.size() - 1;
    if (!pattern.variable.empty()) {
      instance->binds.emplace_back(
          pattern.variable, BindTarget{BindTarget::Kind::kNode, idx, {}, {}});
    }
    return idx;
  }

  Status PlanPattern(const Bindings& bindings, size_t pattern_idx,
                     Instance* instance) {
    const PathPattern& pattern = clause_.patterns[pattern_idx];
    std::vector<size_t> path_nodes;
    std::vector<size_t> path_rels;
    CYPHER_ASSIGN_OR_RETURN(
        size_t cur, PlanNode(bindings, pattern.start, pattern_idx, 0, instance));
    path_nodes.push_back(cur);
    for (size_t s = 0; s < pattern.steps.size(); ++s) {
      const auto& [rel_pattern, node_pattern] = pattern.steps[s];
      if (!rel_pattern.variable.empty() &&
          (instance->Find(rel_pattern.variable) != nullptr ||
           bindings.IsBound(rel_pattern.variable))) {
        return Status::SemanticError("relationship variable '" +
                                     rel_pattern.variable +
                                     "' is already bound");
      }
      CYPHER_ASSIGN_OR_RETURN(
          size_t next,
          PlanNode(bindings, node_pattern, pattern_idx, s + 1, instance));
      VirtualRel vr;
      vr.type = ctx_->graph->InternType(rel_pattern.types.front());
      vr.src = cur;
      vr.tgt = next;
      if (rel_pattern.direction == RelDirection::kRightToLeft) {
        std::swap(vr.src, vr.tgt);
      }
      CYPHER_ASSIGN_OR_RETURN(
          vr.props, EvalPatternProps(ctx_, bindings, rel_pattern.properties));
      vr.pattern = pattern_idx;
      vr.position = s;
      vrels_.push_back(std::move(vr));
      size_t rel_idx = vrels_.size() - 1;
      if (!rel_pattern.variable.empty()) {
        instance->binds.emplace_back(
            rel_pattern.variable,
            BindTarget{BindTarget::Kind::kRel, rel_idx, {}, {}});
      }
      path_rels.push_back(rel_idx);
      path_nodes.push_back(next);
      cur = next;
    }
    if (!pattern.path_variable.empty()) {
      if (instance->Find(pattern.path_variable) != nullptr ||
          bindings.IsBound(pattern.path_variable)) {
        return Status::SemanticError("path variable '" +
                                     pattern.path_variable +
                                     "' is already bound");
      }
      BindTarget target{BindTarget::Kind::kPath, 0, std::move(path_nodes),
                        std::move(path_rels)};
      instance->binds.emplace_back(pattern.path_variable, std::move(target));
    }
    return Status::OK();
  }

  ExecContext* ctx_;
  const MergeClause& clause_;
  std::vector<VirtualNode> vnodes_;
  std::vector<VirtualRel> vrels_;
};

/// Identity of a (possibly collapsed) relationship endpoint: existing nodes
/// by graph id, created nodes by their representative vnode index.
struct EndpointKey {
  bool existing;
  uint32_t id;
  friend bool operator==(const EndpointKey& a, const EndpointKey& b) {
    return a.existing == b.existing && a.id == b.id;
  }
};

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Group key for the "grouping by pattern expressions" step: the values of
/// all bound pattern variables plus every evaluated property map, flattened
/// into one Value vector compared under grouping equivalence.
class RecordGroupKeyBuilder {
 public:
  explicit RecordGroupKeyBuilder(ExecContext* ctx) : ctx_(ctx) {}

  Result<std::vector<Value>> Build(const Bindings& bindings,
                                   const std::vector<PathPattern>& patterns) {
    std::vector<Value> key;
    EvalContext ec = ctx_->Eval();
    for (const PathPattern& pattern : patterns) {
      CYPHER_RETURN_NOT_OK(AddNode(ec, bindings, pattern.start, &key));
      for (const auto& [rel, node] : pattern.steps) {
        CYPHER_RETURN_NOT_OK(AddProps(ec, bindings, rel.properties, &key));
        CYPHER_RETURN_NOT_OK(AddNode(ec, bindings, node, &key));
      }
    }
    return key;
  }

 private:
  Status AddNode(const EvalContext& ec, const Bindings& bindings,
                 const NodePattern& pattern, std::vector<Value>* key) {
    if (!pattern.variable.empty()) {
      if (std::optional<Value> bound = bindings.Lookup(pattern.variable)) {
        key->push_back(*std::move(bound));
        return Status::OK();
      }
    }
    return AddProps(ec, bindings, pattern.properties, key);
  }

  Status AddProps(const EvalContext& ec, const Bindings& bindings,
                  const std::vector<std::pair<std::string, ExprPtr>>& props,
                  std::vector<Value>* key) {
    for (const auto& [name, expr] : props) {
      CYPHER_ASSIGN_OR_RETURN(Value v, Evaluate(ec, bindings, *expr));
      key->push_back(std::move(v));
    }
    return Status::OK();
  }

  ExecContext* ctx_;
};

Status ExecMergeRevised(ExecContext* ctx, const MergeClause& clause,
                        Table* table, MergeVariant variant) {
  if (!clause.on_create.empty() || !clause.on_match.empty()) {
    return Status::SemanticError(
        "ON CREATE SET / ON MATCH SET are not part of MERGE ALL / MERGE "
        "SAME; use a subsequent SET clause");
  }
  CYPHER_RETURN_NOT_OK(
      ValidateUpdatePatterns(clause.patterns, /*allow_undirected=*/false));
  std::vector<std::string> new_vars =
      NewPatternVariables(clause.patterns, *table);
  Table out = Table::WithColumns(table->columns());
  for (const std::string& var : new_vars) out.AddColumn(var);
  EvalContext ec = ctx->Eval();

  // ---- Phase A: match against the input graph --------------------------------
  // Revised MERGE matches every record against the same (input) graph, so
  // one compile serves the whole phase — creations happen only in Phase D —
  // and it fans out like any MATCH. `failed` comes back in ascending record
  // order, exactly as Phases B-D require.
  std::vector<size_t> failed;
  if (table->num_rows() > 0) {
    CompiledMatch compiled = CompileMatch(ec, Bindings(table, 0),
                                          clause.patterns,
                                          {.num_rows = table->num_rows()});
    std::optional<ParallelPlan> par_plan =
        PlanParallelMatch(ctx->options, *ec.graph, compiled, table->num_rows());
    CYPHER_RETURN_NOT_OK(MatchRows(
        ec, ctx->Match(), par_plan.has_value() ? &*par_plan : nullptr, *table,
        compiled, /*where=*/nullptr, new_vars, /*optional_match=*/false,
        &failed, &out));
  }

  // ---- Phase B: plan virtual instances ---------------------------------------
  MergePlanner planner(ctx, clause);
  // instance_of[i] = index into `instances` for failed record i.
  std::vector<size_t> instance_of(failed.size());
  std::vector<Instance> instances;
  if (variant == MergeVariant::kAtomic) {
    for (size_t i = 0; i < failed.size(); ++i) {
      Bindings bindings(table, failed[i]);
      CYPHER_ASSIGN_OR_RETURN(Instance instance,
                              planner.PlanInstance(bindings));
      instance_of[i] = instances.size();
      instances.push_back(std::move(instance));
    }
  } else {
    RecordGroupKeyBuilder key_builder(ctx);
    std::unordered_map<std::vector<Value>, size_t, ValueVecHash, ValueVecEq>
        group_index;
    for (size_t i = 0; i < failed.size(); ++i) {
      Bindings bindings(table, failed[i]);
      CYPHER_ASSIGN_OR_RETURN(std::vector<Value> key,
                              key_builder.Build(bindings, clause.patterns));
      auto [it, inserted] = group_index.try_emplace(std::move(key),
                                                    instances.size());
      if (inserted) {
        CYPHER_ASSIGN_OR_RETURN(Instance instance,
                                planner.PlanInstance(bindings));
        instances.push_back(std::move(instance));
      }
      instance_of[i] = it->second;
    }
  }

  std::vector<VirtualNode>& vnodes = planner.vnodes();
  std::vector<VirtualRel>& vrels = planner.vrels();

  // ---- Phase C: collapse ------------------------------------------------------
  std::vector<size_t> node_repr(vnodes.size());
  for (size_t i = 0; i < vnodes.size(); ++i) node_repr[i] = i;
  bool collapse_nodes = variant == MergeVariant::kWeakCollapse ||
                        variant == MergeVariant::kCollapse ||
                        variant == MergeVariant::kStrongCollapse;
  bool node_position_sensitive = variant == MergeVariant::kWeakCollapse;
  if (collapse_nodes) {
    // Bucket created vnodes by hash; resolve equality precisely
    // (Definition 1: same labels, equivalent properties; 1(iii) — existing
    // nodes only collapse with themselves, so they are skipped here).
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    for (size_t i = 0; i < vnodes.size(); ++i) {
      if (vnodes[i].existing) continue;
      uint64_t h = 67;
      for (Symbol s : vnodes[i].labels) h = MixHash(h, s);
      h = MixHash(h, HashProps(vnodes[i].props));
      if (node_position_sensitive) {
        h = MixHash(h, vnodes[i].pattern * 131 + vnodes[i].position);
      }
      std::vector<size_t>& bucket = buckets[h];
      bool found = false;
      for (size_t j : bucket) {
        const VirtualNode& a = vnodes[i];
        const VirtualNode& b = vnodes[j];
        if (a.labels != b.labels) continue;
        if (node_position_sensitive &&
            (a.pattern != b.pattern || a.position != b.position)) {
          continue;
        }
        if (!PropsEquivalent(a.props, b.props)) continue;
        node_repr[i] = j;
        found = true;
        break;
      }
      if (!found) bucket.push_back(i);
    }
  }
  auto endpoint_key = [&](size_t vn) -> EndpointKey {
    if (vnodes[vn].existing) {
      return {true, vnodes[vn].existing_id.value};
    }
    return {false, static_cast<uint32_t>(node_repr[vn])};
  };

  std::vector<size_t> rel_repr(vrels.size());
  for (size_t i = 0; i < vrels.size(); ++i) rel_repr[i] = i;
  bool collapse_rels = collapse_nodes;  // same variants collapse rels
  bool rel_position_sensitive = variant == MergeVariant::kWeakCollapse ||
                                variant == MergeVariant::kCollapse;
  if (collapse_rels) {
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    for (size_t i = 0; i < vrels.size(); ++i) {
      EndpointKey src = endpoint_key(vrels[i].src);
      EndpointKey tgt = endpoint_key(vrels[i].tgt);
      uint64_t h = MixHash(71, vrels[i].type);
      h = MixHash(h, HashProps(vrels[i].props));
      h = MixHash(h, (src.existing ? 1ULL << 40 : 0) + src.id);
      h = MixHash(h, (tgt.existing ? 1ULL << 40 : 0) + tgt.id);
      if (rel_position_sensitive) {
        h = MixHash(h, vrels[i].pattern * 131 + vrels[i].position);
      }
      std::vector<size_t>& bucket = buckets[h];
      bool found = false;
      for (size_t j : bucket) {
        const VirtualRel& a = vrels[i];
        const VirtualRel& b = vrels[j];
        if (a.type != b.type) continue;
        if (rel_position_sensitive &&
            (a.pattern != b.pattern || a.position != b.position)) {
          continue;
        }
        if (!(endpoint_key(a.src) == endpoint_key(b.src))) continue;
        if (!(endpoint_key(a.tgt) == endpoint_key(b.tgt))) continue;
        if (!PropsEquivalent(a.props, b.props)) continue;
        rel_repr[i] = j;
        found = true;
        break;
      }
      if (!found) bucket.push_back(i);
    }
  }

  // ---- Phase D: materialize representatives ----------------------------------
  std::vector<NodeId> node_of(vnodes.size());
  for (size_t i = 0; i < vnodes.size(); ++i) {
    if (vnodes[i].existing) {
      node_of[i] = vnodes[i].existing_id;
    } else if (node_repr[i] == i) {
      node_of[i] =
          ctx->graph->CreateNode(vnodes[i].labels, vnodes[i].props);
      ++ctx->stats.nodes_created;
    }
  }
  auto resolve_node = [&](size_t vn) -> NodeId {
    if (vnodes[vn].existing) return vnodes[vn].existing_id;
    return node_of[node_repr[vn]];
  };
  std::vector<RelId> rel_of(vrels.size());
  for (size_t i = 0; i < vrels.size(); ++i) {
    if (rel_repr[i] != i) continue;
    CYPHER_ASSIGN_OR_RETURN(
        rel_of[i],
        ctx->graph->CreateRel(resolve_node(vrels[i].src),
                              resolve_node(vrels[i].tgt), vrels[i].type,
                              vrels[i].props));
    ++ctx->stats.rels_created;
  }
  auto resolve_rel = [&](size_t vr) -> RelId { return rel_of[rel_repr[vr]]; };

  // ---- Phase E: emit created rows ---------------------------------------------
  for (size_t i = 0; i < failed.size(); ++i) {
    const Instance& instance = instances[instance_of[i]];
    std::vector<Value> row = table->row(failed[i]);
    for (const std::string& var : new_vars) {
      const BindTarget* target = instance.Find(var);
      CYPHER_CHECK(target != nullptr && "MERGE did not bind a variable");
      switch (target->kind) {
        case BindTarget::Kind::kNode:
          row.push_back(Value::Node(resolve_node(target->index)));
          break;
        case BindTarget::Kind::kRel:
          row.push_back(Value::Rel(resolve_rel(target->index)));
          break;
        case BindTarget::Kind::kPath: {
          PathValue path;
          for (size_t vn : target->path_nodes) {
            path.nodes.push_back(resolve_node(vn));
          }
          for (size_t vr : target->path_rels) {
            path.rels.push_back(resolve_rel(vr));
          }
          row.push_back(Value::Path(std::move(path)));
          break;
        }
      }
    }
    out.AddRow(std::move(row));
  }

  *table = std::move(out);
  return Status::OK();
}

}  // namespace

Status ExecMerge(ExecContext* ctx, const MergeClause& clause, Table* table) {
  switch (clause.form) {
    case MergeForm::kAll:
      return ExecMergeRevised(ctx, clause, table, MergeVariant::kAtomic);
    case MergeForm::kSame:
      return ExecMergeRevised(ctx, clause, table,
                              MergeVariant::kStrongCollapse);
    case MergeForm::kLegacy:
      break;
  }
  if (ctx->options.semantics == SemanticsMode::kLegacy) {
    return ExecMergeLegacy(ctx, clause, table);
  }
  if (ctx->options.plain_merge_variant.has_value()) {
    return ExecMergeRevised(ctx, clause, table,
                            *ctx->options.plain_merge_variant);
  }
  return Status::SemanticError(
      "bare MERGE is not available under the revised semantics; use MERGE "
      "ALL or MERGE SAME (Section 7), or configure plain_merge_variant");
}

}  // namespace cypher
