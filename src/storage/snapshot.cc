#include "storage/snapshot.h"

#include <charconv>
#include <vector>

#include "common/strings.h"
#include "graph/serialize.h"
#include "storage/wal.h"

namespace cypher::storage {

namespace {

// ---- Writers ----------------------------------------------------------------

/// ":A:B" suffix for a label set (empty for none) — the compact form both
/// the snapshot and PropertyGraph's redo lines use after an entity id.
std::string LabelsSuffix(const PropertyGraph& graph,
                         const std::vector<Symbol>& labels) {
  std::string out;
  for (Symbol label : labels) {
    out += ':';
    out += graph.LabelName(label);
  }
  return out;
}

// ---- Readers ----------------------------------------------------------------

/// Whitespace-separated token scanner over one line.
struct Cursor {
  std::string_view text;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < text.size() && text[pos] == ' ') ++pos;
  }

  /// Next space-delimited token; empty at end of line.
  std::string_view Token() {
    SkipSpace();
    size_t start = pos;
    while (pos < text.size() && text[pos] != ' ') ++pos;
    return text.substr(start, pos - start);
  }

  /// Everything left (a trailing property literal).
  std::string_view Rest() {
    SkipSpace();
    return text.substr(pos);
  }
};

bool ParseU32(std::string_view token, uint32_t* out) {
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

/// Splits "5:A:B" into the id and its label names ("5" → no labels).
bool ParseIdLabels(std::string_view token, uint32_t* id,
                   std::vector<std::string_view>* labels) {
  size_t colon = token.find(':');
  std::string_view id_part =
      colon == std::string_view::npos ? token : token.substr(0, colon);
  if (!ParseU32(id_part, id)) return false;
  labels->clear();
  if (colon == std::string_view::npos) return true;
  std::string_view rest = token.substr(colon + 1);
  while (!rest.empty()) {
    size_t next = rest.find(':');
    std::string_view name =
        next == std::string_view::npos ? rest : rest.substr(0, next);
    if (name.empty()) return false;
    labels->push_back(name);
    rest = next == std::string_view::npos ? std::string_view()
                                          : rest.substr(next + 1);
  }
  return true;
}

/// ":Name" token → "Name".
bool ParseName(std::string_view token, std::string_view* out) {
  if (token.size() < 2 || token[0] != ':') return false;
  *out = token.substr(1);
  return true;
}

PropertyMap PropsFromMap(PropertyGraph* graph, const ValueMap& map) {
  PropertyMap props;
  for (const auto& [key, value] : map) {
    props.Set(graph->InternKey(key), value);
  }
  return props;
}

Status LineError(const char* what, size_t line_no) {
  return Status::InvalidArgument(std::string(what) + " at line " +
                                 std::to_string(line_no));
}

}  // namespace

std::string EncodeSnapshot(const PropertyGraph& graph) {
  std::string out;
  out += "nodes " + std::to_string(graph.node_capacity()) + "\n";
  out += "rels " + std::to_string(graph.rel_capacity()) + "\n";
  for (uint32_t i = 0; i < graph.node_capacity(); ++i) {
    NodeId id(i);
    if (!graph.IsNodeAlive(id)) continue;
    const NodeData& data = graph.node(id);
    out += "node " + std::to_string(i) + LabelsSuffix(graph, data.labels) +
           " " + DescribeProps(graph, data.props) + "\n";
  }
  for (uint32_t i = 0; i < graph.rel_capacity(); ++i) {
    RelId id(i);
    if (!graph.IsRelAlive(id)) continue;
    const RelData& data = graph.rel(id);
    out += "rel " + std::to_string(i) + " " + std::to_string(data.src.value) +
           " " + std::to_string(data.tgt.value) + " :" +
           graph.TypeName(data.type) + " " +
           DescribeProps(graph, data.props) + "\n";
  }
  for (const auto& [label, key] : graph.Indexes()) {
    out += "index :" + graph.LabelName(label) + " " + graph.KeyName(key) +
           "\n";
  }
  for (const auto& [label, key] : graph.UniqueConstraints()) {
    out +=
        "uniq :" + graph.LabelName(label) + " " + graph.KeyName(key) + "\n";
  }
  return out;
}

Result<PropertyGraph> DecodeSnapshot(std::string_view payload) {
  PropertyGraph graph;
  uint32_t node_capacity = 0;
  uint32_t rel_capacity = 0;
  bool have_header = false;
  size_t line_no = 0;
  for (const std::string& raw : Split(payload, '\n')) {
    ++line_no;
    std::string_view line = StripAsciiWhitespace(raw);
    if (line.empty()) continue;
    Cursor cursor{line};
    std::string_view kind = cursor.Token();
    if (kind == "nodes") {
      if (!ParseU32(cursor.Token(), &node_capacity)) {
        return LineError("malformed nodes header", line_no);
      }
      have_header = true;
      continue;
    }
    if (kind == "rels") {
      if (!have_header || !ParseU32(cursor.Token(), &rel_capacity)) {
        return LineError("malformed rels header", line_no);
      }
      continue;
    }
    if (!have_header) return LineError("missing snapshot header", line_no);
    if (kind == "node") {
      uint32_t slot = 0;
      std::vector<std::string_view> label_names;
      if (!ParseIdLabels(cursor.Token(), &slot, &label_names) ||
          slot >= node_capacity || slot < graph.node_capacity()) {
        return LineError("bad node slot", line_no);
      }
      while (graph.node_capacity() < slot) graph.AppendTombstoneNode();
      auto map = ParseLiteralMap(cursor.Rest());
      if (!map.ok()) return LineError("bad node properties", line_no);
      std::vector<Symbol> labels;
      labels.reserve(label_names.size());
      for (std::string_view name : label_names) {
        labels.push_back(graph.InternLabel(name));
      }
      graph.CreateNode(std::move(labels), PropsFromMap(&graph, *map));
      continue;
    }
    if (kind == "rel") {
      uint32_t slot = 0;
      uint32_t src = 0;
      uint32_t tgt = 0;
      std::string_view type;
      if (!ParseU32(cursor.Token(), &slot) ||
          !ParseU32(cursor.Token(), &src) ||
          !ParseU32(cursor.Token(), &tgt) ||
          !ParseName(cursor.Token(), &type) || slot >= rel_capacity ||
          slot < graph.rel_capacity()) {
        return LineError("bad rel line", line_no);
      }
      while (graph.rel_capacity() < slot) graph.AppendTombstoneRel();
      auto map = ParseLiteralMap(cursor.Rest());
      if (!map.ok()) return LineError("bad rel properties", line_no);
      auto rel = graph.CreateRel(NodeId(src), NodeId(tgt),
                                 graph.InternType(type),
                                 PropsFromMap(&graph, *map));
      if (!rel.ok()) return LineError("rel references dead slot", line_no);
      continue;
    }
    if (kind == "index" || kind == "uniq") {
      std::string_view label;
      std::string_view key = cursor.Token();
      // token order: ":Label" then bare key name
      std::string_view key_name = cursor.Token();
      if (!ParseName(key, &label) || key_name.empty()) {
        return LineError("bad index/uniq line", line_no);
      }
      // Indexes and constraints come after every entity line, so both
      // slot-capacity pads below have not run yet; interning here is safe.
      Symbol l = graph.InternLabel(label);
      Symbol k = graph.InternKey(key_name);
      if (kind == "index") {
        graph.CreateIndex(l, k);
      } else {
        Status st = graph.AddUniqueConstraint(l, k);
        if (!st.ok()) return st;
      }
      continue;
    }
    return LineError("unknown snapshot record", line_no);
  }
  if (!have_header) {
    return Status::InvalidArgument("snapshot without header");
  }
  while (graph.node_capacity() < node_capacity) graph.AppendTombstoneNode();
  while (graph.rel_capacity() < rel_capacity) graph.AppendTombstoneRel();
  return graph;
}

Status ApplyRedoLog(PropertyGraph* graph, std::string_view redo) {
  size_t line_no = 0;
  for (const std::string& raw : Split(redo, '\n')) {
    ++line_no;
    std::string_view line = StripAsciiWhitespace(raw);
    if (line.empty()) continue;
    Cursor cursor{line};
    std::string_view verb = cursor.Token();
    if (verb == "node+") {
      uint32_t id = 0;
      std::vector<std::string_view> label_names;
      if (!ParseIdLabels(cursor.Token(), &id, &label_names) ||
          id != graph->node_capacity()) {
        return LineError("redo creates node out of slot order", line_no);
      }
      auto map = ParseLiteralMap(cursor.Rest());
      if (!map.ok()) return LineError("bad node+ properties", line_no);
      std::vector<Symbol> labels;
      labels.reserve(label_names.size());
      for (std::string_view name : label_names) {
        labels.push_back(graph->InternLabel(name));
      }
      graph->CreateNode(std::move(labels), PropsFromMap(graph, *map));
      continue;
    }
    if (verb == "rel+") {
      uint32_t id = 0;
      uint32_t src = 0;
      uint32_t tgt = 0;
      std::string_view type;
      if (!ParseU32(cursor.Token(), &id) || !ParseU32(cursor.Token(), &src) ||
          !ParseU32(cursor.Token(), &tgt) ||
          !ParseName(cursor.Token(), &type) || id != graph->rel_capacity()) {
        return LineError("bad rel+ line", line_no);
      }
      auto map = ParseLiteralMap(cursor.Rest());
      if (!map.ok()) return LineError("bad rel+ properties", line_no);
      auto rel =
          graph->CreateRel(NodeId(src), NodeId(tgt), graph->InternType(type),
                           PropsFromMap(graph, *map));
      if (!rel.ok()) return LineError("rel+ references dead slot", line_no);
      continue;
    }
    if (verb == "rel-") {
      uint32_t id = 0;
      if (!ParseU32(cursor.Token(), &id) || !graph->IsValidRel(RelId(id))) {
        return LineError("bad rel- line", line_no);
      }
      graph->DeleteRel(RelId(id));
      continue;
    }
    if (verb == "node-") {
      uint32_t id = 0;
      if (!ParseU32(cursor.Token(), &id) || !graph->IsValidNode(NodeId(id))) {
        return LineError("bad node- line", line_no);
      }
      // Force-style delete: in legacy order the node can go before its
      // incident relationships within one statement.
      graph->DeleteNodeForce(NodeId(id));
      continue;
    }
    if (verb == "label+" || verb == "label-") {
      uint32_t id = 0;
      std::string_view name;
      if (!ParseU32(cursor.Token(), &id) ||
          !ParseName(cursor.Token(), &name) ||
          !graph->IsValidNode(NodeId(id))) {
        return LineError("bad label line", line_no);
      }
      Symbol label = graph->InternLabel(name);
      if (verb == "label+") {
        graph->AddLabel(NodeId(id), label);
      } else {
        graph->RemoveLabel(NodeId(id), label);
      }
      continue;
    }
    if (verb == "prop" || verb == "props") {
      std::string_view kind = cursor.Token();
      uint32_t id = 0;
      if ((kind != "N" && kind != "R") || !ParseU32(cursor.Token(), &id)) {
        return LineError("bad prop line", line_no);
      }
      EntityRef entity = kind == "N" ? EntityRef::Node(NodeId(id))
                                     : EntityRef::Rel(RelId(id));
      if (kind == "N" ? !graph->IsValidNode(NodeId(id))
                      : !graph->IsValidRel(RelId(id))) {
        return LineError("prop line references unknown slot", line_no);
      }
      if (verb == "prop") {
        std::string_view key = cursor.Token();
        if (key.empty()) return LineError("bad prop key", line_no);
        auto value = ParseLiteral(cursor.Rest());
        if (!value.ok()) return LineError("bad prop literal", line_no);
        graph->SetProperty(entity, graph->InternKey(key), *std::move(value));
      } else {
        auto map = ParseLiteralMap(cursor.Rest());
        if (!map.ok()) return LineError("bad props literal", line_no);
        graph->ReplaceProperties(entity, PropsFromMap(graph, *map));
      }
      continue;
    }
    if (verb == "index+" || verb == "index-" || verb == "uniq+" ||
        verb == "uniq-") {
      std::string_view label;
      if (!ParseName(cursor.Token(), &label)) {
        return LineError("bad ddl line", line_no);
      }
      std::string_view key = cursor.Token();
      if (key.empty()) return LineError("bad ddl key", line_no);
      Symbol l = graph->InternLabel(label);
      Symbol k = graph->InternKey(key);
      if (verb == "index+") {
        graph->CreateIndex(l, k);
      } else if (verb == "index-") {
        graph->DropIndex(l, k);
      } else if (verb == "uniq+") {
        Status st = graph->AddUniqueConstraint(l, k);
        if (!st.ok()) return st;
      } else {
        graph->DropUniqueConstraint(l, k);
      }
      continue;
    }
    return LineError("unknown redo verb", line_no);
  }
  return Status::OK();
}

Result<RecoveredGraph> RecoverGraph(std::string_view wal_bytes) {
  // Replays straight from the image: a payload copy per record would hold
  // a second copy of the log during recovery.
  CYPHER_ASSIGN_OR_RETURN(WalScan contents, ScanWal(wal_bytes));
  RecoveredGraph out;
  out.valid_bytes = contents.valid_bytes;
  out.torn_tail = contents.torn_tail;
  // The latest snapshot wins; everything before it is dead weight kept only
  // because logs are append-only (Checkpoint appends a fresh snapshot).
  size_t start = 0;
  bool have_snapshot = false;
  for (size_t i = 0; i < contents.records.size(); ++i) {
    if (contents.records[i].type == WalRecordType::kSnapshot) {
      start = i;
      have_snapshot = true;
    }
  }
  if (have_snapshot) {
    CYPHER_ASSIGN_OR_RETURN(
        out.graph, DecodeSnapshot(contents.records[start].payload));
    ++start;
  }
  for (size_t i = start; i < contents.records.size(); ++i) {
    Status st = ApplyRedoLog(&out.graph, contents.records[i].payload);
    if (!st.ok()) return st;
    ++out.statements;
  }
  return out;
}

}  // namespace cypher::storage
