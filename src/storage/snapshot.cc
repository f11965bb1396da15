#include "storage/snapshot.h"

#include <algorithm>
#include <charconv>
#include <vector>

#include "common/strings.h"
#include "graph/serialize.h"
#include "storage/wal.h"

namespace cypher::storage {

namespace {

// ---- Writers ----------------------------------------------------------------

void AppendCapacities(const PropertyGraph& graph, std::string* out) {
  *out += "nodes " + std::to_string(graph.node_capacity()) + "\nrels " +
          std::to_string(graph.rel_capacity()) + "\n";
}

/// ` {key: literal, ...}`, or nothing for an empty map (most relationships
/// carry none).
void AppendProps(const PropertyGraph& graph, const PropertyMap& props,
                 std::string* out) {
  if (!props.empty()) *out += ' ' + DescribeProps(graph, props);
}

/// The image line of one node slot: `node <slot>[:Label...] [{…}]` when it
/// is alive, `dead N <slot>` when not.
void AppendNodeImage(const PropertyGraph& graph, NodeId id, std::string* out) {
  const NodeData& data = graph.node(id);
  if (!data.alive) {
    *out += "dead N " + std::to_string(id.value) + "\n";
    return;
  }
  *out += "node " + std::to_string(id.value);
  for (Symbol label : data.labels) {
    *out += ':';
    *out += graph.LabelName(label);
  }
  AppendProps(graph, data.props, out);
  *out += '\n';
}

/// The image line of one relationship slot: `rel <slot> <src> <tgt> :TYPE
/// [{…}]` when it is alive, `dead R <slot>` when not.
void AppendRelImage(const PropertyGraph& graph, RelId id, std::string* out) {
  const RelData& data = graph.rel(id);
  if (!data.alive) {
    *out += "dead R " + std::to_string(id.value) + "\n";
    return;
  }
  *out += "rel " + std::to_string(id.value) + " " +
          std::to_string(data.src.value) + " " +
          std::to_string(data.tgt.value) + " :" + graph.TypeName(data.type);
  AppendProps(graph, data.props, out);
  *out += '\n';
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

/// The optional trailing property map of a node or rel line.
Result<ValueMap> ParseProps(Cursor* cursor) {
  std::string_view rest = cursor->Rest();
  if (rest.empty()) return ValueMap();
  return ParseLiteralMap(rest);
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
  AppendCapacities(graph, &out);
  for (uint32_t i = 0; i < graph.node_capacity(); ++i) {
    if (graph.IsNodeAlive(NodeId(i))) AppendNodeImage(graph, NodeId(i), &out);
  }
  for (uint32_t i = 0; i < graph.rel_capacity(); ++i) {
    if (graph.IsRelAlive(RelId(i))) AppendRelImage(graph, RelId(i), &out);
  }
  for (const auto& [label, key] : graph.Indexes()) {
    out += "index+ :" + graph.LabelName(label) + " " + graph.KeyName(key) +
           "\n";
  }
  for (const auto& [label, key] : graph.UniqueConstraints()) {
    out +=
        "uniq+ :" + graph.LabelName(label) + " " + graph.KeyName(key) + "\n";
  }
  return out;
}

std::string EncodeStatementImage(const PropertyGraph& graph,
                                 PropertyGraph::JournalMark mark,
                                 std::string_view ddl) {
  PropertyGraph::TouchedSlots touched = graph.TouchedSince(mark);
  std::string out;
  if (touched.nodes.empty() && touched.rels.empty() && ddl.empty()) {
    return out;
  }
  AppendCapacities(graph, &out);
  for (NodeId id : touched.nodes) {
    if (id.value < touched.node_base || graph.IsNodeAlive(id)) {
      AppendNodeImage(graph, id, &out);
    }
  }
  for (RelId id : touched.rels) {
    if (id.value < touched.rel_base || graph.IsRelAlive(id)) {
      AppendRelImage(graph, id, &out);
    }
  }
  out += ddl;
  return out;
}

Status ApplyImage(PropertyGraph* graph, std::string_view image) {
  uint32_t node_capacity = 0;
  uint32_t rel_capacity = 0;
  bool have_header = false;
  // A node dies after the rels that die with it (DETACH DELETE), so its
  // force delete never leaves one dangling.
  std::vector<NodeId> node_deaths;
  size_t line_no = 0;
  while (!image.empty()) {
    size_t eol = image.find('\n');
    std::string_view line = StripAsciiWhitespace(image.substr(0, eol));
    image.remove_prefix(eol == std::string_view::npos ? image.size()
                                                      : eol + 1);
    ++line_no;
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
    if (!have_header) return LineError("missing image header", line_no);
    if (kind == "node") {
      uint32_t slot = 0;
      std::vector<std::string_view> label_names;
      if (!ParseIdLabels(cursor.Token(), &slot, &label_names) ||
          slot >= node_capacity ||
          (slot < graph->node_capacity() &&
           !graph->IsNodeAlive(NodeId(slot)))) {
        return LineError("bad node slot", line_no);
      }
      auto map = ParseProps(&cursor);
      if (!map.ok()) return LineError("bad node properties", line_no);
      std::vector<Symbol> labels;
      labels.reserve(label_names.size());
      for (std::string_view name : label_names) {
        labels.push_back(graph->InternLabel(name));
      }
      PropertyMap props = PropsFromMap(graph, *map);
      if (slot >= graph->node_capacity()) {
        while (graph->node_capacity() < slot) graph->AppendTombstoneNode();
        graph->CreateNode(std::move(labels), std::move(props));
        continue;
      }
      NodeId id(slot);
      std::sort(labels.begin(), labels.end());
      labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
      if (graph->node(id).labels != labels) {
        std::vector<Symbol> old_labels = graph->node(id).labels;
        for (Symbol label : old_labels) {
          if (!std::binary_search(labels.begin(), labels.end(), label)) {
            graph->RemoveLabel(id, label);
          }
        }
        for (Symbol label : labels) graph->AddLabel(id, label);
      }
      graph->ReplaceProperties(EntityRef::Node(id), std::move(props));
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
          !ParseName(cursor.Token(), &type) || slot >= rel_capacity) {
        return LineError("bad rel line", line_no);
      }
      auto map = ParseProps(&cursor);
      if (!map.ok()) return LineError("bad rel properties", line_no);
      PropertyMap props = PropsFromMap(graph, *map);
      if (slot >= graph->rel_capacity()) {
        while (graph->rel_capacity() < slot) graph->AppendTombstoneRel();
        auto rel = graph->CreateRel(NodeId(src), NodeId(tgt),
                                    graph->InternType(type), std::move(props));
        if (!rel.ok()) return LineError("rel references dead slot", line_no);
        continue;
      }
      // Endpoints and type never change, so an existing slot must agree.
      RelId id(slot);
      const RelData& data = graph->rel(id);
      if (!data.alive || data.src.value != src || data.tgt.value != tgt ||
          graph->TypeName(data.type) != type) {
        return LineError("rel line disagrees with its slot", line_no);
      }
      graph->ReplaceProperties(EntityRef::Rel(id), std::move(props));
      continue;
    }
    if (kind == "dead") {
      std::string_view which = cursor.Token();
      uint32_t slot = 0;
      if ((which != "N" && which != "R") || !ParseU32(cursor.Token(), &slot) ||
          slot >= (which == "N" ? graph->node_capacity()
                                : graph->rel_capacity())) {
        return LineError("dead line names no existing slot", line_no);
      }
      if (which == "N") {
        node_deaths.push_back(NodeId(slot));
      } else {
        graph->DeleteRel(RelId(slot));
      }
      continue;
    }
    if (kind == "index+" || kind == "index-" || kind == "uniq+" ||
        kind == "uniq-") {
      std::string_view label;
      std::string_view key = cursor.Token();
      if (!ParseName(key, &label)) return LineError("bad ddl line", line_no);
      key = cursor.Token();
      if (key.empty()) return LineError("bad ddl key", line_no);
      Symbol l = graph->InternLabel(label);
      Symbol k = graph->InternKey(key);
      if (kind == "index+") {
        graph->CreateIndex(l, k);
      } else if (kind == "index-") {
        graph->DropIndex(l, k);
      } else if (kind == "uniq+") {
        CYPHER_RETURN_NOT_OK(graph->AddUniqueConstraint(l, k));
      } else {
        graph->DropUniqueConstraint(l, k);
      }
      continue;
    }
    return LineError("unknown image line", line_no);
  }
  if (!have_header) return Status::InvalidArgument("image without header");
  for (NodeId id : node_deaths) graph->DeleteNodeForce(id);
  while (graph->node_capacity() < node_capacity) graph->AppendTombstoneNode();
  while (graph->rel_capacity() < rel_capacity) graph->AppendTombstoneRel();
  // Snapshots, recovery and followers all land here: free the chunks this
  // image left all dead.
  graph->ReclaimDeadChunks();
  return Status::OK();
}

Result<PropertyGraph> DecodeSnapshot(std::string_view payload) {
  PropertyGraph graph;
  CYPHER_RETURN_NOT_OK(ApplyImage(&graph, payload));
  return graph;
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
    CYPHER_RETURN_NOT_OK(ApplyImage(&out.graph, contents.records[i].payload));
    ++out.statements;
  }
  return out;
}

}  // namespace cypher::storage
