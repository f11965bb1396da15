#include "exec/render.h"

#include <algorithm>

namespace cypher {

std::string RenderValue(const PropertyGraph& graph, const Value& value) {
  switch (value.type()) {
    case ValueType::kNode:
      return DescribeNode(graph, value.AsNode());
    case ValueType::kRel: {
      RelId id = value.AsRel();
      if (!graph.IsValidRel(id)) return "[?invalid?]";
      const RelData& rel = graph.rel(id);
      if (rel.type == kNoSymbol) return "[]";  // reclaimed: type is gone
      std::string out = "[:";
      out += graph.TypeName(rel.type);
      if (!rel.props.empty()) {
        out += " ";
        out += DescribeProps(graph, rel.props);
      }
      out += "]";
      return out;
    }
    case ValueType::kPath: {
      const PathValue& path = value.AsPath();
      std::string out;
      for (size_t i = 0; i < path.nodes.size(); ++i) {
        if (i > 0) {
          const RelData& rel = graph.rel(path.rels[i - 1]);
          // A reclaimed relationship lost its endpoints: no arrow.
          bool reclaimed = rel.type == kNoSymbol;
          bool forward = !reclaimed && rel.src == path.nodes[i - 1];
          out += forward || reclaimed ? "-" : "<-";
          out += RenderValue(graph, Value::Rel(path.rels[i - 1]));
          out += forward ? "->" : "-";
        }
        out += DescribeNode(graph, path.nodes[i]);
      }
      return out;
    }
    case ValueType::kList: {
      std::string out = "[";
      bool first = true;
      for (const Value& v : value.AsList()) {
        if (!first) out += ", ";
        first = false;
        out += RenderValue(graph, v);
      }
      return out + "]";
    }
    case ValueType::kMap: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, v] : value.AsMap()) {
        if (!first) out += ", ";
        first = false;
        out += key + ": " + RenderValue(graph, v);
      }
      return out + "}";
    }
    default:
      return value.ToString();
  }
}

std::string RenderResult(const PropertyGraph& graph,
                         const QueryResult& result) {
  std::string out;
  if (!result.columns.empty()) {
    std::vector<std::vector<std::string>> cells;
    cells.push_back(result.columns);
    for (const auto& row : result.rows) {
      std::vector<std::string> line;
      line.reserve(row.size());
      for (const Value& v : row) line.push_back(RenderValue(graph, v));
      cells.push_back(std::move(line));
    }
    std::vector<size_t> widths(result.columns.size(), 0);
    for (const auto& line : cells) {
      for (size_t i = 0; i < line.size(); ++i) {
        widths[i] = std::max(widths[i], line[i].size());
      }
    }
    for (size_t l = 0; l < cells.size(); ++l) {
      out += "| ";
      for (size_t i = 0; i < cells[l].size(); ++i) {
        out += cells[l][i];
        out.append(widths[i] - cells[l][i].size(), ' ');
        out += " | ";
      }
      out.pop_back();
      out += "\n";
      if (l == 0) {
        std::string rule = "+";
        for (size_t w : widths) rule += std::string(w + 2, '-') + "+";
        out += rule + "\n";
      }
    }
    out += std::to_string(result.rows.size()) +
           (result.rows.size() == 1 ? " row\n" : " rows\n");
  }
  if (result.stats.AnyUpdates()) {
    out += result.stats.ToString() + "\n";
  }
  return out;
}

}  // namespace cypher
