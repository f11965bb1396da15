#ifndef CYPHER_EXEC_RENDER_H_
#define CYPHER_EXEC_RENDER_H_

#include <string>

#include "exec/interpreter.h"
#include "graph/graph.h"
#include "value/value.h"

namespace cypher {

/// Renders a value with entities expanded against the graph:
/// nodes as `(:User {id: 89, name: 'Bob'})`, relationships as
/// `[:ORDERED {...}]`, paths as node-arrow chains. Deleted (zombie) nodes
/// render as `()` — the "empty node" of Section 4.2. A deleted relationship
/// keeps its type, and renders as `[:TYPE]`, until the writer opens its
/// next statement; from then on its storage may be reclaimed
/// (PropertyGraph::ReclaimDeadChunks) and it renders as `[]`, and as an
/// arrowless `-[]-` inside a path.
std::string RenderValue(const PropertyGraph& graph, const Value& value);

/// Renders the result as an aligned text table followed by the stats line.
std::string RenderResult(const PropertyGraph& graph, const QueryResult& result);

}  // namespace cypher

#endif  // CYPHER_EXEC_RENDER_H_
