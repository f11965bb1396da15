#ifndef CYPHER_STORAGE_SNAPSHOT_H_
#define CYPHER_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "graph/graph.h"

namespace cypher::storage {

/// Graph images: the payload of every WAL record.
///
/// One line grammar serves both record types. An image names exact slot
/// ids, because later records reference entities by original slot:
///
///   nodes <slot-capacity>
///   rels <slot-capacity>
///   node <slot>[:Label...] [{key: literal, ...}]
///   rel <slot> <src> <tgt> :TYPE [{key: literal, ...}]
///   dead N <slot>        |  dead R <slot>
///   index+ :Label key    |  index- :Label key
///   uniq+ :Label key     |  uniq- :Label key
///
/// A snapshot (kSnapshot) is the image of every live slot plus every index
/// and constraint. A statement record (kStatement) is the after-image of
/// the slots one committed statement touched, plus its DDL. An empty
/// property map is left out. Slots up to the capacity lines that no line
/// names are tombstones: a statement rolled back after creating slots
/// leaves dead slots behind, and the next record's capacity lines pad the
/// replayed graph past them.
std::string EncodeSnapshot(const PropertyGraph& graph);

/// The record of the statement whose journal entries start at `mark`: the
/// after-image of every slot it touched, then `ddl` (captured DDL lines).
/// Live slots get a `node` / `rel` line. A touched slot that is dead gets a
/// `dead` line, unless the statement also created it (the capacity pad
/// covers that one). Empty when the statement changed nothing.
std::string EncodeStatementImage(const PropertyGraph& graph,
                                 PropertyGraph::JournalMark mark,
                                 std::string_view ddl);

/// Applies an image to `graph` through its mutators, so label counts,
/// property indexes and MVCC versions stay right. A slot at or past the
/// graph's capacity is padded to and created; an existing live slot gets
/// its labels and properties replaced. Node deaths apply after every other
/// line, then the graph is padded to the capacity lines, and the chunks
/// left all dead are reclaimed (PropertyGraph::ReclaimDeadChunks). Stops at
/// the first malformed line (InvalidArgument naming it), leaving earlier
/// lines applied.
Status ApplyImage(PropertyGraph* graph, std::string_view image);

/// ApplyImage on an empty graph. The result has the exact slot layout of
/// the source; interner order may differ (compare with DumpGraphCanonical,
/// not DumpGraph).
Result<PropertyGraph> DecodeSnapshot(std::string_view payload);

struct RecoveredGraph {
  PropertyGraph graph;
  /// Statement records applied (after the latest snapshot).
  size_t statements = 0;
  /// Valid prefix length of the log; bytes past this are torn/corrupt.
  uint64_t valid_bytes = 0;
  bool torn_tail = false;
};

/// Crash recovery over a raw log image: decode records (stopping at the
/// first torn or corrupt one), restore the latest snapshot, then apply
/// every following statement image. The caller truncates the file to
/// `valid_bytes` before appending new records.
Result<RecoveredGraph> RecoverGraph(std::string_view wal_bytes);

}  // namespace cypher::storage

#endif  // CYPHER_STORAGE_SNAPSHOT_H_
