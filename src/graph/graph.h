#ifndef CYPHER_GRAPH_GRAPH_H_
#define CYPHER_GRAPH_GRAPH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/interner.h"
#include "common/read_pin.h"
#include "common/result.h"
#include "common/slot_vector.h"
#include "graph/mvcc.h"
#include "graph/property_map.h"

namespace cypher {

/// A node or relationship reference, for APIs that apply to both (SET,
/// REMOVE, DELETE operate on either kind).
struct EntityRef {
  enum class Kind { kNode, kRel };
  Kind kind;
  uint32_t id;

  static EntityRef Node(NodeId n) { return {Kind::kNode, n.value}; }
  static EntityRef Rel(RelId r) { return {Kind::kRel, r.value}; }

  NodeId AsNode() const { return NodeId(id); }
  RelId AsRel() const { return RelId(id); }

  friend bool operator==(const EntityRef& a, const EntityRef& b) {
    return a.kind == b.kind && a.id == b.id;
  }
  friend bool operator<(const EntityRef& a, const EntityRef& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.id < b.id;
  }
};

/// Stored node record. `alive` is false for deleted nodes; slots are
/// tombstoned, never reused, so dangling references in driving tables remain
/// detectable. In legacy mode (paper §4.2) a deleted node's labels and
/// properties are cleared, which is how "RETURN user" after "DELETE user"
/// yields an empty node.
struct NodeData {
  bool alive = true;
  std::vector<Symbol> labels;  // sorted, deduplicated
  PropertyMap props;
  std::vector<RelId> out_rels;  // sorted ascending by rel id
  std::vector<RelId> in_rels;   // sorted ascending by rel id
};

/// Stored relationship record. Always has exactly one source, target and
/// type (the property graph model, Section 2). In legacy mode a relationship
/// can temporarily dangle (endpoint deleted); ValidateNoDangling detects
/// this at end-of-statement, mirroring Neo4j's commit-time check.
struct RelData {
  bool alive = true;
  Symbol type = kNoSymbol;
  NodeId src;
  NodeId tgt;
  PropertyMap props;
};

/// The property graph G = <N, R, src, tgt, ι, λ, τ> of the paper, plus the
/// operational machinery an engine needs:
///
///  * interned labels / relationship types / property keys;
///  * adjacency lists for pattern matching;
///  * a label index for MATCH scans;
///  * an undo journal so a failed statement leaves the graph untouched
///    (the paper's output(Q, G) commits only on success);
///  * tombstoned deletes, including "force" deletes that model the legacy
///    Cypher 9 anomalies of Section 4.2;
///  * an opt-in epoch-based MVCC layer (EnableMvcc) so read-only snapshot
///    sessions execute lock-free against a pinned committed epoch while the
///    one writer keeps committing (DESIGN.md §4g).
///
/// Threading model: one writer at a time, always (statement-level isolation
/// is the concern of the paper; multi-writer concurrency control is not).
/// Two read-sharing regimes layer on top:
///
///  * The writer's own morsel-parallel executor shares the const read
///    surface *between* write clauses; it opens a ParallelReadScope for the
///    duration of each read region, and every mutating method asserts that
///    no such scope is live.
///  * With MVCC enabled, any number of reader threads holding an active
///    ReadPin (thread-local, see common/read_pin.h) read a pinned epoch
///    *concurrently with* the writer mutating: mutators install fresh
///    version records instead of touching published state in place, commit
///    publishes them as one new epoch (PublishEpoch), and superseded
///    versions retire until no pin can reach them. Readers never block the
///    writer and the writer never waits on readers.
class PropertyGraph {
 public:
  PropertyGraph() = default;

  /// Copies materialize the source's latest state (benches snapshot graphs
  /// to replay workloads); the copy starts in non-MVCC mode with no version
  /// chains. Copying and moving require quiescence on both sides.
  PropertyGraph(const PropertyGraph& other);
  PropertyGraph& operator=(const PropertyGraph& other);
  PropertyGraph(PropertyGraph&& other) noexcept;
  PropertyGraph& operator=(PropertyGraph&& other) noexcept;
  ~PropertyGraph();

  // ---- Vocabulary ---------------------------------------------------------

  Symbol InternLabel(std::string_view name) {
    Symbol s = labels_.Intern(name);
    EnsureLabelSlots(s);
    return s;
  }
  Symbol InternType(std::string_view name) { return types_.Intern(name); }
  Symbol InternKey(std::string_view name) { return keys_.Intern(name); }

  /// Lookup without interning; kNoSymbol if unknown (a MATCH against a label
  /// that was never created simply finds nothing).
  Symbol FindLabel(std::string_view name) const { return labels_.Find(name); }
  Symbol FindType(std::string_view name) const { return types_.Find(name); }
  Symbol FindKey(std::string_view name) const { return keys_.Find(name); }

  const std::string& LabelName(Symbol s) const { return labels_.Name(s); }
  const std::string& TypeName(Symbol s) const { return types_.Name(s); }
  const std::string& KeyName(Symbol s) const { return keys_.Name(s); }

  /// Interned-vocabulary sizes. Interners only grow within one graph's
  /// lifetime, so an unchanged size means an unchanged symbol table — the
  /// plan cache stamps compiled match plans with these to detect staleness.
  size_t num_label_symbols() const { return labels_.size(); }
  size_t num_type_symbols() const { return types_.size(); }
  size_t num_key_symbols() const { return keys_.size(); }

  // ---- Creation -----------------------------------------------------------

  /// Creates a node with the given (unsorted, possibly duplicated) labels.
  NodeId CreateNode(std::vector<Symbol> labels, PropertyMap props);

  /// Creates a relationship; fails if either endpoint is dead or invalid.
  Result<RelId> CreateRel(NodeId src, NodeId tgt, Symbol type,
                          PropertyMap props);

  // ---- Access -------------------------------------------------------------
  //
  // Every accessor is snapshot-aware: when the calling thread carries an
  // active ReadPin for this graph (installed by a read session or
  // propagated into pool workers), records resolve against the pinned
  // epoch's version; otherwise they read the latest state. Without MVCC
  // enabled the original direct-slot path runs unchanged.

  bool IsValidNode(NodeId id) const {
    if (const ReadPin* pin = ActivePin()) return id.value < pin->node_slots;
    return id.value < nodes_.size();
  }
  bool IsValidRel(RelId id) const {
    if (const ReadPin* pin = ActivePin()) return id.value < pin->rel_slots;
    return id.value < rels_.size();
  }
  bool IsNodeAlive(NodeId id) const {
    return AliveNodeAt(id, ActivePin()) != nullptr;
  }
  bool IsRelAlive(RelId id) const {
    return AliveRelAt(id, ActivePin()) != nullptr;
  }

  const NodeData& node(NodeId id) const { return NodeAt(id, ActivePin()); }
  const RelData& rel(RelId id) const {
    const ReadPin* pin = ActivePin();
    return pin != nullptr ? ResolveRel(id.value, pin->epoch)
                          : RelLatest(id.value);
  }

  bool NodeHasLabel(NodeId id, Symbol label) const;

  // ---- Single-resolution access -------------------------------------------
  //
  // The accessors above look up the thread's pin and walk the version chain
  // on every call. Hot loops (the matcher) read the pin once with
  // ActivePin() and resolve each entity once through these instead.

  /// The calling thread's pin when it targets this graph, else nullptr
  /// (also without MVCC).
  const ReadPin* ActivePin() const {
    if (!mvcc_on_) return nullptr;
    const ReadPin& pin = CurrentThreadReadPin();
    return (pin.active && pin.owner == this) ? &pin : nullptr;
  }

  /// The record of `id` as `pin` (from ActivePin(); null = latest state)
  /// sees it. `id` must be valid in that state (an endpoint of a
  /// relationship visible there always is).
  const NodeData& NodeAt(NodeId id, const ReadPin* pin) const {
    return pin != nullptr ? ResolveNode(id.value, pin->epoch)
                          : NodeLatest(id.value);
  }

  /// The record of `id` as `pin` sees it, or nullptr when the slot lies
  /// outside that state or the entity is dead.
  const NodeData* AliveNodeAt(NodeId id, const ReadPin* pin) const {
    const NodeData* data;
    if (pin != nullptr) {
      if (id.value >= pin->node_slots) return nullptr;
      data = &ResolveNode(id.value, pin->epoch);
    } else {
      if (id.value >= nodes_.size()) return nullptr;
      data = &NodeLatest(id.value);
    }
    return data->alive ? data : nullptr;
  }
  const RelData* AliveRelAt(RelId id, const ReadPin* pin) const {
    const RelData* data;
    if (pin != nullptr) {
      if (id.value >= pin->rel_slots) return nullptr;
      data = &ResolveRel(id.value, pin->epoch);
    } else {
      if (id.value >= rels_.size()) return nullptr;
      data = &RelLatest(id.value);
    }
    return data->alive ? data : nullptr;
  }

  /// Alive node count / alive relationship count (latest state; planner
  /// hints, not snapshot-resolved).
  size_t num_nodes() const {
    return alive_nodes_.load(std::memory_order_relaxed);
  }
  size_t num_rels() const {
    return alive_rels_.load(std::memory_order_relaxed);
  }

  /// Total slots ever allocated (alive + tombstoned). Pin-aware: a pinned
  /// thread sees the slot watermark of its epoch.
  size_t node_capacity() const {
    if (const ReadPin* pin = ActivePin()) return pin->node_slots;
    return nodes_.size();
  }
  size_t rel_capacity() const {
    if (const ReadPin* pin = ActivePin()) return pin->rel_slots;
    return rels_.size();
  }

  /// All alive node ids in ascending order.
  std::vector<NodeId> AllNodes() const;
  /// All alive relationship ids in ascending order.
  std::vector<RelId> AllRels() const;

  /// Alive nodes carrying `label`, ascending. Uses the label index.
  std::vector<NodeId> NodesByLabel(Symbol label) const;

  /// Alive incident relationships (out / in / both), ascending.
  std::vector<RelId> OutRels(NodeId id) const;
  std::vector<RelId> InRels(NodeId id) const;

  /// Count of alive incident relationships. Does not allocate.
  size_t Degree(NodeId id) const;

  /// Cached count of alive nodes carrying `label`. O(1); maintained across
  /// creation, deletion, label mutation and rollback. The match planner uses
  /// this as the label-scan cardinality estimate (latest state — a pinned
  /// reader's plan costs are approximate, its results are not).
  size_t LabelCount(Symbol label) const {
    if (label == kNoSymbol || label >= label_counts_.size()) return 0;
    int64_t n = label_counts_[label].load(std::memory_order_relaxed);
    return n > 0 ? static_cast<size_t>(n) : 0;
  }

  // ---- Zero-copy iteration ------------------------------------------------
  //
  // Callback-style scans that allocate nothing. The callback takes the id
  // and returns true to continue, false to stop early. Iteration is in
  // ascending id order — the matcher's determinism contract — and must not
  // mutate the graph. The vector-returning APIs above remain for callers
  // that need materialized lists (or that mutate while iterating).

  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    ForEachNodeInSlotRange(0, node_capacity(), std::forward<Fn>(fn));
  }

  /// Visits alive nodes carrying `label`, ascending. The label-index bucket
  /// is sorted and deduplicated but may hold tombstoned or relabeled ids;
  /// those are skipped here, exactly as in NodesByLabel.
  template <typename Fn>
  void ForEachNodeWithLabel(Symbol label, Fn&& fn) const {
    ForEachNodeWithLabelInRange(label, 0, ~size_t{0}, std::forward<Fn>(fn));
  }

  // ---- Morsel-range scans ---------------------------------------------------
  //
  // Range-restricted variants of the scans above, for the parallel executor:
  // the scan *domain* (node slots, or label-bucket positions — both include
  // tombstoned/stale entries, which the walk skips exactly like the full
  // scans) is split into fixed-size morsels, and concatenating the morsels
  // in range order reproduces the full scan's emission order verbatim.

  /// Entries in the label-index bucket for `label`, including stale ids:
  /// the partitionable domain of a label scan. 0 when the label has no
  /// bucket. Pairs with ForEachNodeWithLabelInRange. Pin-aware: a pinned
  /// thread sees its epoch's bucket, so domain and walk agree.
  size_t LabelBucketSize(Symbol label) const {
    const NodeBucket* bucket = BucketFor(label);
    return bucket == nullptr ? 0 : bucket->ids.size();
  }

  /// Visits the alive nodes carrying `label` whose bucket position lies in
  /// [begin, end) — the morsel restriction of ForEachNodeWithLabel.
  template <typename Fn>
  void ForEachNodeWithLabelInRange(Symbol label, size_t begin, size_t end,
                                   Fn&& fn) const {
    const ReadPin* pin = ActivePin();
    const NodeBucket* bucket =
        pin != nullptr ? ResolveBucket(label, pin->epoch) : BucketFor(label);
    if (bucket == nullptr) return;
    const std::vector<NodeId>& ids = bucket->ids;
    end = std::min(end, ids.size());
    for (size_t i = begin; i < end; ++i) {
      NodeId id = ids[i];
      const NodeData* data = AliveNodeAt(id, pin);
      if (data == nullptr) continue;
      if (!std::binary_search(data->labels.begin(), data->labels.end(),
                              label)) {
        continue;
      }
      if (!fn(id)) return;
    }
  }

  /// Visits the alive nodes whose slot lies in [begin, end) — the morsel
  /// restriction of ForEachNode (domain: node_capacity()).
  template <typename Fn>
  void ForEachNodeInSlotRange(size_t begin, size_t end, Fn&& fn) const {
    if (const ReadPin* pin = ActivePin()) {
      end = std::min(end, static_cast<size_t>(pin->node_slots));
      for (size_t i = begin; i < end; ++i) {
        if (ResolveNode(i, pin->epoch).alive &&
            !fn(NodeId(static_cast<uint32_t>(i)))) {
          return;
        }
      }
      return;
    }
    end = std::min(end, nodes_.size());
    if (!mvcc_on_) {
      for (size_t i = begin; i < end; ++i) {
        if (nodes_[i].alive && !fn(NodeId(static_cast<uint32_t>(i)))) return;
      }
      return;
    }
    for (size_t i = begin; i < end; ++i) {
      if (NodeLatest(i).alive && !fn(NodeId(static_cast<uint32_t>(i)))) {
        return;
      }
    }
  }

  template <typename Fn>
  void ForEachOutRel(NodeId id, Fn&& fn) const {
    for (RelId r : node(id).out_rels) {
      if (rel(r).alive && !fn(r)) return;
    }
  }

  template <typename Fn>
  void ForEachInRel(NodeId id, Fn&& fn) const {
    for (RelId r : node(id).in_rels) {
      if (rel(r).alive && !fn(r)) return;
    }
  }

  // ---- Mutation -----------------------------------------------------------

  /// Adds a label; returns true if the node changed.
  bool AddLabel(NodeId id, Symbol label);
  /// Removes a label; returns true if the node changed.
  bool RemoveLabel(NodeId id, Symbol label);

  /// Sets one property (null value removes); returns true if changed.
  bool SetProperty(EntityRef entity, Symbol key, Value value);

  /// Replaces the whole property map (SET n = {...}).
  void ReplaceProperties(EntityRef entity, PropertyMap props);

  const PropertyMap& Properties(EntityRef entity) const;

  /// Deletes a relationship (idempotent on dead rels).
  void DeleteRel(RelId id);

  /// Deletes a node that has no alive incident relationships. It is an
  /// internal error to call this with incident relationships; executors
  /// check first (revised DELETE returns an ExecutionError instead).
  void DeleteNode(NodeId id);

  /// Legacy-mode delete (§4.2): marks the node dead and clears labels and
  /// properties but leaves incident relationships alive and dangling.
  void DeleteNodeForce(NodeId id);

  /// True if some alive relationship has a dead endpoint. Legacy mode runs
  /// this at end of statement (Neo4j's commit-time validation).
  bool HasDanglingRels() const;

  // ---- Property indexes -----------------------------------------------------
  //
  // An index maps value hashes to posting lists of node ids. Postings are
  // versioned like label buckets, and the index list and each hash table
  // are replaced wholesale (and the old copy retired) when they change
  // shape, so pinned readers seek them lock-free while the writer inserts.

  /// Creates (or re-creates, idempotently) a hash index over
  /// (label, property key). Existing nodes are indexed immediately; later
  /// mutations maintain the index. Lookups validate entries against the
  /// graph, so rolled-back states can never serve stale matches.
  void CreateIndex(Symbol label, Symbol key);

  bool HasIndex(Symbol label, Symbol key) const;

  /// Drops the index if present (idempotent).
  void DropIndex(Symbol label, Symbol key);

  /// All (label, key) pairs with an index, in creation order.
  std::vector<std::pair<Symbol, Symbol>> Indexes() const;

  /// Monotonic counter bumped whenever an index is created or dropped.
  /// Cached match plans bake access-path choices that depend on index
  /// presence; comparing epochs detects when those choices went stale.
  uint64_t index_epoch() const {
    return index_epoch_.load(std::memory_order_relaxed);
  }

  // ---- Uniqueness constraints -----------------------------------------------

  /// Declares that alive `label` nodes have pairwise distinct non-null
  /// values for `key`. Fails (without registering) if existing data
  /// already violates it. Idempotent.
  Status AddUniqueConstraint(Symbol label, Symbol key);

  /// Drops the constraint if present (idempotent).
  void DropUniqueConstraint(Symbol label, Symbol key);

  bool HasUniqueConstraint(Symbol label, Symbol key) const;

  /// All registered constraints, in creation order.
  std::vector<std::pair<Symbol, Symbol>> UniqueConstraints() const;

  /// Checks every registered constraint against the live graph; returns
  /// ExecutionError naming the first violation. The interpreter runs this
  /// before committing each statement.
  Status ValidateUniqueConstraints() const;

  /// Alive nodes with `label` whose `key` property is group-equal to
  /// `value`, ascending, in the calling thread's snapshot (latest state
  /// when unpinned). Served by IndexPostings, or by a label scan when the
  /// index cannot serve the snapshot.
  std::vector<NodeId> IndexLookup(Symbol label, Symbol key,
                                  const Value& value) const;

  /// The (label, key) index's posting for `value` as `pin` (from
  /// ActivePin(); null = latest state) sees it: ascending unique ids, a
  /// superset of the alive `label` nodes whose `key` equals `value` then.
  /// Entries of dead, relabeled or re-valued nodes and hash collisions stay
  /// until compaction, so callers re-check each id. `*ids` is null when
  /// nothing is filed under the value. Returns false when the index cannot
  /// serve the snapshot — it does not exist (any more), or it was created
  /// after the pin's epoch — and the caller must scan the label instead.
  bool IndexPostings(Symbol label, Symbol key, const Value& value,
                     const ReadPin* pin,
                     const std::vector<NodeId>** ids) const;

  /// Total entries stored for the (label, key) index, including stale ones
  /// awaiting compaction; 0 when no such index exists. Observability hook
  /// for the compaction policy (tests, monitoring). Writer-only.
  size_t IndexEntryCount(Symbol label, Symbol key) const;

  // ---- Single-writer epoch --------------------------------------------------

  /// RAII guard marking a parallel read region: while any scope is live,
  /// every mutating method CYPHER_CHECK-fails. The parallel executor opens
  /// one around each fanned-out read clause; writes only ever run between
  /// regions (the paper's semantics applies updates sequentially over the
  /// driving table the read side produced), so a trip of this assertion is
  /// always a bug, not a scheduling artifact.
  ///
  /// A thread running under a snapshot pin does NOT register: its reads
  /// resolve against an immutable epoch, so the concurrent writer is free
  /// to keep mutating — that is the entire point of the MVCC layer.
  class ParallelReadScope {
   public:
    explicit ParallelReadScope(const PropertyGraph& graph) : graph_(graph) {
      const ReadPin& pin = CurrentThreadReadPin();
      pinned_ = pin.active && pin.owner == &graph;
      if (!pinned_) {
        graph_.epoch_.readers.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ~ParallelReadScope() {
      if (!pinned_) {
        graph_.epoch_.readers.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    ParallelReadScope(const ParallelReadScope&) = delete;
    ParallelReadScope& operator=(const ParallelReadScope&) = delete;

   private:
    const PropertyGraph& graph_;
    bool pinned_ = false;
  };

  /// True while some ParallelReadScope is live (mutations are forbidden).
  bool InParallelReadRegion() const {
    return epoch_.readers.load(std::memory_order_relaxed) != 0;
  }

  // ---- MVCC lifecycle -------------------------------------------------------
  //
  // See DESIGN.md §4g. The statement is the visibility unit: the epoch
  // counts successfully committed writer statements. EnableMvcc freezes the
  // base slots (mutators copy-on-first-touch per epoch from then on),
  // publishes epoch 0, and allocates the pin registry. The database layer
  // calls PublishEpoch after each committed statement; readers pin with
  // AcquireReadPin and install the pin thread-locally (ScopedReadPin) while
  // they execute.

  /// Switches the graph into MVCC mode. Requires quiescence (no concurrent
  /// readers yet, no open journal); idempotent.
  void EnableMvcc();

  bool mvcc_enabled() const { return mvcc_on_; }

  /// Publishes everything mutated since the last publish as one new
  /// committed epoch and reclaims versions no active pin can reach.
  /// Writer-only; a no-op without MVCC.
  void PublishEpoch();

  /// The newest committed epoch a new pin would observe (0 = initial state).
  uint64_t published_epoch() const {
    const EpochState* st = published_.load(std::memory_order_acquire);
    return st == nullptr ? 0 : st->epoch;
  }

  /// Registers a pin on the newest committed epoch. The caller installs it
  /// with ScopedReadPin around reads and must ReleaseReadPin exactly once.
  ReadPin AcquireReadPin() const;

  /// Moves an acquired pin forward to the newest committed epoch.
  void RefreshReadPin(ReadPin* pin) const;

  void ReleaseReadPin(const ReadPin& pin) const;

  /// Superseded versions awaiting reclamation (observability for tests).
  size_t RetiredPending() const { return retired_.pending(); }

  // ---- Undo journal -------------------------------------------------------

  /// A position in the journal; RollbackTo(mark) undoes everything after.
  using JournalMark = size_t;

  /// Starts (or continues) journaling and returns the current mark.
  JournalMark BeginJournal();

  /// Undoes all journaled mutations after `mark`, most recent first.
  void RollbackTo(JournalMark mark);

  /// Forgets journal entries after `mark` (commit) and stops journaling if
  /// the journal becomes empty.
  void CommitTo(JournalMark mark);

  // ---- Statement images (write-ahead logging) ----------------------------
  //
  // The WAL logs a committed statement as the after-image of every slot it
  // touched (storage/snapshot.h). The undo journal already names those
  // slots, so data mutators format nothing. DDL (index / constraint
  // create+drop) is not journaled: while DDL capture is on, it appends its
  // own image line (`index+ :Label key`, ...) to a buffer the database layer
  // adds to the statement's record.

  /// Slots touched by the journal entries after `mark`, ascending and
  /// unique. A slot at or past `node_base` / `rel_base` was created by those
  /// entries (the bases equal the capacities when none was).
  struct TouchedSlots {
    std::vector<NodeId> nodes;
    std::vector<RelId> rels;
    uint32_t node_base = 0;
    uint32_t rel_base = 0;
  };
  TouchedSlots TouchedSince(JournalMark mark) const;

  /// Starts capturing DDL lines into an empty buffer.
  void BeginDdlCapture() {
    ddl_capture_ = true;
    ddl_log_.clear();
  }

  /// Stops capture and returns the captured DDL lines.
  std::string TakeDdlLog() {
    ddl_capture_ = false;
    std::string out;
    out.swap(ddl_log_);
    return out;
  }

  /// Stops capture and discards the buffer (statement failed, rolled back).
  void AbortDdlCapture() {
    ddl_capture_ = false;
    ddl_log_.clear();
  }

  // ---- Exact-slot restore hooks (crash recovery) --------------------------
  //
  // WAL records reference original slot ids, so a graph rebuilt from a
  // snapshot must keep the exact slot numbering of the source — including
  // tombstones. Image replay appends dead placeholder slots for the gaps;
  // these are not journaled.

  /// Appends a dead node slot and returns its id.
  NodeId AppendTombstoneNode();
  /// Appends a dead relationship slot and returns its id.
  RelId AppendTombstoneRel();

 private:
  enum class OpKind {
    kCreateNode,
    kCreateRel,
    kDeleteRel,
    kDeleteNode,
    kForceDeleteNode,
    kAddLabel,
    kRemoveLabel,
    kSetProp,
    kReplaceProps,
  };

  struct JournalOp {
    OpKind kind;
    EntityRef entity;
    Symbol symbol = kNoSymbol;  // label or key
    Value old_value;            // kSetProp
    PropertyMap old_props;      // kReplaceProps / kForceDeleteNode
    std::vector<Symbol> old_labels;  // kForceDeleteNode
    RelData old_rel;                 // kDeleteRel
  };

  void Record(JournalOp op) {
    if (journaling_) journal_.push_back(std::move(op));
  }

  /// One version chain head. Value-initialized to null by SlotVector.
  template <typename T>
  struct Chain {
    std::atomic<VersionRec<T>*> head{nullptr};
  };

  /// One version of a node-id bucket — a label-index bucket or a
  /// property-index posting: sorted, deduplicated, may hold stale ids (dead,
  /// relabeled or re-valued nodes — readers validate). `since`/`prev` are
  /// immutable after publication; `ids` is mutable only while `since` is
  /// the unpublished write epoch (and, without MVCC, always: the single
  /// base version is edited in place).
  struct NodeBucket {
    uint64_t since = 0;
    NodeBucket* prev = nullptr;
    std::vector<NodeId> ids;
  };
  struct BucketHead {
    std::atomic<NodeBucket*> head{nullptr};
  };

  /// The open-addressing table of one property index: value hash -> the
  /// head of that value's posting chain. Readers probe it lock-free while
  /// the writer inserts: the writer claims an empty slot by writing `hash`
  /// and then release-storing the first posting into `head`; a reader
  /// stops at the first slot whose head it loads as null and reads `hash`
  /// only after loading a non-null head. Slots are never cleared; the table
  /// is replaced wholesale when it fills (see RebuildPostings) and the old
  /// one retired. Freeing a table frees its slot array, not the postings.
  struct PostingTable {
    struct Slot {
      uint64_t hash = 0;
      BucketHead head;
    };
    explicit PostingTable(size_t capacity)
        : mask(capacity - 1), slots(new Slot[capacity]) {}
    size_t capacity() const { return mask + 1; }
    /// First slot of `hash`'s probe sequence (Fibonacci hashing).
    size_t Home(uint64_t hash) const {
      return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    }
    /// The chain head filed under `hash`, or nullptr (any thread).
    const BucketHead* Find(uint64_t hash) const {
      for (size_t i = Home(hash);; i = (i + 1) & mask) {
        if (slots[i].head.head.load(std::memory_order_acquire) == nullptr) {
          return nullptr;
        }
        if (slots[i].hash == hash) return &slots[i].head;
      }
    }

    size_t mask;
    size_t used = 0;  // claimed slots (writer-only)
    std::unique_ptr<Slot[]> slots;
  };

  /// One property index. `label`, `key` and `since` are immutable once the
  /// index is published; `table` is replaced with release stores;
  /// `entries` and `stale_hint` are writer-only.
  struct PropertyIndex {
    Symbol label = kNoSymbol;
    Symbol key = kNoSymbol;
    /// The write epoch that created the index: older pins cannot use it.
    uint64_t since = 0;
    std::atomic<PostingTable*> table{nullptr};
    size_t entries = 0;     // total ids across postings
    size_t stale_hint = 0;  // upper bound on entries gone stale since sweep
  };
  /// The published index list, in creation order; replaced wholesale.
  using IndexList = std::vector<PropertyIndex*>;

  // ---- Snapshot resolution (lock-free read hot path) ----------------------

  /// The newest version of slot `i` visible at `epoch`: walk the chain
  /// (newest first) past versions installed later, fall back to the frozen
  /// base slot. Chain fields are safe to read un-locked: heads publish with
  /// release stores and `since`/`prev` never change after publication.
  const NodeData& ResolveNode(uint32_t slot, uint64_t epoch) const {
    const VersionRec<NodeData>* rec =
        node_chains_[slot].head.load(std::memory_order_acquire);
    while (rec != nullptr && rec->since > epoch) rec = rec->prev;
    return rec != nullptr ? rec->data : nodes_[slot];
  }
  const RelData& ResolveRel(uint32_t slot, uint64_t epoch) const {
    const VersionRec<RelData>* rec =
        rel_chains_[slot].head.load(std::memory_order_acquire);
    while (rec != nullptr && rec->since > epoch) rec = rec->prev;
    return rec != nullptr ? rec->data : rels_[slot];
  }
  static const NodeBucket* ResolveVersion(const BucketHead& slot,
                                          uint64_t epoch) {
    const NodeBucket* b = slot.head.load(std::memory_order_acquire);
    while (b != nullptr && b->since > epoch) b = b->prev;
    return b;
  }
  const NodeBucket* ResolveBucket(Symbol label, uint64_t epoch) const {
    if (label == kNoSymbol || label >= label_buckets_.size()) return nullptr;
    return ResolveVersion(label_buckets_[label], epoch);
  }

  /// Latest (writer-visible) version of a slot, chains included.
  const NodeData& NodeLatest(uint32_t slot) const {
    if (!mvcc_on_) return nodes_[slot];
    const VersionRec<NodeData>* rec =
        node_chains_[slot].head.load(std::memory_order_acquire);
    return rec != nullptr ? rec->data : nodes_[slot];
  }
  const RelData& RelLatest(uint32_t slot) const {
    if (!mvcc_on_) return rels_[slot];
    const VersionRec<RelData>* rec =
        rel_chains_[slot].head.load(std::memory_order_acquire);
    return rec != nullptr ? rec->data : rels_[slot];
  }

  /// Pin-aware bucket dispatch (latest when unpinned).
  const NodeBucket* BucketFor(Symbol label) const {
    if (const ReadPin* pin = ActivePin()) {
      return ResolveBucket(label, pin->epoch);
    }
    if (label == kNoSymbol || label >= label_buckets_.size()) return nullptr;
    return label_buckets_[label].head.load(std::memory_order_acquire);
  }

  // ---- Writer-side copy-on-first-touch ------------------------------------

  /// Mutable access to a slot's current-statement version: without MVCC (or
  /// for a slot no published epoch covers yet) the base slot in place;
  /// otherwise the version record of the current write epoch, installing a
  /// fresh copy of the newest published version on first touch and retiring
  /// the superseded record.
  NodeData& MutableNode(NodeId id);
  RelData& MutableRel(RelId id);
  /// The current-statement version of a bucket chain (label bucket or
  /// posting), installing the first version or a copy of the newest
  /// published one on first touch, like MutableNode.
  NodeBucket& MutableBucket(BucketHead& slot);
  PropertyMap& MutableProps(EntityRef entity);

  /// Frees `ptr` once no pin can reach it: through the retire list with
  /// MVCC, at once without (no reader runs beside a mutation then).
  template <typename T>
  void Retire(T* ptr);

  /// Grows the dense per-label bucket/count tables to cover `label`.
  void EnsureLabelSlots(Symbol label);

  void ReclaimRetired();
  void DestroyVersions();
  void StealFrom(PropertyGraph* other) noexcept;

  void UnlinkRel(RelId id);
  void RelinkRel(RelId id);
  void AddToLabelIndex(NodeId id, Symbol label);

  // Property-index maintenance. Postings are filed blindly on every write
  // that gives a node a (label, value) pair and are validated on read: a
  // rollback resurrects nodes and values without touching the index, so
  // their stale entries simply become valid again. Compaction therefore
  // only runs from CommitTo once the journal is empty — past that point no
  // rollback can resurrect a pruned entry — and, with MVCC, installs new
  // posting versions so older pins keep the entries they still need.

  /// Compacts postings whose stale ratio exceeds 50% (dead / relabeled /
  /// value-changed entries), in indexes at least half stale. Only safe
  /// when the journal is empty.
  void CompactIndexes();

  /// The published index list (empty when none was ever created).
  const IndexList& index_list() const {
    static const IndexList kEmpty;
    const IndexList* list = indexes_.load(std::memory_order_acquire);
    return list == nullptr ? kEmpty : *list;
  }
  /// Publishes `list` as the index list and retires the previous one.
  void PublishIndexList(IndexList list);

  const PropertyIndex* FindPropertyIndex(Symbol label, Symbol key) const;

  /// Files `id` under `value` in `index` (writer-only).
  void AddPosting(PropertyIndex* index, const Value& value, NodeId id);
  /// The chain head of `hash` in `index`, claiming a slot when absent.
  BucketHead& PostingHead(PropertyIndex* index, uint64_t hash);
  /// Replaces `index`'s table by one sized for its live keys plus `extra`
  /// slots, dropping keys whose postings are droppable: empty since an
  /// epoch at or below PostingHorizon().
  void RebuildPostings(PropertyIndex* index, size_t extra);
  /// An empty posting whose `since` is at or below this epoch is what every
  /// present and future pin sees of its value: it can be dropped.
  uint64_t PostingHorizon() const;
  /// Frees an index with its table and posting heads (older posting
  /// versions sit in the retire list).
  static void FreeIndex(void* index);

  /// Inserts `id` into every index it currently satisfies (used on node
  /// creation and label addition).
  void IndexNode(NodeId id);
  /// Inserts `id` into indexes on `key` whose label the node carries (used
  /// on property writes).
  void IndexNodeKey(NodeId id, Symbol key);

  /// Copy-safe wrapper for the parallel-read counter: copying or assigning
  /// a graph copies its data, not its (momentary) reader registration.
  struct ReadEpoch {
    std::atomic<int> readers{0};
    ReadEpoch() = default;
    ReadEpoch(const ReadEpoch&) noexcept {}
    ReadEpoch& operator=(const ReadEpoch&) noexcept { return *this; }
  };

  /// Aborts when called inside a parallel read region (see
  /// ParallelReadScope); every mutating method calls this first.
  void AssertMutable() const;

  mutable ReadEpoch epoch_;
  Interner labels_;
  Interner types_;
  Interner keys_;
  SlotVector<NodeData> nodes_;
  SlotVector<RelData> rels_;
  SlotVector<Chain<NodeData>> node_chains_;
  SlotVector<Chain<RelData>> rel_chains_;

  void IncLabelCount(Symbol label) {
    label_counts_[label].fetch_add(1, std::memory_order_relaxed);
  }
  void DecLabelCount(Symbol label);

  /// Dense per-label tables, indexed by label Symbol (grown at InternLabel
  /// so any findable symbol has a slot): bucket version-chain heads and the
  /// cached alive-node-per-label counts.
  SlotVector<BucketHead> label_buckets_;
  SlotVector<std::atomic<int64_t>> label_counts_;

  /// The index list (shared with readers; null = none ever created).
  std::atomic<const IndexList*> indexes_{nullptr};
  std::vector<std::pair<Symbol, Symbol>> unique_constraints_;
  std::atomic<uint64_t> index_epoch_{0};
  std::atomic<size_t> alive_nodes_{0};
  std::atomic<size_t> alive_rels_{0};
  std::vector<JournalOp> journal_;
  bool journaling_ = false;

  // ---- MVCC state (writer-owned except where noted) ------------------------

  bool mvcc_on_ = false;
  /// The epoch in-flight mutations belong to; published - not yet - as
  /// `published_epoch() + 1` on the next successful commit.
  uint64_t write_epoch_ = 1;
  /// Slot watermarks covered by some published epoch: slots at or above
  /// these were created by the current (unpublished) statement, are
  /// invisible to every pin, and are therefore mutated in place chain-free.
  uint64_t published_node_count_ = 0;
  uint64_t published_rel_count_ = 0;
  /// The committed snapshot descriptor readers pin (shared with readers).
  std::atomic<const EpochState*> published_{nullptr};
  /// Active reader pins (shared with readers).
  mutable std::unique_ptr<PinRegistry> registry_;
  RetireList retired_;

  /// Appends `<verb> :Label key` to the DDL buffer when capturing.
  void CaptureDdl(const char* verb, Symbol label, Symbol key);

  std::string ddl_log_;
  bool ddl_capture_ = false;
};

/// Renders a node in Cypher-ish form, e.g. `(:User {id: 89, name: 'Bob'})`.
std::string DescribeNode(const PropertyGraph& graph, NodeId id);

/// Renders a relationship, e.g. `(0)-[:ORDERED {}]->(2)`.
std::string DescribeRel(const PropertyGraph& graph, RelId id);

/// Renders `{k: v, ...}` for a property map of `graph`.
std::string DescribeProps(const PropertyGraph& graph, const PropertyMap& map);

}  // namespace cypher

#endif  // CYPHER_GRAPH_GRAPH_H_
