#include "graph/graph.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "value/compare.h"

namespace cypher {

namespace {

template <typename T>
void SortUnique(std::vector<T>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

// Adjacency lists stay sorted by rel id, so link/unlink are binary searches
// and the matcher can merge-walk out/in lists without materializing.

void SortedInsert(std::vector<RelId>* rels, RelId id) {
  if (rels->empty() || rels->back() < id) {  // common case: fresh rel id
    rels->push_back(id);
    return;
  }
  auto it = std::lower_bound(rels->begin(), rels->end(), id);
  if (it == rels->end() || *it != id) rels->insert(it, id);
}

void SortedErase(std::vector<RelId>* rels, RelId id) {
  auto it = std::lower_bound(rels->begin(), rels->end(), id);
  if (it != rels->end() && *it == id) rels->erase(it);
}

template <typename T>
void DeleteAs(void* p) {
  delete static_cast<T*>(p);
}

/// Inserts `id` into the sorted, deduplicated `ids`; false when present.
bool SortedInsertUnique(std::vector<NodeId>* ids, NodeId id) {
  if (ids->empty() || ids->back() < id) {  // common case: fresh node id
    ids->push_back(id);
    return true;
  }
  auto it = std::lower_bound(ids->begin(), ids->end(), id);
  if (it != ids->end() && *it == id) return false;
  ids->insert(it, id);
  return true;
}

/// True when a slot's base record is what the shared dead chunk holds. A
/// dead relationship's type and endpoints are not compared: only the
/// statement that deleted it reads them (to render it), and reclamation
/// waits for that statement to end.
bool IsDeadRecord(const NodeData& data) {
  return !data.alive && data.labels.empty() && data.props.empty() &&
         data.out_rels.empty() && data.in_rels.empty();
}
bool IsDeadRecord(const RelData& data) {
  return !data.alive && data.props.empty();
}

/// The read-only chunk that every released chunk of a SlotVector<T> points
/// at: dead records for node and relationship slots, null heads for version
/// chains. Shared by every graph and never freed.
template <typename T>
T* SharedDeadChunk() {
  static T* const chunk = [] {
    T* records = new T[SlotVector<T>::kChunkSize]();
    if constexpr (requires { records->alive; }) {
      for (size_t i = 0; i < SlotVector<T>::kChunkSize; ++i) {
        records[i].alive = false;
      }
    }
    return records;
  }();
  return chunk;
}

/// Smallest power of two >= max(n, 16).
size_t TableCapacity(size_t n) {
  size_t cap = 16;
  while (cap < n) cap *= 2;
  return cap;
}

}  // namespace

// ---- Lifecycle ------------------------------------------------------------

PropertyGraph::PropertyGraph(const PropertyGraph& other)
    : labels_(other.labels_), types_(other.types_), keys_(other.keys_) {
  // Materialize the source's latest state (version chains flattened); the
  // copy starts in non-MVCC mode with empty chains.
  size_t num_node_slots = other.nodes_.size();
  for (size_t i = 0; i < num_node_slots; ++i) {
    nodes_.Append(other.NodeLatest(static_cast<uint32_t>(i)));
  }
  node_chains_.EnsureSize(num_node_slots);
  size_t num_rel_slots = other.rels_.size();
  for (size_t i = 0; i < num_rel_slots; ++i) {
    rels_.Append(other.RelLatest(static_cast<uint32_t>(i)));
  }
  rel_chains_.EnsureSize(num_rel_slots);
  size_t num_labels = other.label_buckets_.size();
  label_buckets_.EnsureSize(num_labels);
  for (size_t s = 0; s < num_labels; ++s) {
    const NodeBucket* head =
        other.label_buckets_[s].head.load(std::memory_order_relaxed);
    if (head != nullptr) {
      auto* bucket = new NodeBucket;
      bucket->ids = head->ids;
      label_buckets_[s].head.store(bucket, std::memory_order_relaxed);
    }
  }
  label_counts_.EnsureSize(other.label_counts_.size());
  for (size_t s = 0; s < other.label_counts_.size(); ++s) {
    label_counts_[s].store(
        other.label_counts_[s].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  // Indexes copy their newest postings, as base versions (since 0).
  IndexList indexes;
  for (const PropertyIndex* from : other.index_list()) {
    auto* index = new PropertyIndex;
    index->label = from->label;
    index->key = from->key;
    index->entries = from->entries;
    index->stale_hint = from->stale_hint;
    const PostingTable* table = from->table.load(std::memory_order_relaxed);
    auto* copy = new PostingTable(table->capacity());
    copy->used = table->used;
    for (size_t i = 0; i < table->capacity(); ++i) {
      const NodeBucket* head =
          table->slots[i].head.head.load(std::memory_order_relaxed);
      if (head == nullptr) continue;
      auto* posting = new NodeBucket;
      posting->ids = head->ids;
      copy->slots[i].hash = table->slots[i].hash;
      copy->slots[i].head.head.store(posting, std::memory_order_relaxed);
    }
    index->table.store(copy, std::memory_order_relaxed);
    indexes.push_back(index);
  }
  if (!indexes.empty()) {
    indexes_.store(new IndexList(std::move(indexes)),
                   std::memory_order_relaxed);
  }
  unique_constraints_ = other.unique_constraints_;
  index_epoch_.store(other.index_epoch_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  alive_nodes_.store(other.alive_nodes_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  alive_rels_.store(other.alive_rels_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  journal_ = other.journal_;
  journaling_ = other.journaling_;
  ddl_log_ = other.ddl_log_;
  ddl_capture_ = other.ddl_capture_;
}

PropertyGraph& PropertyGraph::operator=(const PropertyGraph& other) {
  if (this != &other) {
    PropertyGraph copy(other);
    *this = std::move(copy);
  }
  return *this;
}

PropertyGraph::PropertyGraph(PropertyGraph&& other) noexcept {
  StealFrom(&other);
}

PropertyGraph& PropertyGraph::operator=(PropertyGraph&& other) noexcept {
  if (this != &other) {
    DestroyVersions();
    StealFrom(&other);
  }
  return *this;
}

PropertyGraph::~PropertyGraph() { DestroyVersions(); }

void PropertyGraph::StealFrom(PropertyGraph* other) noexcept {
  labels_ = std::move(other->labels_);
  types_ = std::move(other->types_);
  keys_ = std::move(other->keys_);
  nodes_ = std::move(other->nodes_);
  rels_ = std::move(other->rels_);
  node_chains_ = std::move(other->node_chains_);
  rel_chains_ = std::move(other->rel_chains_);
  label_buckets_ = std::move(other->label_buckets_);
  label_counts_ = std::move(other->label_counts_);
  indexes_.store(other->indexes_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  other->indexes_.store(nullptr, std::memory_order_relaxed);
  unique_constraints_ = std::move(other->unique_constraints_);
  index_epoch_.store(other->index_epoch_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  alive_nodes_.store(other->alive_nodes_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  alive_rels_.store(other->alive_rels_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  other->alive_nodes_.store(0, std::memory_order_relaxed);
  other->alive_rels_.store(0, std::memory_order_relaxed);
  journal_ = std::move(other->journal_);
  journaling_ = other->journaling_;
  other->journal_.clear();
  other->journaling_ = false;
  dead_node_chunks_ = std::exchange(other->dead_node_chunks_, {});
  dead_rel_chunks_ = std::exchange(other->dead_rel_chunks_, {});
  mvcc_on_ = other->mvcc_on_;
  write_epoch_ = other->write_epoch_;
  published_node_count_ = other->published_node_count_;
  published_rel_count_ = other->published_rel_count_;
  published_.store(other->published_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  registry_ = std::move(other->registry_);
  retired_ = std::move(other->retired_);
  other->mvcc_on_ = false;
  other->write_epoch_ = 1;
  other->published_node_count_ = 0;
  other->published_rel_count_ = 0;
  other->published_.store(nullptr, std::memory_order_relaxed);
  ddl_log_ = std::move(other->ddl_log_);
  ddl_capture_ = other->ddl_capture_;
  other->ddl_log_.clear();
  other->ddl_capture_ = false;
}

void PropertyGraph::DestroyVersions() {
  // Invariant: every superseded version record (and epoch descriptor) sits
  // in the retire list exactly once, so freeing the chain heads plus
  // draining the list frees everything. Dangling `prev` pointers into
  // already-drained entries are never followed — nothing reads chains here.
  // Read-only walks: released chain chunks refuse mutable access.
  const auto& node_chains = node_chains_;
  const auto& rel_chains = rel_chains_;
  for (size_t i = 0; i < node_chains.size(); ++i) {
    delete node_chains[i].head.load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < rel_chains.size(); ++i) {
    delete rel_chains[i].head.load(std::memory_order_relaxed);
  }
  for (size_t s = 0; s < label_buckets_.size(); ++s) {
    delete label_buckets_[s].head.load(std::memory_order_relaxed);
  }
  if (const IndexList* list = indexes_.load(std::memory_order_relaxed)) {
    for (PropertyIndex* index : *list) FreeIndex(index);
    delete list;
    indexes_.store(nullptr, std::memory_order_relaxed);
  }
  retired_.Drain();
  delete published_.load(std::memory_order_relaxed);
  published_.store(nullptr, std::memory_order_relaxed);
}

// ---- MVCC lifecycle -------------------------------------------------------

void PropertyGraph::EnableMvcc() {
  AssertMutable();
  if (mvcc_on_) return;
  CYPHER_CHECK(journal_.empty() && "EnableMvcc inside an open statement");
  mvcc_on_ = true;
  write_epoch_ = 1;
  published_node_count_ = nodes_.size();
  published_rel_count_ = rels_.size();
  registry_ = std::make_unique<PinRegistry>();
  // Epoch 0 = everything committed so far. From here on the base slots
  // below the watermarks are frozen; mutators install version records.
  published_.store(new EpochState{0, nodes_.size(), rels_.size()},
                   std::memory_order_seq_cst);
}

void PropertyGraph::PublishEpoch() {
  if (!mvcc_on_) return;
  AssertMutable();
  const EpochState* old = published_.load(std::memory_order_relaxed);
  published_.store(new EpochState{write_epoch_, nodes_.size(), rels_.size()},
                   std::memory_order_seq_cst);
  // The old descriptor may still be mid-copy inside a concurrent Pin; it
  // retires like any superseded version and is freed once no pin predates
  // this publication (Pin's 0-placeholder blocks reclamation meanwhile).
  retired_.Add(const_cast<EpochState*>(old), &DeleteAs<const EpochState>,
               write_epoch_);
  published_node_count_ = nodes_.size();
  published_rel_count_ = rels_.size();
  ++write_epoch_;
  ReclaimRetired();
}

void PropertyGraph::ReclaimRetired() {
  if (registry_ == nullptr) return;
  retired_.Reclaim(registry_->MinActive());
}

ReadPin PropertyGraph::AcquireReadPin() const {
  CYPHER_CHECK(mvcc_on_ && "AcquireReadPin requires EnableMvcc");
  const EpochState* state = nullptr;
  uint32_t slot = registry_->Pin(published_, &state);
  ReadPin pin;
  pin.owner = this;
  pin.epoch = state->epoch;
  pin.node_slots = state->node_slots;
  pin.rel_slots = state->rel_slots;
  pin.registry_slot = slot;
  pin.active = true;
  return pin;
}

void PropertyGraph::RefreshReadPin(ReadPin* pin) const {
  CYPHER_CHECK(pin != nullptr && pin->active && pin->owner == this);
  const EpochState* state = nullptr;
  registry_->Refresh(pin->registry_slot, published_, &state);
  pin->epoch = state->epoch;
  pin->node_slots = state->node_slots;
  pin->rel_slots = state->rel_slots;
}

void PropertyGraph::ReleaseReadPin(const ReadPin& pin) const {
  CYPHER_CHECK(pin.active && pin.owner == this);
  registry_->Unpin(pin.registry_slot);
}

// ---- Copy-on-first-touch (writer side) ------------------------------------

NodeData& PropertyGraph::MutableNode(NodeId id) {
  // Slots no published epoch covers are invisible to every pin: mutate the
  // base in place, chain-free. Without MVCC that is the only path.
  if (!mvcc_on_ || id.value >= published_node_count_) return nodes_[id.value];
  Chain<NodeData>& chain = node_chains_[id.value];
  VersionRec<NodeData>* head = chain.head.load(std::memory_order_relaxed);
  // Current statement already touched this slot (including a failed prior
  // statement at the same unpublished epoch — rollback restored the copy's
  // contents, so reusing it is correct): keep editing in place.
  if (head != nullptr && head->since == write_epoch_) return head->data;
  auto* rec = new VersionRec<NodeData>;
  rec->since = write_epoch_;
  rec->prev = head;
  rec->data = head != nullptr ? head->data : nodes_[id.value];
  chain.head.store(rec, std::memory_order_release);
  // The superseded head serves pins up to epoch write_epoch_ - 1; it frees
  // once the minimum active pin reaches write_epoch_ (or no pins remain),
  // which can only happen after this epoch publishes.
  if (head != nullptr) {
    retired_.Add(head, &DeleteAs<VersionRec<NodeData>>, write_epoch_);
  }
  return rec->data;
}

RelData& PropertyGraph::MutableRel(RelId id) {
  if (!mvcc_on_ || id.value >= published_rel_count_) return rels_[id.value];
  Chain<RelData>& chain = rel_chains_[id.value];
  VersionRec<RelData>* head = chain.head.load(std::memory_order_relaxed);
  if (head != nullptr && head->since == write_epoch_) return head->data;
  auto* rec = new VersionRec<RelData>;
  rec->since = write_epoch_;
  rec->prev = head;
  rec->data = head != nullptr ? head->data : rels_[id.value];
  chain.head.store(rec, std::memory_order_release);
  if (head != nullptr) {
    retired_.Add(head, &DeleteAs<VersionRec<RelData>>, write_epoch_);
  }
  return rec->data;
}

PropertyGraph::NodeBucket& PropertyGraph::MutableBucket(BucketHead& slot) {
  NodeBucket* head = slot.head.load(std::memory_order_relaxed);
  if (head == nullptr) {
    // First node ever with this label (or value). since = the installing
    // epoch, so older pins resolve to "no bucket" (nothing was filed yet).
    auto* bucket = new NodeBucket;
    bucket->since = mvcc_on_ ? write_epoch_ : 0;
    slot.head.store(bucket, std::memory_order_release);
    return *bucket;
  }
  if (!mvcc_on_ || head->since == write_epoch_) return *head;
  auto* bucket = new NodeBucket;
  bucket->since = write_epoch_;
  bucket->prev = head;
  // Room for the insert that usually follows, so the copy is one allocation.
  bucket->ids.reserve(head->ids.size() + 1);
  bucket->ids.assign(head->ids.begin(), head->ids.end());
  slot.head.store(bucket, std::memory_order_release);
  retired_.Add(head, &DeleteAs<NodeBucket>, write_epoch_);
  return *bucket;
}

void PropertyGraph::Retire(void* ptr, void (*deleter)(void*)) {
  // Retired at the write epoch: a pin that could have loaded `ptr` holds an
  // older epoch, and reclamation waits until every pin reached this one.
  if (mvcc_on_) {
    retired_.Add(ptr, deleter, write_epoch_);
  } else {
    deleter(ptr);
  }
}

template <typename T>
void PropertyGraph::Retire(T* ptr) {
  Retire(ptr, &DeleteAs<T>);
}

PropertyMap& PropertyGraph::MutableProps(EntityRef entity) {
  return entity.kind == EntityRef::Kind::kNode
             ? MutableNode(entity.AsNode()).props
             : MutableRel(entity.AsRel()).props;
}

void PropertyGraph::EnsureLabelSlots(Symbol label) {
  if (label == kNoSymbol) return;
  size_t need = static_cast<size_t>(label) + 1;
  if (label_buckets_.size() < need) label_buckets_.EnsureSize(need);
  if (label_counts_.size() < need) label_counts_.EnsureSize(need);
}

void PropertyGraph::DecLabelCount(Symbol label) {
  int64_t prev = label_counts_[label].fetch_sub(1, std::memory_order_relaxed);
  CYPHER_CHECK(prev > 0);
}

// ---- Single-writer epoch check --------------------------------------------

/// Mutating a graph that a parallel read region is scanning is
/// memory-unsafe (the writer's own fan-out shares latest state), so fail
/// fast. Snapshot-pinned readers do not register — their reads resolve
/// against immutable epochs and tolerate the writer by construction. A
/// relaxed load per mutation is noise next to the mutation itself.
void PropertyGraph::AssertMutable() const {
  CYPHER_CHECK(!InParallelReadRegion() &&
               "graph mutated inside a parallel read region");
}

void PropertyGraph::CaptureDdl(const char* verb, Symbol label, Symbol key) {
  if (!ddl_capture_) return;
  ddl_log_ += verb;
  ddl_log_ += " :";
  ddl_log_ += LabelName(label);
  ddl_log_ += ' ';
  ddl_log_ += KeyName(key);
  ddl_log_ += '\n';
}

// ---- Creation -------------------------------------------------------------

NodeId PropertyGraph::CreateNode(std::vector<Symbol> labels,
                                 PropertyMap props) {
  AssertMutable();
  SortUnique(&labels);
  NodeId id(static_cast<uint32_t>(nodes_.size()));
  NodeData data;
  data.labels = std::move(labels);
  data.props = std::move(props);
  NodeData& created = nodes_.Append(std::move(data));
  node_chains_.EnsureSize(nodes_.size());
  alive_nodes_.fetch_add(1, std::memory_order_relaxed);
  for (Symbol label : created.labels) AddToLabelIndex(id, label);
  IndexNode(id);
  Record({.kind = OpKind::kCreateNode, .entity = EntityRef::Node(id)});
  return id;
}

Result<RelId> PropertyGraph::CreateRel(NodeId src, NodeId tgt, Symbol type,
                                       PropertyMap props) {
  AssertMutable();
  if (!IsNodeAlive(src) || !IsNodeAlive(tgt)) {
    return Status::ExecutionError(
        "cannot create relationship: endpoint node does not exist");
  }
  CYPHER_CHECK(type != kNoSymbol);
  RelId id(static_cast<uint32_t>(rels_.size()));
  RelData data;
  data.type = type;
  data.src = src;
  data.tgt = tgt;
  data.props = std::move(props);
  rels_.Append(std::move(data));
  rel_chains_.EnsureSize(rels_.size());
  alive_rels_.fetch_add(1, std::memory_order_relaxed);
  RelinkRel(id);
  Record({.kind = OpKind::kCreateRel, .entity = EntityRef::Rel(id)});
  return id;
}

// ---- Access ---------------------------------------------------------------

bool PropertyGraph::NodeHasLabel(NodeId id, Symbol label) const {
  const auto& labels = node(id).labels;
  return std::binary_search(labels.begin(), labels.end(), label);
}

std::vector<NodeId> PropertyGraph::AllNodes() const {
  std::vector<NodeId> out;
  out.reserve(num_nodes());
  ForEachNode([&](NodeId id) {
    out.push_back(id);
    return true;
  });
  return out;
}

std::vector<RelId> PropertyGraph::AllRels() const {
  std::vector<RelId> out;
  out.reserve(num_rels());
  size_t n = rel_capacity();
  for (uint32_t i = 0; i < n; ++i) {
    if (rel(RelId(i)).alive) out.push_back(RelId(i));
  }
  return out;
}

std::vector<NodeId> PropertyGraph::NodesByLabel(Symbol label) const {
  std::vector<NodeId> out;
  out.reserve(LabelCount(label));
  ForEachNodeWithLabel(label, [&](NodeId id) {
    out.push_back(id);
    return true;
  });
  return out;
}

std::vector<RelId> PropertyGraph::OutRels(NodeId id) const {
  std::vector<RelId> out;
  ForEachOutRel(id, [&](RelId r) {
    out.push_back(r);
    return true;
  });
  return out;
}

std::vector<RelId> PropertyGraph::InRels(NodeId id) const {
  std::vector<RelId> out;
  ForEachInRel(id, [&](RelId r) {
    out.push_back(r);
    return true;
  });
  return out;
}

size_t PropertyGraph::Degree(NodeId id) const {
  const NodeData& data = node(id);
  size_t n = 0;
  for (RelId r : data.out_rels) n += IsRelAlive(r) ? 1 : 0;
  for (RelId r : data.in_rels) n += IsRelAlive(r) ? 1 : 0;
  return n;
}

// ---- Mutation -------------------------------------------------------------

bool PropertyGraph::AddLabel(NodeId id, Symbol label) {
  AssertMutable();
  NodeData& data = MutableNode(id);
  auto it = std::lower_bound(data.labels.begin(), data.labels.end(), label);
  if (it != data.labels.end() && *it == label) return false;
  data.labels.insert(it, label);
  AddToLabelIndex(id, label);
  for (PropertyIndex* index : index_list()) {
    if (index->label != label) continue;
    const Value& value = data.props.Get(index->key);
    if (!value.is_null()) AddPosting(index, value, id);
  }
  Record({.kind = OpKind::kAddLabel,
          .entity = EntityRef::Node(id),
          .symbol = label});
  return true;
}

bool PropertyGraph::RemoveLabel(NodeId id, Symbol label) {
  AssertMutable();
  NodeData& data = MutableNode(id);
  auto it = std::lower_bound(data.labels.begin(), data.labels.end(), label);
  if (it == data.labels.end() || *it != label) return false;
  data.labels.erase(it);
  DecLabelCount(label);
  for (PropertyIndex* index : index_list()) {
    if (index->label == label && !data.props.Get(index->key).is_null()) {
      ++index->stale_hint;
    }
  }
  Record({.kind = OpKind::kRemoveLabel,
          .entity = EntityRef::Node(id),
          .symbol = label});
  return true;
}

bool PropertyGraph::SetProperty(EntityRef entity, Symbol key, Value value) {
  AssertMutable();
  PropertyMap& props = MutableProps(entity);
  Value old = props.Get(key);
  if (!props.Set(key, std::move(value))) return false;
  if (entity.kind == EntityRef::Kind::kNode) {
    if (!old.is_null()) {
      const NodeData& data = node(entity.AsNode());
      for (PropertyIndex* index : index_list()) {
        if (index->key == key &&
            std::binary_search(data.labels.begin(), data.labels.end(),
                               index->label)) {
          ++index->stale_hint;  // the entry under the old value's hash
        }
      }
    }
    IndexNodeKey(entity.AsNode(), key);
  }
  Record({.kind = OpKind::kSetProp,
          .entity = entity,
          .symbol = key,
          .old_value = std::move(old)});
  return true;
}

void PropertyGraph::ReplaceProperties(EntityRef entity, PropertyMap props) {
  AssertMutable();
  PropertyMap& target = MutableProps(entity);
  Record({.kind = OpKind::kReplaceProps,
          .entity = entity,
          .old_props = target});
  if (entity.kind == EntityRef::Kind::kNode) {
    // Only keys whose value changes are indexed again: the entry of an
    // unchanged value stays valid, and image replay replaces the whole map
    // of every node a statement touched.
    const NodeData& data = node(entity.AsNode());
    for (PropertyIndex* index : index_list()) {
      if (!std::binary_search(data.labels.begin(), data.labels.end(),
                              index->label)) {
        continue;
      }
      const Value& old = target.Get(index->key);
      const Value& now = props.Get(index->key);
      if (old.type() == now.type() && GroupEquals(old, now)) continue;
      if (!old.is_null()) ++index->stale_hint;
      if (!now.is_null()) AddPosting(index, now, entity.AsNode());
    }
  }
  target = std::move(props);
}

const PropertyMap& PropertyGraph::Properties(EntityRef entity) const {
  return entity.kind == EntityRef::Kind::kNode ? node(entity.AsNode()).props
                                               : rel(entity.AsRel()).props;
}

void PropertyGraph::DeleteRel(RelId id) {
  AssertMutable();
  if (!IsRelAlive(id)) return;
  RelData& data = MutableRel(id);
  Record({.kind = OpKind::kDeleteRel,
          .entity = EntityRef::Rel(id),
          .old_rel = data});
  UnlinkRel(id);
  data.alive = false;
  data.props.Clear();
  alive_rels_.fetch_sub(1, std::memory_order_relaxed);
  dead_rel_chunks_.Note(id.value);
}

void PropertyGraph::DeleteNode(NodeId id) {
  AssertMutable();
  if (!IsNodeAlive(id)) return;
  CYPHER_CHECK(Degree(id) == 0 &&
               "DeleteNode requires no alive incident relationships");
  DeleteNodeForce(id);
}

void PropertyGraph::DeleteNodeForce(NodeId id) {
  AssertMutable();
  if (!IsNodeAlive(id)) return;
  NodeData& data = MutableNode(id);
  Record({.kind = OpKind::kDeleteNode,
          .entity = EntityRef::Node(id),
          .old_props = data.props,
          .old_labels = data.labels});
  for (Symbol label : data.labels) DecLabelCount(label);
  for (PropertyIndex* index : index_list()) {
    if (std::binary_search(data.labels.begin(), data.labels.end(),
                           index->label) &&
        !data.props.Get(index->key).is_null()) {
      ++index->stale_hint;
    }
  }
  data.alive = false;
  data.labels.clear();
  data.props.Clear();
  alive_nodes_.fetch_sub(1, std::memory_order_relaxed);
  dead_node_chunks_.Note(id.value);
}

NodeId PropertyGraph::AppendTombstoneNode() {
  AssertMutable();
  NodeId id(static_cast<uint32_t>(nodes_.size()));
  NodeData data;
  data.alive = false;
  nodes_.Append(std::move(data));
  node_chains_.EnsureSize(nodes_.size());
  dead_node_chunks_.Note(id.value);
  return id;
}

RelId PropertyGraph::AppendTombstoneRel() {
  AssertMutable();
  RelId id(static_cast<uint32_t>(rels_.size()));
  RelData data;
  data.alive = false;
  rels_.Append(std::move(data));
  rel_chains_.EnsureSize(rels_.size());
  dead_rel_chunks_.Note(id.value);
  return id;
}

bool PropertyGraph::HasDanglingRels(JournalMark mark) const {
  for (size_t i = mark; i < journal_.size(); ++i) {
    const JournalOp& op = journal_[i];
    if (op.kind != OpKind::kDeleteNode) continue;
    const NodeData& data = NodeLatest(op.entity.id);
    for (RelId r : data.out_rels) {
      if (RelLatest(r.value).alive) return true;
    }
    for (RelId r : data.in_rels) {
      if (RelLatest(r.value).alive) return true;
    }
  }
  return false;
}

// ---- Dead-chunk reclamation -----------------------------------------------

void PropertyGraph::ReclaimDeadChunks() {
  AssertMutable();
  if (!journal_.empty()) return;
  ReclaimChunks(&nodes_, &node_chains_, &dead_node_chunks_);
  ReclaimChunks(&rels_, &rel_chains_, &dead_rel_chunks_);
}

size_t PropertyGraph::resident_rel_chunks() const {
  size_t chunks = (rels_.size() + SlotVector<RelData>::kChunkMask) >>
                  SlotVector<RelData>::kChunkBits;
  size_t resident = 0;
  for (size_t ci = 0; ci < chunks; ++ci) resident += !rels_.IsReleased(ci);
  return resident;
}

template <typename T>
void PropertyGraph::ReclaimChunks(SlotVector<T>* slots,
                                  SlotVector<Chain<T>>* chains,
                                  DeadChunks* dead) {
  constexpr size_t kChunkSize = SlotVector<T>::kChunkSize;
  std::vector<uint32_t> candidates = std::exchange(dead->chunks, {});
  SortUnique(&candidates);
  const SlotVector<T>& records = *slots;
  const SlotVector<Chain<T>>& heads = *chains;
  for (uint32_t ci : candidates) {
    size_t begin = size_t{ci} * kChunkSize;
    // Only full chunks: the last one still takes appends. A noted chunk is
    // never released: a slot dies by a write, which a released chunk
    // refuses.
    if (begin + kChunkSize > records.size()) continue;
    bool all_dead = true;
    for (size_t i = begin; all_dead && i < begin + kChunkSize; ++i) {
      all_dead = IsDeadRecord(records[i]) &&
                 heads[i].head.load(std::memory_order_relaxed) == nullptr;
    }
    if (!all_dead) continue;
    // A pinned reader may be mid-walk on either old chunk: both retire.
    Retire(slots->ReleaseChunk(ci, SharedDeadChunk<T>()),
           &SlotVector<T>::FreeChunk);
    Retire(chains->ReleaseChunk(ci, SharedDeadChunk<Chain<T>>()),
           &SlotVector<Chain<T>>::FreeChunk);
  }
}

// ---- Undo journal ---------------------------------------------------------

PropertyGraph::JournalMark PropertyGraph::BeginJournal() {
  // An empty journal means the previous statement ended and its results
  // are built: no rollback or result can want its dead slots any more.
  ReclaimDeadChunks();
  journaling_ = true;
  return journal_.size();
}

void PropertyGraph::RollbackTo(JournalMark mark) {
  AssertMutable();
  bool was_journaling = journaling_;
  journaling_ = false;  // Rollback mutations must not journal themselves.
  while (journal_.size() > mark) {
    JournalOp op = std::move(journal_.back());
    journal_.pop_back();
    switch (op.kind) {
      case OpKind::kCreateNode: {
        NodeData& data = MutableNode(op.entity.AsNode());
        CYPHER_CHECK(data.alive);
        for (Symbol label : data.labels) DecLabelCount(label);
        data.alive = false;
        data.labels.clear();
        data.props.Clear();
        alive_nodes_.fetch_sub(1, std::memory_order_relaxed);
        dead_node_chunks_.Note(op.entity.id);
        break;
      }
      case OpKind::kCreateRel: {
        RelData& data = MutableRel(op.entity.AsRel());
        if (data.alive) {
          UnlinkRel(op.entity.AsRel());
          data.alive = false;
          data.props.Clear();
          alive_rels_.fetch_sub(1, std::memory_order_relaxed);
          dead_rel_chunks_.Note(op.entity.id);
        }
        break;
      }
      case OpKind::kDeleteRel: {
        RelData& data = MutableRel(op.entity.AsRel());
        CYPHER_CHECK(!data.alive);
        data = op.old_rel;
        data.alive = true;
        RelinkRel(op.entity.AsRel());
        alive_rels_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case OpKind::kDeleteNode: {
        NodeData& data = MutableNode(op.entity.AsNode());
        CYPHER_CHECK(!data.alive);
        data.alive = true;
        data.labels = std::move(op.old_labels);
        data.props = std::move(op.old_props);
        alive_nodes_.fetch_add(1, std::memory_order_relaxed);
        for (Symbol label : data.labels) {
          AddToLabelIndex(op.entity.AsNode(), label);
        }
        break;
      }
      case OpKind::kForceDeleteNode:
        CYPHER_CHECK(false && "kForceDeleteNode is recorded as kDeleteNode");
        break;
      case OpKind::kAddLabel: {
        NodeData& data = MutableNode(op.entity.AsNode());
        auto it = std::lower_bound(data.labels.begin(), data.labels.end(),
                                   op.symbol);
        if (it != data.labels.end() && *it == op.symbol) {
          data.labels.erase(it);
          DecLabelCount(op.symbol);
        }
        break;
      }
      case OpKind::kRemoveLabel: {
        NodeData& data = MutableNode(op.entity.AsNode());
        auto it = std::lower_bound(data.labels.begin(), data.labels.end(),
                                   op.symbol);
        data.labels.insert(it, op.symbol);
        AddToLabelIndex(op.entity.AsNode(), op.symbol);
        break;
      }
      case OpKind::kSetProp: {
        MutableProps(op.entity).Set(op.symbol, std::move(op.old_value));
        break;
      }
      case OpKind::kReplaceProps: {
        MutableProps(op.entity) = std::move(op.old_props);
        break;
      }
    }
  }
  journaling_ = was_journaling && !journal_.empty();
  if (journal_.empty()) journaling_ = false;
}

PropertyGraph::TouchedSlots PropertyGraph::TouchedSince(
    JournalMark mark) const {
  TouchedSlots out;
  out.node_base = static_cast<uint32_t>(nodes_.size());
  out.rel_base = static_cast<uint32_t>(rels_.size());
  for (size_t i = mark; i < journal_.size(); ++i) {
    const JournalOp& op = journal_[i];
    if (op.entity.kind == EntityRef::Kind::kNode) {
      out.nodes.push_back(op.entity.AsNode());
      if (op.kind == OpKind::kCreateNode) {
        out.node_base = std::min(out.node_base, op.entity.id);
      }
    } else {
      out.rels.push_back(op.entity.AsRel());
      if (op.kind == OpKind::kCreateRel) {
        out.rel_base = std::min(out.rel_base, op.entity.id);
      }
    }
  }
  SortUnique(&out.nodes);
  SortUnique(&out.rels);
  return out;
}

void PropertyGraph::CommitTo(JournalMark mark) {
  AssertMutable();
  CYPHER_CHECK(mark <= journal_.size());
  journal_.resize(mark);
  if (journal_.empty()) {
    journaling_ = false;
    // Nothing left to roll back, so no tombstoned node can be resurrected:
    // stale index entries are now provably dead and safe to prune.
    CompactIndexes();
  }
}

void PropertyGraph::UnlinkRel(RelId id) {
  const RelData& data = RelLatest(id.value);
  SortedErase(&MutableNode(data.src).out_rels, id);
  SortedErase(&MutableNode(data.tgt).in_rels, id);
}

void PropertyGraph::RelinkRel(RelId id) {
  const RelData& data = RelLatest(id.value);
  SortedInsert(&MutableNode(data.src).out_rels, id);
  SortedInsert(&MutableNode(data.tgt).in_rels, id);
}

void PropertyGraph::AddToLabelIndex(NodeId id, Symbol label) {
  // Every call site adds `label` to an alive node that did not carry it, so
  // the cached cardinality is maintained here; removals decrement at their
  // own sites (the index bucket itself keeps stale ids — readers validate).
  IncLabelCount(label);
  SortedInsertUnique(&MutableBucket(label_buckets_[label]).ids, id);
}

// ---- Property indexes ---------------------------------------------------------

void PropertyGraph::CreateIndex(Symbol label, Symbol key) {
  AssertMutable();
  if (FindPropertyIndex(label, key) != nullptr) return;
  CaptureDdl("index+", label, key);
  index_epoch_.fetch_add(1, std::memory_order_relaxed);
  auto* index = new PropertyIndex;
  index->label = label;
  index->key = key;
  index->since = mvcc_on_ ? write_epoch_ : 0;
  index->table.store(new PostingTable(TableCapacity(0)),
                     std::memory_order_relaxed);
  // Filled before publication, so no reader sees a partial index.
  for (NodeId id : NodesByLabel(label)) {
    const Value& value = node(id).props.Get(key);
    if (!value.is_null()) AddPosting(index, value, id);
  }
  IndexList list = index_list();
  list.push_back(index);
  PublishIndexList(std::move(list));
}

void PropertyGraph::PublishIndexList(IndexList list) {
  const IndexList* old = indexes_.load(std::memory_order_relaxed);
  indexes_.store(list.empty() ? nullptr : new IndexList(std::move(list)),
                 std::memory_order_release);
  if (old != nullptr) Retire(const_cast<IndexList*>(old));
}

bool PropertyGraph::HasIndex(Symbol label, Symbol key) const {
  return FindPropertyIndex(label, key) != nullptr;
}

std::vector<std::pair<Symbol, Symbol>> PropertyGraph::Indexes() const {
  std::vector<std::pair<Symbol, Symbol>> out;
  for (const PropertyIndex* index : index_list()) {
    out.emplace_back(index->label, index->key);
  }
  return out;
}

std::vector<NodeId> PropertyGraph::IndexLookup(Symbol label, Symbol key,
                                               const Value& value) const {
  const ReadPin* pin = ActivePin();
  std::vector<NodeId> out;
  auto keep = [&](NodeId id) {
    const NodeData* data = AliveNodeAt(id, pin);
    if (data != nullptr &&
        std::binary_search(data->labels.begin(), data->labels.end(),
                           label) &&
        GroupEquals(data->props.Get(key), value)) {
      out.push_back(id);
    }
    return true;
  };
  const std::vector<NodeId>* ids = nullptr;
  if (!IndexPostings(label, key, value, pin, &ids)) {
    ForEachNodeWithLabel(label, keep);
  } else if (ids != nullptr) {
    for (NodeId id : *ids) keep(id);
  }
  return out;
}

bool PropertyGraph::IndexPostings(Symbol label, Symbol key,
                                  const Value& value, const ReadPin* pin,
                                  const std::vector<NodeId>** ids) const {
  const PropertyIndex* index = FindPropertyIndex(label, key);
  if (index == nullptr || (pin != nullptr && index->since > pin->epoch)) {
    return false;
  }
  *ids = nullptr;
  const BucketHead* head =
      index->table.load(std::memory_order_acquire)->Find(HashValue(value));
  if (head == nullptr) return true;
  const NodeBucket* posting = pin != nullptr
                                  ? ResolveVersion(*head, pin->epoch)
                                  : head->head.load(std::memory_order_acquire);
  if (posting != nullptr) *ids = &posting->ids;
  return true;
}

size_t PropertyGraph::IndexEntryCount(Symbol label, Symbol key) const {
  const PropertyIndex* index = FindPropertyIndex(label, key);
  return index == nullptr ? 0 : index->entries;
}

void PropertyGraph::CompactIndexes() {
  for (PropertyIndex* index : index_list()) {
    // Amortize: only sweep an index once at least half its entries are
    // suspected stale (deleted / relabeled / value-changed nodes).
    if (index->entries == 0 || index->stale_hint * 2 < index->entries) {
      continue;
    }
    index->stale_hint = 0;
    PostingTable* table = index->table.load(std::memory_order_relaxed);
    const uint64_t horizon = PostingHorizon();
    size_t total = 0;
    size_t droppable = 0;
    for (size_t i = 0; i < table->capacity(); ++i) {
      PostingTable::Slot& slot = table->slots[i];
      const NodeBucket* posting =
          slot.head.head.load(std::memory_order_relaxed);
      if (posting == nullptr) continue;
      std::vector<NodeId> kept;
      kept.reserve(posting->ids.size());
      for (NodeId id : posting->ids) {
        const NodeData* data = AliveNodeAt(id, nullptr);
        if (data == nullptr ||
            !std::binary_search(data->labels.begin(), data->labels.end(),
                                index->label)) {
          continue;
        }
        const Value& value = data->props.Get(index->key);
        if (!value.is_null() && HashValue(value) == slot.hash) {
          kept.push_back(id);
        }
      }
      // Rewrite only postings whose stale ratio (dead, relabeled or
      // rehashed entries) exceeds 50%; others keep their storage. With
      // MVCC the rewrite is a new version: older pins keep the entries.
      size_t size = posting->ids.size();
      if ((size - kept.size()) * 2 > size) {
        size = kept.size();
        MutableBucket(slot.head).ids = std::move(kept);
      }
      total += size;
      posting = slot.head.head.load(std::memory_order_relaxed);
      if (posting->ids.empty() && posting->since <= horizon) ++droppable;
    }
    index->entries = total;
    // Values no node holds any more (each fresh value a workload deletes
    // again) would otherwise keep their slots until the table next grows.
    if (droppable > 0 && droppable * 4 >= table->used) {
      RebuildPostings(index, 0);
    }
  }
}

void PropertyGraph::DropIndex(Symbol label, Symbol key) {
  AssertMutable();
  IndexList list = index_list();
  for (size_t i = 0; i < list.size(); ++i) {
    PropertyIndex* index = list[i];
    if (index->label != label || index->key != key) continue;
    list.erase(list.begin() + static_cast<ptrdiff_t>(i));
    PublishIndexList(std::move(list));
    // Pinned seeks may still be walking the dropped index.
    Retire(index, &FreeIndex);
    index_epoch_.fetch_add(1, std::memory_order_relaxed);
    CaptureDdl("index-", label, key);
    return;
  }
}

// ---- Uniqueness constraints ----------------------------------------------------

namespace {

/// Finds a pair of distinct alive nodes with group-equal non-null values;
/// returns the duplicated value's text or empty when unique.
std::string FindDuplicateValue(const PropertyGraph& graph, Symbol label,
                               Symbol key) {
  std::unordered_map<uint64_t, std::vector<std::pair<NodeId, Value>>> seen;
  for (NodeId id : graph.NodesByLabel(label)) {
    const Value& value = graph.node(id).props.Get(key);
    if (value.is_null()) continue;
    auto& bucket = seen[HashValue(value)];
    for (const auto& [other, other_value] : bucket) {
      if (GroupEquals(other_value, value)) return value.ToString();
    }
    bucket.emplace_back(id, value);
  }
  return "";
}

}  // namespace

Status PropertyGraph::AddUniqueConstraint(Symbol label, Symbol key) {
  AssertMutable();
  if (HasUniqueConstraint(label, key)) return Status::OK();
  std::string duplicate = FindDuplicateValue(*this, label, key);
  if (!duplicate.empty()) {
    return Status::ExecutionError(
        "cannot create uniqueness constraint on :" + LabelName(label) + "(" +
        KeyName(key) + "): existing nodes share the value " + duplicate);
  }
  unique_constraints_.emplace_back(label, key);
  CaptureDdl("uniq+", label, key);
  return Status::OK();
}

void PropertyGraph::DropUniqueConstraint(Symbol label, Symbol key) {
  AssertMutable();
  for (size_t i = 0; i < unique_constraints_.size(); ++i) {
    if (unique_constraints_[i] == std::make_pair(label, key)) {
      unique_constraints_.erase(unique_constraints_.begin() +
                                static_cast<ptrdiff_t>(i));
      CaptureDdl("uniq-", label, key);
      return;
    }
  }
}

bool PropertyGraph::HasUniqueConstraint(Symbol label, Symbol key) const {
  for (const auto& constraint : unique_constraints_) {
    if (constraint == std::make_pair(label, key)) return true;
  }
  return false;
}

std::vector<std::pair<Symbol, Symbol>> PropertyGraph::UniqueConstraints()
    const {
  return unique_constraints_;
}

Status PropertyGraph::ValidateUniqueConstraints() const {
  for (const auto& [label, key] : unique_constraints_) {
    std::string duplicate = FindDuplicateValue(*this, label, key);
    if (!duplicate.empty()) {
      return Status::ExecutionError(
          "uniqueness constraint on :" + LabelName(label) + "(" +
          KeyName(key) + ") violated: two nodes share the value " + duplicate);
    }
  }
  return Status::OK();
}

const PropertyGraph::PropertyIndex* PropertyGraph::FindPropertyIndex(
    Symbol label, Symbol key) const {
  for (const PropertyIndex* index : index_list()) {
    if (index->label == label && index->key == key) return index;
  }
  return nullptr;
}

void PropertyGraph::AddPosting(PropertyIndex* index, const Value& value,
                               NodeId id) {
  BucketHead& head = PostingHead(index, HashValue(value));
  const NodeBucket* newest = head.head.load(std::memory_order_relaxed);
  // Already filed (a value set back, a node indexed again): no new version.
  if (newest != nullptr &&
      std::binary_search(newest->ids.begin(), newest->ids.end(), id)) {
    return;
  }
  if (SortedInsertUnique(&MutableBucket(head).ids, id)) ++index->entries;
}

PropertyGraph::BucketHead& PropertyGraph::PostingHead(PropertyIndex* index,
                                                      uint64_t hash) {
  PostingTable* table = index->table.load(std::memory_order_relaxed);
  size_t i = table->Home(hash);
  for (;; i = (i + 1) & table->mask) {
    PostingTable::Slot& slot = table->slots[i];
    if (slot.head.head.load(std::memory_order_relaxed) == nullptr) break;
    if (slot.hash == hash) return slot.head;
  }
  // Absent: claim a slot, keeping the table at most half full. The caller
  // installs the first posting (MutableBucket), which publishes the slot.
  if ((table->used + 1) * 2 > table->capacity()) {
    RebuildPostings(index, 1);
    table = index->table.load(std::memory_order_relaxed);
    i = table->Home(hash);
    while (table->slots[i].head.head.load(std::memory_order_relaxed) !=
           nullptr) {
      i = (i + 1) & table->mask;
    }
  }
  ++table->used;
  table->slots[i].hash = hash;
  return table->slots[i].head;
}

void PropertyGraph::RebuildPostings(PropertyIndex* index, size_t extra) {
  PostingTable* old = index->table.load(std::memory_order_relaxed);
  const uint64_t horizon = PostingHorizon();
  auto droppable = [horizon](const NodeBucket* posting) {
    return posting->ids.empty() && posting->since <= horizon;
  };
  size_t live = 0;
  for (size_t i = 0; i < old->capacity(); ++i) {
    const NodeBucket* posting =
        old->slots[i].head.head.load(std::memory_order_relaxed);
    if (posting != nullptr && !droppable(posting)) ++live;
  }
  auto* fresh = new PostingTable(TableCapacity(2 * (live + extra) + 1));
  for (size_t i = 0; i < old->capacity(); ++i) {
    NodeBucket* posting =
        old->slots[i].head.head.load(std::memory_order_relaxed);
    if (posting == nullptr) continue;
    if (droppable(posting)) {
      Retire(posting);
      continue;
    }
    uint64_t hash = old->slots[i].hash;
    size_t j = fresh->Home(hash);
    while (fresh->slots[j].head.head.load(std::memory_order_relaxed) !=
           nullptr) {
      j = (j + 1) & fresh->mask;
    }
    fresh->slots[j].hash = hash;
    fresh->slots[j].head.head.store(posting, std::memory_order_relaxed);
    ++fresh->used;
  }
  index->table.store(fresh, std::memory_order_release);
  Retire(old);
}

uint64_t PropertyGraph::PostingHorizon() const {
  // A posting that emptied at or before the epoch of every live pin and of
  // the newest publication (where new pins start) answers every present and
  // future reader exactly as an absent value does. Without MVCC every
  // posting is a base version (since 0).
  if (!mvcc_on_) return 0;
  return std::min(registry_->MinActive(), published_epoch());
}

void PropertyGraph::FreeIndex(void* ptr) {
  auto* index = static_cast<PropertyIndex*>(ptr);
  PostingTable* table = index->table.load(std::memory_order_relaxed);
  for (size_t i = 0; i < table->capacity(); ++i) {
    delete table->slots[i].head.head.load(std::memory_order_relaxed);
  }
  delete table;
  delete index;
}

void PropertyGraph::IndexNode(NodeId id) {
  const IndexList& indexes = index_list();
  if (indexes.empty()) return;
  const NodeData& data = NodeLatest(id.value);
  for (PropertyIndex* index : indexes) {
    if (!std::binary_search(data.labels.begin(), data.labels.end(),
                            index->label)) {
      continue;
    }
    const Value& value = data.props.Get(index->key);
    if (!value.is_null()) AddPosting(index, value, id);
  }
}

void PropertyGraph::IndexNodeKey(NodeId id, Symbol key) {
  const IndexList& indexes = index_list();
  if (indexes.empty()) return;
  const NodeData& data = NodeLatest(id.value);
  for (PropertyIndex* index : indexes) {
    if (index->key != key) continue;
    if (!std::binary_search(data.labels.begin(), data.labels.end(),
                            index->label)) {
      continue;
    }
    const Value& value = data.props.Get(index->key);
    if (!value.is_null()) AddPosting(index, value, id);
  }
}

std::string DescribeProps(const PropertyGraph& graph, const PropertyMap& map) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : map.entries()) {
    if (!first) out += ", ";
    first = false;
    out += graph.KeyName(key);
    out += ": ";
    out += value.ToString();
  }
  out += "}";
  return out;
}

std::string DescribeNode(const PropertyGraph& graph, NodeId id) {
  if (!graph.IsValidNode(id)) return "(?invalid?)";
  const NodeData& data = graph.node(id);
  std::string out = "(";
  for (Symbol label : data.labels) {
    out += ":";
    out += graph.LabelName(label);
  }
  if (!data.props.empty()) {
    if (!data.labels.empty()) out += " ";
    out += DescribeProps(graph, data.props);
  }
  out += ")";
  return out;
}

std::string DescribeRel(const PropertyGraph& graph, RelId id) {
  if (!graph.IsValidRel(id)) return "-[?invalid?]-";
  const RelData& data = graph.rel(id);
  if (data.type == kNoSymbol) return "-[]-";  // reclaimed: nothing left
  std::string out = "(" + std::to_string(data.src.value) + ")-[:";
  out += graph.TypeName(data.type);
  if (!data.props.empty()) {
    out += " ";
    out += DescribeProps(graph, data.props);
  }
  out += "]->(" + std::to_string(data.tgt.value) + ")";
  return out;
}

}  // namespace cypher
