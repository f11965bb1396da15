#include <gtest/gtest.h>

#include <deque>

#include "graph/graph.h"
#include "graph/serialize.h"
#include "storage/snapshot.h"

namespace cypher {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  PropertyGraph g;

  NodeId MakeNode(const std::string& label, int64_t id) {
    PropertyMap props;
    props.Set(g.InternKey("id"), Value::Int(id));
    return g.CreateNode({g.InternLabel(label)}, std::move(props));
  }
};

TEST_F(GraphTest, CreateNodeBasics) {
  NodeId n = MakeNode("User", 89);
  EXPECT_TRUE(g.IsNodeAlive(n));
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_TRUE(g.NodeHasLabel(n, g.FindLabel("User")));
  EXPECT_EQ(g.node(n).props.Get(g.FindKey("id")).AsInt(), 89);
}

TEST_F(GraphTest, LabelsAreSortedAndDeduplicated) {
  Symbol a = g.InternLabel("B");
  Symbol b = g.InternLabel("A");
  NodeId n = g.CreateNode({a, b, a}, {});
  EXPECT_EQ(g.node(n).labels.size(), 2u);
  EXPECT_TRUE(std::is_sorted(g.node(n).labels.begin(), g.node(n).labels.end()));
}

TEST_F(GraphTest, CreateRelLinksAdjacency) {
  NodeId u = MakeNode("User", 1);
  NodeId p = MakeNode("Product", 2);
  auto r = g.CreateRel(u, p, g.InternType("ORDERED"), {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(g.num_rels(), 1u);
  EXPECT_EQ(g.OutRels(u).size(), 1u);
  EXPECT_EQ(g.InRels(p).size(), 1u);
  EXPECT_EQ(g.rel(*r).src, u);
  EXPECT_EQ(g.rel(*r).tgt, p);
  EXPECT_EQ(g.Degree(u), 1u);
}

TEST_F(GraphTest, CreateRelToDeadNodeFails) {
  NodeId u = MakeNode("User", 1);
  NodeId p = MakeNode("Product", 2);
  g.DeleteNode(p);
  EXPECT_FALSE(g.CreateRel(u, p, g.InternType("T"), {}).ok());
}

TEST_F(GraphTest, NodesByLabelFiltersDeadAndRelabeled) {
  NodeId a = MakeNode("User", 1);
  NodeId b = MakeNode("User", 2);
  MakeNode("Product", 3);
  EXPECT_EQ(g.NodesByLabel(g.FindLabel("User")).size(), 2u);
  g.DeleteNode(a);
  EXPECT_EQ(g.NodesByLabel(g.FindLabel("User")).size(), 1u);
  g.RemoveLabel(b, g.FindLabel("User"));
  EXPECT_TRUE(g.NodesByLabel(g.FindLabel("User")).empty());
}

TEST_F(GraphTest, DeleteRelUnlinksAdjacency) {
  NodeId u = MakeNode("User", 1);
  NodeId p = MakeNode("Product", 2);
  RelId r = *g.CreateRel(u, p, g.InternType("T"), {});
  g.DeleteRel(r);
  EXPECT_FALSE(g.IsRelAlive(r));
  EXPECT_TRUE(g.OutRels(u).empty());
  EXPECT_EQ(g.num_rels(), 0u);
  g.DeleteRel(r);  // idempotent
  EXPECT_EQ(g.num_rels(), 0u);
}

TEST_F(GraphTest, ForceDeleteLeavesDanglingRel) {
  NodeId u = MakeNode("User", 1);
  NodeId p = MakeNode("Product", 2);
  ASSERT_TRUE(g.CreateRel(u, p, g.InternType("T"), {}).ok());
  PropertyGraph::JournalMark mark = g.BeginJournal();
  EXPECT_FALSE(g.HasDanglingRels(mark));
  g.DeleteNodeForce(u);
  EXPECT_TRUE(g.HasDanglingRels(mark));
  EXPECT_FALSE(g.IsNodeAlive(u));
  // The zombie's labels and properties are cleared (Section 4.2's "empty
  // node").
  EXPECT_TRUE(g.node(u).labels.empty());
  EXPECT_TRUE(g.node(u).props.empty());
}

TEST_F(GraphTest, SetPropertyAndNullErases) {
  NodeId n = MakeNode("User", 1);
  EntityRef e = EntityRef::Node(n);
  Symbol key = g.InternKey("name");
  EXPECT_TRUE(g.SetProperty(e, key, Value::String("Bob")));
  EXPECT_FALSE(g.SetProperty(e, key, Value::String("Bob")));  // unchanged
  EXPECT_TRUE(g.SetProperty(e, key, Value::Null()));
  EXPECT_FALSE(g.node(n).props.Has(key));
}

TEST_F(GraphTest, ReplaceProperties) {
  NodeId n = MakeNode("User", 1);
  PropertyMap next;
  next.Set(g.InternKey("x"), Value::Int(1));
  g.ReplaceProperties(EntityRef::Node(n), std::move(next));
  EXPECT_FALSE(g.node(n).props.Has(g.FindKey("id")));
  EXPECT_EQ(g.node(n).props.Get(g.FindKey("x")).AsInt(), 1);
}

// ---- Journal ----------------------------------------------------------------

TEST_F(GraphTest, RollbackUndoesCreation) {
  NodeId before = MakeNode("Keep", 0);
  auto mark = g.BeginJournal();
  NodeId n = MakeNode("User", 1);
  NodeId m = MakeNode("User", 2);
  ASSERT_TRUE(g.CreateRel(n, m, g.InternType("T"), {}).ok());
  g.RollbackTo(mark);
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.num_rels(), 0u);
  EXPECT_TRUE(g.IsNodeAlive(before));
  EXPECT_FALSE(g.IsNodeAlive(n));
}

TEST_F(GraphTest, RollbackUndoesDeletion) {
  NodeId u = MakeNode("User", 1);
  NodeId p = MakeNode("Product", 2);
  RelId r = *g.CreateRel(u, p, g.InternType("T"), {});
  auto mark = g.BeginJournal();
  g.DeleteRel(r);
  g.DeleteNode(u);
  EXPECT_EQ(g.num_nodes(), 1u);
  g.RollbackTo(mark);
  EXPECT_TRUE(g.IsNodeAlive(u));
  EXPECT_TRUE(g.IsRelAlive(r));
  EXPECT_EQ(g.OutRels(u).size(), 1u);
  EXPECT_TRUE(g.NodeHasLabel(u, g.FindLabel("User")));
  EXPECT_EQ(g.node(u).props.Get(g.FindKey("id")).AsInt(), 1);
}

TEST_F(GraphTest, RollbackUndoesPropertyAndLabelChanges) {
  NodeId n = MakeNode("User", 1);
  auto mark = g.BeginJournal();
  g.SetProperty(EntityRef::Node(n), g.InternKey("id"), Value::Int(999));
  g.SetProperty(EntityRef::Node(n), g.InternKey("fresh"), Value::Bool(true));
  g.AddLabel(n, g.InternLabel("Extra"));
  g.RemoveLabel(n, g.FindLabel("User"));
  PropertyMap next;
  g.ReplaceProperties(EntityRef::Node(n), std::move(next));
  g.RollbackTo(mark);
  EXPECT_EQ(g.node(n).props.Get(g.FindKey("id")).AsInt(), 1);
  EXPECT_FALSE(g.node(n).props.Has(g.FindKey("fresh")));
  EXPECT_TRUE(g.NodeHasLabel(n, g.FindLabel("User")));
  EXPECT_FALSE(g.NodeHasLabel(n, g.FindLabel("Extra")));
}

TEST_F(GraphTest, CommitKeepsChanges) {
  auto mark = g.BeginJournal();
  NodeId n = MakeNode("User", 1);
  g.CommitTo(mark);
  EXPECT_TRUE(g.IsNodeAlive(n));
  // After commit the journal is empty; a rollback to 0 is a no-op.
  g.RollbackTo(0);
  EXPECT_TRUE(g.IsNodeAlive(n));
}

TEST_F(GraphTest, RollbackForceDeleteRestoresLabelsAndProps) {
  NodeId u = MakeNode("User", 42);
  auto mark = g.BeginJournal();
  g.DeleteNodeForce(u);
  g.RollbackTo(mark);
  EXPECT_TRUE(g.IsNodeAlive(u));
  EXPECT_TRUE(g.NodeHasLabel(u, g.FindLabel("User")));
  EXPECT_EQ(g.node(u).props.Get(g.FindKey("id")).AsInt(), 42);
}

// ---- Serialization -----------------------------------------------------------

TEST_F(GraphTest, DumpLoadRoundTrip) {
  NodeId u = MakeNode("User", 89);
  g.SetProperty(EntityRef::Node(u), g.InternKey("name"),
                Value::String("Bob"));
  NodeId p = MakeNode("Product", 125);
  PropertyMap rel_props;
  rel_props.Set(g.InternKey("qty"), Value::Int(2));
  ASSERT_TRUE(g.CreateRel(u, p, g.InternType("ORDERED"),
                          std::move(rel_props)).ok());
  std::string dump = DumpGraph(g);
  auto loaded = LoadGraph(dump);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), 2u);
  EXPECT_EQ(loaded->num_rels(), 1u);
  EXPECT_EQ(DumpGraph(*loaded), dump);
}

TEST_F(GraphTest, LoadRejectsMalformedInput) {
  EXPECT_FALSE(LoadGraph("garbage 1 2 3").ok());
  EXPECT_FALSE(LoadGraph("rel 0 0 1 :T {}").ok());  // unknown ordinals
  EXPECT_FALSE(LoadGraph("node 0 :User {id: }").ok());
}

TEST_F(GraphTest, ToDotMentionsEntities) {
  NodeId u = MakeNode("User", 1);
  NodeId p = MakeNode("Product", 2);
  ASSERT_TRUE(g.CreateRel(u, p, g.InternType("ORDERED"), {}).ok());
  std::string dot = ToDot(g, "test");
  EXPECT_NE(dot.find(":User"), std::string::npos);
  EXPECT_NE(dot.find(":ORDERED"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST_F(GraphTest, DescribeNode) {
  NodeId u = MakeNode("User", 89);
  g.SetProperty(EntityRef::Node(u), g.InternKey("name"), Value::String("Bob"));
  EXPECT_EQ(DescribeNode(g, u), "(:User {id: 89, name: 'Bob'})");
}

// ---- Dead-chunk reclamation -------------------------------------------------

constexpr size_t kChunk = SlotVector<RelData>::kChunkSize;
constexpr size_t kChurn = 100000;
constexpr size_t kLive = 100;

NodeId AddNode(PropertyGraph* g, const std::string& label, int64_t id) {
  PropertyMap props;
  props.Set(g->InternKey("id"), Value::Int(id));
  return g->CreateNode({g->InternLabel(label)}, std::move(props));
}

/// Creates kChurn relationships, deleting each kLive creations later: ids
/// climb while the live count stays kLive. With `statements` each step is
/// a journaled, committed statement; otherwise the same mutations run
/// unjournaled, so nothing ever reclaims — the no-reclamation reference.
void Churn(PropertyGraph* g, NodeId a, NodeId b, bool statements) {
  Symbol type = g->InternType("ORDERED");
  Symbol qty = g->InternKey("qty");
  std::deque<RelId> live;
  for (size_t i = 0; i < kChurn; ++i) {
    PropertyGraph::JournalMark mark = statements ? g->BeginJournal() : 0;
    PropertyMap props;
    props.Set(qty, Value::Int(static_cast<int64_t>(i % 7)));
    live.push_back(*g->CreateRel(i % 2 ? a : b, i % 3 ? b : a, type,
                                 std::move(props)));
    if (live.size() > kLive) {
      g->DeleteRel(live.front());
      live.pop_front();
    }
    if (statements) g->CommitTo(mark);
  }
}

TEST(GraphReclaimTest, ChurnKeepsChunksBoundedAndIdsFresh) {
  PropertyGraph g;
  PropertyGraph plain;
  NodeId a = AddNode(&g, "User", 1);
  NodeId b = AddNode(&g, "Product", 2);
  AddNode(&plain, "User", 1);
  AddNode(&plain, "Product", 2);
  Churn(&g, a, b, true);
  Churn(&plain, a, b, false);
  ASSERT_EQ(g.num_rels(), kLive);
  // The live window spans at most two chunks; one more may wait for the
  // next commit.
  EXPECT_LE(g.resident_rel_chunks(), 3u);
  EXPECT_EQ(plain.resident_rel_chunks(), (kChurn + kChunk - 1) / kChunk);
  EXPECT_FALSE(g.IsRelAlive(RelId(0)));
  EXPECT_FALSE(g.rel(RelId(0)).alive);
  // Reclamation is invisible to every serialization.
  EXPECT_EQ(storage::EncodeSnapshot(g), storage::EncodeSnapshot(plain));
  EXPECT_EQ(DumpGraphCanonical(g), DumpGraphCanonical(plain));
  // Ids are never reused: the next one is what it is without reclamation.
  Symbol type = g.InternType("ORDERED");
  RelId next = *g.CreateRel(a, b, type, {});
  EXPECT_EQ(next, *plain.CreateRel(a, b, plain.InternType("ORDERED"), {}));
  EXPECT_EQ(next.value, kChurn);
  // Decoding pads the dead prefix with tombstones, and the image applier
  // reclaims them.
  auto decoded = storage::DecodeSnapshot(storage::EncodeSnapshot(g));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_LE(decoded->resident_rel_chunks(), 3u);
  EXPECT_EQ(DumpGraphCanonical(*decoded), DumpGraphCanonical(g));
}

TEST(GraphReclaimTest, OpenJournalReclaimsNothingAndRollbackRestores) {
  PropertyGraph g;
  NodeId a = AddNode(&g, "User", 1);
  NodeId b = AddNode(&g, "Product", 2);
  Churn(&g, a, b, true);
  const std::string before = DumpGraphCanonical(g);
  const size_t chunks_before = g.resident_rel_chunks();
  // One open statement around a second churn: no commit empties the
  // journal, so no slot it could revive is reclaimed.
  PropertyGraph::JournalMark mark = g.BeginJournal();
  Churn(&g, a, b, false);
  EXPECT_GE(g.resident_rel_chunks(), kChurn / kChunk);
  g.RollbackTo(mark);
  EXPECT_EQ(DumpGraphCanonical(g), before);
  EXPECT_EQ(g.num_rels(), kLive);
  // The rolled-back creations left dead slots: the next statement to open
  // reclaims them too.
  g.CommitTo(g.BeginJournal());
  EXPECT_LE(g.resident_rel_chunks(), chunks_before + 1);
  EXPECT_EQ(DumpGraphCanonical(g), before);
}

// A statement may render the relationships it deleted after its commit, so
// their chunk is reclaimed when the next statement opens.
TEST(GraphReclaimTest, DeletedRelationshipsOutliveTheirStatement) {
  PropertyGraph g;
  NodeId a = AddNode(&g, "User", 1);
  Symbol type = g.InternType("T");
  std::vector<RelId> rels;
  for (size_t i = 0; i < 2 * kChunk; ++i) {
    rels.push_back(*g.CreateRel(a, a, type, {}));
  }
  PropertyGraph::JournalMark mark = g.BeginJournal();
  for (size_t i = 0; i < kChunk; ++i) g.DeleteRel(rels[i]);
  g.CommitTo(mark);
  EXPECT_EQ(g.resident_rel_chunks(), 2u);
  EXPECT_EQ(g.TypeName(g.rel(rels[0]).type), "T");
  EXPECT_EQ(g.rel(rels[0]).src, a);
  g.CommitTo(g.BeginJournal());
  EXPECT_EQ(g.resident_rel_chunks(), 1u);
  EXPECT_FALSE(g.IsRelAlive(rels[0]));
  EXPECT_TRUE(g.IsRelAlive(rels[kChunk]));
}

// The same across two statements: the first kills all but one slot of a
// full chunk, the second kills the last. The second statement's deleted
// relationship must keep its type and endpoints past its own commit.
TEST(GraphReclaimTest, ChunkFinishedByAStatementOutlivesIt) {
  PropertyGraph g;
  NodeId a = AddNode(&g, "User", 1);
  NodeId b = AddNode(&g, "User", 2);
  Symbol type = g.InternType("T");
  std::vector<RelId> rels;
  for (size_t i = 0; i < 2 * kChunk; ++i) {
    rels.push_back(*g.CreateRel(a, b, type, {}));
  }
  PropertyGraph::JournalMark mark = g.BeginJournal();
  for (size_t i = 0; i + 1 < kChunk; ++i) g.DeleteRel(rels[i]);
  g.CommitTo(mark);
  mark = g.BeginJournal();
  g.DeleteRel(rels[kChunk - 1]);
  g.CommitTo(mark);
  EXPECT_EQ(g.resident_rel_chunks(), 2u);
  EXPECT_EQ(g.TypeName(g.rel(rels[kChunk - 1]).type), "T");
  EXPECT_EQ(g.rel(rels[kChunk - 1]).src, a);
  EXPECT_EQ(g.rel(rels[kChunk - 1]).tgt, b);
  g.CommitTo(g.BeginJournal());
  EXPECT_EQ(g.resident_rel_chunks(), 1u);
  EXPECT_EQ(g.rel(rels[kChunk - 1]).type, kNoSymbol);
}

}  // namespace
}  // namespace cypher
