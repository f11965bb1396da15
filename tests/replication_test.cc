// Log-shipping replication harness (DESIGN.md §4h). The invariant under
// test everywhere — the follower read-equivalence guarantee: at every
// applied segment boundary, the follower's canonical graph dump must
// byte-match the state produced by replaying exactly that prefix of the
// leader's committed statements. The replay-divergence oracle checks it
// statement by statement; the fault suite checks it through corrupted,
// truncated, duplicated, and dropped segments (CRC/LSN checks + resend);
// the restart case re-bootstraps a fresh follower mid-stream; the
// concurrent suite (run under TSan in CI) races a committing leader, a
// tailing applier, and MVCC read sessions on the follower.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "cypher/database.h"
#include "exec/render.h"
#include "graph/serialize.h"
#include "query_gen.h"
#include "replication/log_shipper.h"
#include "replication/replica.h"
#include "replication/transport.h"
#include "storage/log_file.h"
#include "storage/wal.h"
#include "test_util.h"

namespace cypher {
namespace {

using replication::ControlFrame;
using replication::ControlType;
using replication::FaultyTransport;
using replication::FrameType;
using replication::InProcessTransport;
using replication::Replica;
using replication::SegmentFrame;
using replication::Transport;
using storage::MemoryLogFile;
using testing::BuildRandomGraph;
using testing::GenerateUpdateWorkload;
using testing::RunOk;

constexpr uint64_t kSeed = 41;
constexpr size_t kWorkloadStatements = 24;

// ---- Reference run ---------------------------------------------------------

// The oracle's ground truth: execute the workload statement by statement on
// an identically-seeded durable database and record, at every record
// boundary the leader's log passes through, the canonical dump of the graph
// at that point. Any LSN a correct follower ever reports must be one of
// these boundaries, with exactly that dump.
struct Reference {
  std::vector<std::string> statements;
  std::map<uint64_t, std::string> dump_at;  // boundary lsn -> canonical dump
  std::map<uint64_t, size_t> prefix_at;     // boundary lsn -> statements done
  // lsn_after[i] = durable lsn once statements[0..i) committed. A statement
  // whose redo is empty (its MATCH bound nothing) appends no record, so
  // lsn_after[i+1] == lsn_after[i]; the follower never sees it and its
  // epoch counter does not tick. lsn_after[0] covers the seed snapshot.
  std::vector<uint64_t> lsn_after;
};

Reference BuildReference(uint64_t seed, size_t count,
                         size_t checkpoint_after = SIZE_MAX) {
  Reference ref;
  ref.statements = GenerateUpdateWorkload(seed, count);
  GraphDatabase db;
  EXPECT_TRUE(BuildRandomGraph(&db, seed).ok());
  EXPECT_TRUE(db.OpenDurable(std::make_unique<MemoryLogFile>()).ok());
  auto boundary = [&](size_t prefix) {
    uint64_t lsn = db.wal_writer()->durable_lsn();
    ref.dump_at[lsn] = DumpGraphCanonical(db.graph());
    ref.prefix_at[lsn] = prefix;
    return lsn;
  };
  ref.lsn_after.push_back(boundary(0));
  for (size_t i = 0; i < ref.statements.size(); ++i) {
    EXPECT_TRUE(db.Run(ref.statements[i]).ok()) << ref.statements[i];
    ref.lsn_after.push_back(boundary(i + 1));
    if (i + 1 == checkpoint_after) {
      // An explicit checkpoint appends a snapshot record: a new boundary at
      // the same state, which a tailing follower must step over.
      EXPECT_TRUE(db.Checkpoint().ok());
      boundary(i + 1);
    }
  }
  return ref;
}

// Fails unless the follower currently sits at a known leader boundary with
// exactly that boundary's graph.
void ExpectAtBoundary(const Reference& ref, Replica* replica,
                      const char* when) {
  uint64_t lsn = replica->applied_lsn();
  auto it = ref.dump_at.find(lsn);
  ASSERT_NE(it, ref.dump_at.end())
      << when << ": follower lsn " << lsn
      << " is not a leader statement boundary";
  EXPECT_EQ(replica->CanonicalDump(), it->second)
      << when << ": divergence at lsn " << lsn << " (statement prefix "
      << ref.prefix_at.at(lsn) << ")";
}

// Pump the leader and poll the follower until the follower has applied
// everything the leader appended (bounded, so a protocol bug fails the test
// instead of hanging it).
void CatchUp(GraphDatabase* leader, Replica* replica) {
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(leader->PumpReplication().ok());
    auto applied = replica->PollOnce();
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    if (replica->applied_lsn() == leader->wal_writer()->appended_lsn()) {
      // One more pump delivers the final ack to the leader's cursors.
      ASSERT_TRUE(leader->PumpReplication().ok());
      return;
    }
  }
  FAIL() << "follower never caught up: applied=" << replica->applied_lsn()
         << " leader=" << leader->wal_writer()->appended_lsn();
}

// ---- Frame / segment validation --------------------------------------------

TEST(ReplicationFrames, SegmentDecodeRejectsDamage) {
  std::string segment =
      storage::EncodeWalRecord(storage::WalRecordType::kStatement, "one");
  segment +=
      storage::EncodeWalRecord(storage::WalRecordType::kStatement, "two");

  auto clean = storage::DecodeWalSegment(segment);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->size(), 2u);
  EXPECT_EQ((*clean)[0].payload, "one");

  // A WAL image tolerates a torn tail; a shipped segment must not.
  for (size_t cut = 1; cut < segment.size(); ++cut) {
    if (cut == storage::WalFrameSize(segment)) continue;  // clean boundary
    EXPECT_FALSE(
        storage::DecodeWalSegment(std::string_view(segment).substr(0, cut))
            .ok())
        << "cut=" << cut;
  }
  std::string flipped = segment;
  flipped[flipped.size() / 2] ^= 0x10;
  EXPECT_FALSE(storage::DecodeWalSegment(flipped).ok());
}

TEST(ReplicationFrames, FrameSizeWalksBoundaries) {
  std::string a =
      storage::EncodeWalRecord(storage::WalRecordType::kStatement, "alpha");
  std::string b =
      storage::EncodeWalRecord(storage::WalRecordType::kSnapshot, "beta!");
  std::string both = a + b;
  EXPECT_EQ(storage::WalFrameSize(both), a.size());
  EXPECT_EQ(storage::WalFrameSize(std::string_view(both).substr(a.size())),
            b.size());
  EXPECT_EQ(storage::WalFrameSize(std::string_view(both).substr(0, 3)), 0u);
}

// A segment whose frame and record checksums hold but whose image cannot
// apply is not wire damage: a resend would deliver the same bytes again.
// PollOnce returns the error, applied_lsn stays before the record, and the
// leader sees no resend request.
TEST(ReplicationFrames, UnappliableRecordFailsThePollWithoutResend) {
  GraphDatabase leader;
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());
  auto transport = std::make_shared<InProcessTransport>();
  Replica replica(transport);
  ASSERT_TRUE(leader.AttachFollower(transport).ok());
  CatchUp(&leader, &replica);

  std::string segment = storage::EncodeWalRecord(
      storage::WalRecordType::kStatement, "nodes 1\nrels 0\nnode 0 {v: }\n");
  uint64_t at = replica.applied_lsn();
  SegmentFrame frame;
  frame.from_lsn = at;
  frame.to_lsn = at + segment.size();
  frame.crc = Crc32(segment.data(), segment.size());
  frame.payload = segment;
  for (int attempt = 0; attempt < 2; ++attempt) {
    ASSERT_TRUE(transport->Send(frame).ok());
    auto polled = replica.PollOnce();
    ASSERT_FALSE(polled.ok()) << "attempt " << attempt;
    EXPECT_NE(polled.status().ToString().find("bad node properties"),
              std::string::npos)
        << polled.status().ToString();
    EXPECT_EQ(replica.applied_lsn(), at);
    EXPECT_EQ(replica.statements_applied(), 0u);
    ASSERT_TRUE(leader.PumpReplication().ok());
    auto status = leader.replication_status();
    ASSERT_EQ(status.detail.size(), 1u);
    EXPECT_EQ(status.detail[0].resends, 0u);
  }
}

// ---- Bootstrap + tail ------------------------------------------------------

TEST(ReplicationTest, FollowerBootstrapsAndTails) {
  GraphDatabase leader;
  RunOk(&leader, "CREATE (:User {id: 1, name: 'Ada'})");
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());

  auto transport = std::make_shared<InProcessTransport>();
  Replica replica(transport);
  EXPECT_FALSE(replica.bootstrapped());

  auto id = leader.AttachFollower(transport);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(replica.PollOnce().ok());
  EXPECT_TRUE(replica.bootstrapped());
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));

  RunOk(&leader, "CREATE (:User {id: 2, name: 'Bob'})");
  RunOk(&leader, "MATCH (u:User {id: 1}) SET u.name = 'Ada Lovelace'");
  CatchUp(&leader, &replica);
  EXPECT_EQ(replica.statements_applied(), 2u);
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));

  // The follower serves snapshot-isolated reads at its applied epoch.
  auto session = replica.BeginReadSession();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto rows = session->Execute("MATCH (u:User) RETURN u.name ORDER BY u.name");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(rows->rows[0][0].AsString(), "Ada Lovelace");
  // ...and refuses writes, like any snapshot session.
  EXPECT_FALSE(session->Execute("CREATE (:X)").ok());

  auto status = leader.replication_status();
  EXPECT_EQ(status.followers, 1u);
  EXPECT_EQ(status.min_acked_lsn, status.appended_lsn);
  ASSERT_TRUE(leader.DetachFollower(*id).ok());
  EXPECT_EQ(leader.replication_status().followers, 0u);
}

TEST(ReplicationTest, AttachRequiresDurableLeader) {
  GraphDatabase leader;
  auto transport = std::make_shared<InProcessTransport>();
  EXPECT_FALSE(leader.AttachFollower(transport).ok());
}

// ---- The replay-divergence oracle ------------------------------------------

// Tiny segments force many mid-workload segment boundaries; an explicit
// checkpoint drops a snapshot record into the stream; a mid-stream restart
// throws the first follower away and re-bootstraps a fresh one. At every
// polled boundary the follower must byte-match the reference prefix replay.
TEST(ReplicationTest, DivergenceOracleAtEverySegmentBoundary) {
  const size_t checkpoint_after = kWorkloadStatements / 3;
  Reference ref =
      BuildReference(kSeed, kWorkloadStatements, checkpoint_after);

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());

  ReplicationOptions small_segments{/*segment_bytes=*/128};
  auto transport = std::make_shared<InProcessTransport>();
  auto replica = std::make_unique<Replica>(transport);
  auto id = leader.AttachFollower(transport, small_segments);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(replica->PollOnce().ok());
  ExpectAtBoundary(ref, replica.get(), "after bootstrap");

  const size_t restart_after = kWorkloadStatements / 2;
  for (size_t i = 0; i < ref.statements.size(); ++i) {
    ASSERT_TRUE(leader.Run(ref.statements[i]).ok()) << ref.statements[i];
    if (i + 1 == checkpoint_after) {
      ASSERT_TRUE(leader.Checkpoint().ok());
    }
    // Stagger the tail: poll only every third statement, so segments queue
    // up and the follower crosses several boundaries per poll.
    if (i % 3 == 0) {
      ASSERT_TRUE(replica->PollOnce().ok());
      ExpectAtBoundary(ref, replica.get(), "mid-stream");
      ASSERT_TRUE(leader.PumpReplication().ok());  // deliver the ack
    }
    if (i + 1 == restart_after) {
      // Follower dies mid-stream. A fresh one re-bootstraps from a new
      // snapshot + tail and must land on the current boundary.
      ASSERT_TRUE(leader.DetachFollower(*id).ok());
      replica.reset();
      transport = std::make_shared<InProcessTransport>();
      replica = std::make_unique<Replica>(transport);
      id = leader.AttachFollower(transport, small_segments);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(replica->PollOnce().ok());
      ExpectAtBoundary(ref, replica.get(), "after restart re-bootstrap");
    }
  }
  CatchUp(&leader, replica.get());
  ExpectAtBoundary(ref, replica.get(), "after catch-up");
  EXPECT_EQ(replica->CanonicalDump(), DumpGraphCanonical(leader.graph()));
  EXPECT_EQ(replica->applied_lsn(), leader.wal_writer()->appended_lsn());
}

// ---- Rolled-back slots -------------------------------------------------------

// Each statement that fails here rolls back after creating slots, which
// stay on the leader as tombstones; the next committed CREATE lands past
// them. Its record's capacity lines pad the follower over the gap, so the
// follower catches up without a single resend.
TEST(ReplicationTest, FollowerReplaysPastRolledBackCreates) {
  GraphDatabase leader;
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());
  auto transport = std::make_shared<InProcessTransport>();
  Replica replica(transport);
  ASSERT_TRUE(leader.AttachFollower(transport).ok());
  ASSERT_TRUE(replica.PollOnce().ok());

  const char* statements[] = {
      "CREATE CONSTRAINT ON (u:User) ASSERT u.id IS UNIQUE",
      "CREATE (:User {id: 1})",
      "CREATE (:User {id: 1})",  // violates the constraint
      "CREATE (:User {id: 2})",
      "CREATE (n:B {v: 1}) WITH n RETURN n.v / 0",
      "CREATE (:B {v: 2})",
      "CREATE ()-[:R]->() WITH 1 AS one RETURN 1 / 0",
      "MATCH (u:User {id: 2}) CREATE (u)-[:R {w: 1}]->(:C)",
  };
  size_t committed = 0;
  for (const char* q : statements) committed += leader.Run(q).ok() ? 1 : 0;
  ASSERT_EQ(committed, 5u);
  CatchUp(&leader, &replica);
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));
  EXPECT_EQ(replica.statements_applied(), committed);
  auto status = leader.replication_status();
  ASSERT_EQ(status.detail.size(), 1u);
  EXPECT_EQ(status.detail[0].resends, 0u);
}

// ---- Transport fault injection ---------------------------------------------

class ReplicationFaultTest
    : public ::testing::TestWithParam<FaultyTransport::Fault> {};

// One segment send is damaged (or dropped/duplicated) on the wire. The
// follower must detect it via CRC/LSN checks, never apply a torn record or
// skip an LSN, re-fetch via the resend protocol, and converge to the
// leader's exact state having applied every statement exactly once.
TEST_P(ReplicationFaultTest, DetectedRefetchedAndConverges) {
  Reference ref = BuildReference(kSeed, kWorkloadStatements);

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());

  auto wire = std::make_shared<InProcessTransport>();
  auto faulty = std::make_shared<FaultyTransport>(wire);
  // Send #1 is the bootstrap snapshot; hit a mid-stream segment. (For kDrop
  // this also exercises the gap path: later segments arrive first.)
  faulty->InjectOnSend(4, GetParam());

  Replica replica(faulty);
  auto id = leader.AttachFollower(faulty, ReplicationOptions{128});
  ASSERT_TRUE(id.ok());

  for (size_t i = 0; i < ref.statements.size(); ++i) {
    ASSERT_TRUE(leader.Run(ref.statements[i]).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(replica.PollOnce().ok());
      ExpectAtBoundary(ref, &replica, "mid-stream under faults");
      ASSERT_TRUE(leader.PumpReplication().ok());
    }
  }
  CatchUp(&leader, &replica);
  EXPECT_GT(faulty->sends(), 4u);  // the fault actually fired
  ExpectAtBoundary(ref, &replica, "after fault recovery");
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));
  // Exactly-once: every non-empty-redo statement applied a single time.
  // (The reference counts boundaries, which include no-op commits; compare
  // against the leader's own record count instead.)
  EXPECT_EQ(replica.applied_lsn(), leader.wal_writer()->appended_lsn());
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, ReplicationFaultTest,
    ::testing::Values(FaultyTransport::Fault::kCorrupt,
                      FaultyTransport::Fault::kTruncate,
                      FaultyTransport::Fault::kDuplicate,
                      FaultyTransport::Fault::kDrop,
                      FaultyTransport::Fault::kDelay,
                      FaultyTransport::Fault::kReorder),
    [](const ::testing::TestParamInfo<FaultyTransport::Fault>& info) {
      switch (info.param) {
        case FaultyTransport::Fault::kCorrupt: return "BitFlip";
        case FaultyTransport::Fault::kTruncate: return "Truncated";
        case FaultyTransport::Fault::kDuplicate: return "Duplicated";
        case FaultyTransport::Fault::kDrop: return "Dropped";
        case FaultyTransport::Fault::kDelay: return "Delayed";
        case FaultyTransport::Fault::kReorder: return "Reordered";
      }
      return "Unknown";
    });

// A delayed frame arriving long after its slot — behind frames the follower
// already rejected past — must be skipped as a duplicate once the resend
// stream has moved on, never applied out of order. FlushDelayed simulates
// "the network finally delivers the straggler".
TEST(ReplicationFaultTest, StragglerAfterResendIsIgnored) {
  Reference ref = BuildReference(kSeed, kWorkloadStatements);

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());

  auto wire = std::make_shared<InProcessTransport>();
  auto faulty = std::make_shared<FaultyTransport>(wire);
  faulty->InjectOnSend(3, FaultyTransport::Fault::kDelay);
  faulty->InjectOnSend(5, FaultyTransport::Fault::kReorder);

  Replica replica(faulty);
  ASSERT_TRUE(leader.AttachFollower(faulty, ReplicationOptions{128}).ok());
  for (const std::string& statement : ref.statements) {
    ASSERT_TRUE(leader.Run(statement).ok());
    ASSERT_TRUE(replica.PollOnce().ok());
    ExpectAtBoundary(ref, &replica, "with in-flight stragglers");
    ASSERT_TRUE(leader.PumpReplication().ok());
  }
  // Whatever is still held back arrives now, as stale duplicates.
  ASSERT_TRUE(faulty->FlushDelayed().ok());
  CatchUp(&leader, &replica);
  ExpectAtBoundary(ref, &replica, "after straggler flush");
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));
}

// A partition black-holes both directions mid-workload; commits keep piling
// up on the leader. After Heal, one resend round must reconverge the
// follower to the exact leader state — and the segments lost inside the
// partition must never surface as gaps or duplicates.
TEST(ReplicationFaultTest, PartitionHealsAndReconverges) {
  Reference ref = BuildReference(kSeed, kWorkloadStatements);

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());

  auto wire = std::make_shared<InProcessTransport>();
  auto faulty = std::make_shared<FaultyTransport>(wire);
  Replica replica(faulty);
  ASSERT_TRUE(leader.AttachFollower(faulty, ReplicationOptions{128}).ok());
  ASSERT_TRUE(replica.PollOnce().ok());

  const size_t cut = kWorkloadStatements / 4;
  const size_t heal = (3 * kWorkloadStatements) / 4;
  for (size_t i = 0; i < ref.statements.size(); ++i) {
    if (i == cut) faulty->Partition();
    ASSERT_TRUE(leader.Run(ref.statements[i]).ok());
    ASSERT_TRUE(replica.PollOnce().ok());
    ExpectAtBoundary(ref, &replica, "around the partition");
    if (i < cut) {
      // Before the cut the pipe keeps up statement by statement.
      ASSERT_TRUE(leader.PumpReplication().ok());
    } else if (i == heal) {
      // Inside the partition the follower froze at its pre-cut boundary.
      // Heal, then force the follower to notice the gap: the next shipped
      // segment starts past its applied LSN, triggering a resend.
      EXPECT_LE(replica.applied_lsn(), ref.lsn_after[cut]);
      faulty->Heal();
    }
  }
  CatchUp(&leader, &replica);
  ExpectAtBoundary(ref, &replica, "after heal");
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));
  EXPECT_EQ(replica.applied_lsn(), leader.wal_writer()->appended_lsn());
}

// A duplicated statement must not double-apply: count statement records on
// the leader's log and require exactly that many applies on the follower.
TEST(ReplicationFaultTest, DuplicateNeverDoubleApplies) {
  GraphDatabase leader;
  RunOk(&leader, "CREATE (:C {n: 0})");
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());

  auto wire = std::make_shared<InProcessTransport>();
  auto faulty = std::make_shared<FaultyTransport>(wire);
  Replica replica(faulty);
  ASSERT_TRUE(leader.AttachFollower(faulty, ReplicationOptions{1}).ok());
  // Segment size 1 byte -> one record per segment; duplicate each of the
  // next three segment sends (send #1 was the bootstrap).
  faulty->InjectOnSend(2, FaultyTransport::Fault::kDuplicate);
  faulty->InjectOnSend(3, FaultyTransport::Fault::kDuplicate);
  faulty->InjectOnSend(4, FaultyTransport::Fault::kDuplicate);

  for (int i = 0; i < 3; ++i) {
    RunOk(&leader, "MATCH (c:C) SET c.n = c.n + 1");
  }
  CatchUp(&leader, &replica);
  EXPECT_EQ(replica.statements_applied(), 3u);
  auto session = replica.BeginReadSession();
  ASSERT_TRUE(session.ok());
  auto n = session->Execute("MATCH (c:C) RETURN c.n");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(testing::Scalar(*n).AsInt(), 3);
}

// ---- Compaction / retention ------------------------------------------------

// A lagging follower's retention pin must hold the WAL open past the
// auto-checkpoint threshold (the follower can still catch up afterwards),
// and detaching must release it (the next commit compacts, size drops).
TEST(ReplicationRetentionTest, AutoCheckpointHeldByFollowerReleasedOnDetach) {
  const size_t kStatements = 4 * kWorkloadStatements;
  const std::vector<std::string> workload =
      GenerateUpdateWorkload(kSeed, kStatements);
  DurabilityOptions durability;
  durability.sync_mode = DurabilityOptions::SyncMode::kEveryCommit;
  // Compact as soon as the 2x hysteresis allows (log doubled since the
  // last checkpoint). The pin, not the threshold, is under test.
  durability.auto_checkpoint_bytes = 1;

  // Control run, no follower: the same workload must trip at least one
  // auto-checkpoint (a commit that *shrinks* the log), or the held/released
  // assertions below would be vacuous.
  {
    GraphDatabase control;
    ASSERT_TRUE(BuildRandomGraph(&control, kSeed).ok());
    ASSERT_TRUE(
        control.OpenDurable(std::make_unique<MemoryLogFile>(), durability)
            .ok());
    uint64_t prev = control.wal_writer()->LogBytes();
    bool compacted = false;
    for (const std::string& statement : workload) {
      ASSERT_TRUE(control.Run(statement).ok());
      uint64_t now = control.wal_writer()->LogBytes();
      if (now < prev) compacted = true;
      prev = now;
    }
    ASSERT_TRUE(compacted)
        << "workload too small to trip the auto-checkpoint; the retention "
           "assertions below would test nothing";
  }

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(
      leader.OpenDurable(std::make_unique<MemoryLogFile>(), durability).ok());

  auto transport = std::make_shared<InProcessTransport>();
  Replica replica(transport);
  auto id = leader.AttachFollower(transport);
  ASSERT_TRUE(id.ok());

  // The follower never polls while the workload runs: its pin stays at the
  // attach LSN, so compaction must keep its hands off every later byte —
  // the log only ever grows, however far past the threshold.
  uint64_t prev = leader.wal_writer()->LogBytes();
  for (const std::string& statement : workload) {
    ASSERT_TRUE(leader.Run(statement).ok());
    uint64_t now = leader.wal_writer()->LogBytes();
    ASSERT_GE(now, prev)
        << "auto-checkpoint compacted bytes a lagging follower still needs";
    prev = now;
  }
  uint64_t held_bytes = leader.wal_writer()->LogBytes();

  // Retention held the segments: the follower still catches up completely.
  CatchUp(&leader, &replica);
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));

  // Caught up but still attached: a record-bearing commit appends before
  // the follower can ack it, so at checkpoint time the pin is behind the
  // head again and compaction stays deferred. (A statement with an empty
  // redo appends nothing — a fully-acked pin then covers the whole log and
  // compaction MAY legitimately fire; hence the guaranteed-effective
  // statement here.)
  ASSERT_TRUE(leader.Run("CREATE (:Pinned {held: 1})").ok());
  EXPECT_GE(leader.wal_writer()->LogBytes(), held_bytes);

  // Detach releases the pin; the next commit compacts and the size drops
  // even though the commit itself appended bytes.
  uint64_t before_detach = leader.wal_writer()->LogBytes();
  ASSERT_TRUE(leader.DetachFollower(*id).ok());
  ASSERT_TRUE(leader.Run("CREATE (:Pinned {held: 2})").ok());
  EXPECT_LT(leader.wal_writer()->LogBytes(), before_detach)
      << "detach did not release retention";
}

// The staleness cap bounds how long a dead follower may pin the log: once
// its unacked backlog exceeds max_retained_bytes the shipper detaches it,
// releases the pin, and counts a warning. A fresh attach afterwards
// re-bootstraps from a snapshot and converges — nothing was lost, only the
// cheap resume path.
TEST(ReplicationTest, StalenessCapDetachesDeadFollower) {
  const std::vector<std::string> workload =
      GenerateUpdateWorkload(kSeed, 2 * kWorkloadStatements);
  DurabilityOptions durability;
  durability.sync_mode = DurabilityOptions::SyncMode::kEveryCommit;
  durability.auto_checkpoint_bytes = 1;

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(
      leader.OpenDurable(std::make_unique<MemoryLogFile>(), durability).ok());

  // A follower that attaches and then never polls again — a crashed process
  // whose socket the leader has not noticed dying.
  auto dead_wire = std::make_shared<InProcessTransport>();
  Replica dead(dead_wire);
  ReplicationOptions caps;
  caps.segment_bytes = 128;
  caps.max_retained_bytes = 512;
  ASSERT_TRUE(leader.AttachFollower(dead_wire, caps).ok());
  uint64_t attach_durable = leader.wal_writer()->durable_lsn();

  for (const std::string& statement : workload) {
    ASSERT_TRUE(leader.Run(statement).ok());
  }
  ASSERT_GT(leader.wal_writer()->durable_lsn() - attach_durable,
            caps.max_retained_bytes)
      << "workload appended too little redo to exceed the staleness cap; "
         "the detach assertions below would test nothing";
  ReplicationStatus status = leader.replication_status();
  EXPECT_EQ(status.followers, 0u) << "stale follower still attached";
  EXPECT_GE(status.stale_detaches, 1u);
  EXPECT_FALSE(status.last_stale_warning.empty());

  // The pin is gone: the next commit may compact. More importantly a new
  // follower attaches fine even though the dead one's position has been
  // compacted out from under it.
  auto wire = std::make_shared<InProcessTransport>();
  Replica replica(wire);
  ASSERT_TRUE(leader.AttachFollower(wire, caps).ok());
  CatchUp(&leader, &replica);
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));
  EXPECT_GE(replica.bootstraps(), 1u);
}

// AttachFollowerAt resumes a follower that already holds the prefix in its
// own durable log: a valid position tails without a second snapshot; a
// position compaction has passed is refused (the follower must come back
// through the bootstrap path); a position past the log is nonsense.
TEST(ReplicationTest, AttachFollowerAtResumesOrRefuses) {
  const std::vector<std::string> workload =
      GenerateUpdateWorkload(kSeed, 2 * kWorkloadStatements);
  DurabilityOptions durability;
  durability.sync_mode = DurabilityOptions::SyncMode::kEveryCommit;
  durability.auto_checkpoint_bytes = 1;

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(
      leader.OpenDurable(std::make_unique<MemoryLogFile>(), durability).ok());

  // A durable follower bootstraps and catches up the first half.
  auto wire = std::make_shared<InProcessTransport>();
  replication::ReplicaDurability files;
  files.wal = std::make_unique<MemoryLogFile>();
  files.meta = std::make_unique<MemoryLogFile>();
  auto replica_or = Replica::Open(wire, std::move(files));
  ASSERT_TRUE(replica_or.ok());
  Replica* replica = replica_or->get();
  auto id = leader.AttachFollower(wire);
  ASSERT_TRUE(id.ok());
  for (size_t i = 0; i < workload.size() / 2; ++i) {
    ASSERT_TRUE(leader.Run(workload[i]).ok());
  }
  CatchUp(&leader, replica);
  ASSERT_TRUE(leader.DetachFollower(*id).ok());
  uint64_t resume_lsn = replica->applied_lsn();

  // Off the end of the log is never a resume point.
  EXPECT_FALSE(
      leader.AttachFollowerAt(wire, leader.wal_writer()->appended_lsn() + 1)
          .ok());

  // The detached stretch commits more; the pin is gone, so retention is
  // whatever the auto-checkpoint leaves. Whether the resume position is
  // still servable depends on the resume floor (the last rewrite point, not
  // base_lsn: a rewrite destroys record boundaries below it).
  size_t i = workload.size() / 2;
  for (; i < workload.size(); ++i) {
    ASSERT_TRUE(leader.Run(workload[i]).ok());
  }
  if (leader.wal_writer()->min_resume_lsn() <= resume_lsn) {
    // Resume is still servable: re-attach mid-log, no second bootstrap.
    ASSERT_TRUE(leader.AttachFollowerAt(wire, resume_lsn).ok());
    CatchUp(&leader, replica);
    EXPECT_EQ(replica->CanonicalDump(), DumpGraphCanonical(leader.graph()));
    EXPECT_EQ(replica->bootstraps(), 1u)
        << "a resumable position must not re-bootstrap";
  } else {
    // Compaction passed the follower while it was away: resume is refused
    // with marching orders, and the bootstrap path still works.
    auto refused = leader.AttachFollowerAt(wire, resume_lsn);
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.status().ToString().find("re-bootstrap"),
              std::string::npos)
        << refused.status().ToString();
    ASSERT_TRUE(leader.AttachFollower(wire).ok());
    CatchUp(&leader, replica);
    EXPECT_EQ(replica->CanonicalDump(), DumpGraphCanonical(leader.graph()));
    EXPECT_EQ(replica->bootstraps(), 2u);
  }
}

// ---- Concurrent leader / follower / readers (TSan) -------------------------

// A writer thread commits the workload under group commit while an applier
// thread tails and a reader thread opens MVCC sessions on the follower.
// Every sampled (epoch, rendered-read) pair must byte-match the same read
// against a sequential replay of exactly that statement prefix — the
// prefix-equivalence guarantee, now across the wire. Runs under TSan in CI.
TEST(ReplicationTest, ConcurrentWriterFollowerReaderOracle) {
  Reference ref = BuildReference(kSeed, kWorkloadStatements);

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  DurabilityOptions durability;
  durability.sync_mode = DurabilityOptions::SyncMode::kGroupCommit;
  ASSERT_TRUE(
      leader.OpenDurable(std::make_unique<MemoryLogFile>(), durability).ok());

  auto transport = std::make_shared<InProcessTransport>();
  Replica replica(transport);
  ASSERT_TRUE(leader.AttachFollower(transport, ReplicationOptions{256}).ok());

  // Scalar projections only: rendered bytes must not depend on interner
  // order, which a snapshot round-trip need not preserve. ORDER BY makes
  // the row order a function of state alone (ties are identical rows).
  const char* kProbe =
      "MATCH (a)-[r:R]->(b) RETURN a.id, r.c, b.id ORDER BY a.id, r.c, b.id";
  std::atomic<bool> writer_done{false};
  std::atomic<bool> applier_done{false};
  std::atomic<uint64_t> target_lsn{0};

  // Worker threads record failures and bail instead of ASSERTing: an assert
  // that leaves writer_done/applier_done unset would hang the other loops.
  std::string writer_error, applier_error, reader_error;

  std::thread writer([&] {
    for (const std::string& statement : ref.statements) {
      auto r = leader.Execute(statement);
      if (!r.ok()) {
        writer_error = statement + "\n  -> " + r.status().ToString();
        break;
      }
    }
    target_lsn.store(leader.wal_writer()->appended_lsn());
    writer_done.store(true);
  });

  // Applier: tail until everything the writer ever appends is applied.
  std::vector<std::pair<uint64_t, std::string>> boundaries;  // lsn, dump
  std::thread applier([&] {
    while (true) {
      (void)leader.PumpReplication();
      auto applied = replica.PollOnce();
      if (!applied.ok()) {
        applier_error = applied.status().ToString();
        break;
      }
      if (*applied > 0) {
        boundaries.emplace_back(replica.applied_lsn(), replica.CanonicalDump());
      }
      if (writer_done.load() && replica.applied_lsn() == target_lsn.load()) {
        break;
      }
      std::this_thread::yield();
    }
    applier_done.store(true);
  });

  // Reader: snapshot sessions on the follower, racing the applier.
  std::vector<std::pair<uint64_t, std::string>> samples;  // epoch, rendered
  std::thread reader([&] {
    while (!applier_done.load()) {
      if (!replica.bootstrapped()) {
        std::this_thread::yield();
        continue;
      }
      auto session = replica.BeginReadSession();
      if (!session.ok()) {
        reader_error = session.status().ToString();
        return;
      }
      uint64_t epoch = session->epoch();
      auto rendered = session->ExecuteRendered(kProbe);
      if (!rendered.ok()) {
        reader_error = rendered.status().ToString();
        return;
      }
      samples.emplace_back(epoch, *std::move(rendered));
      std::this_thread::yield();
    }
  });

  writer.join();
  applier.join();
  reader.join();
  ASSERT_EQ(writer_error, "");
  ASSERT_EQ(applier_error, "");
  ASSERT_EQ(reader_error, "");

  // Every applier-observed boundary is a committed leader prefix.
  EXPECT_FALSE(boundaries.empty());
  for (const auto& [lsn, dump] : boundaries) {
    auto it = ref.dump_at.find(lsn);
    ASSERT_NE(it, ref.dump_at.end()) << "not a boundary: lsn " << lsn;
    EXPECT_EQ(dump, it->second) << "divergence at lsn " << lsn;
  }
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));

  // Every reader sample equals the probe against the matching sequential
  // prefix replay. The follower publishes one epoch per applied *record*,
  // and a statement whose redo was empty appends none — so epoch e means
  // "the first e record-bearing statements", which the reference's
  // lsn_after deltas identify.
  std::map<uint64_t, std::string> expected_render;
  {
    GraphDatabase prefix_db;
    ASSERT_TRUE(BuildRandomGraph(&prefix_db, kSeed).ok());
    uint64_t records = 0;
    auto render = [&]() {
      auto result = prefix_db.Execute(kProbe);
      EXPECT_TRUE(result.ok());
      return RenderResult(prefix_db.graph(), *result);
    };
    expected_render[records] = render();
    for (size_t i = 0; i < ref.statements.size(); ++i) {
      ASSERT_TRUE(prefix_db.Run(ref.statements[i]).ok());
      if (ref.lsn_after[i + 1] != ref.lsn_after[i]) {
        expected_render[++records] = render();
      }
    }
  }
  for (const auto& [epoch, rendered] : samples) {
    auto it = expected_render.find(epoch);
    ASSERT_NE(it, expected_render.end()) << "epoch " << epoch;
    EXPECT_EQ(rendered, it->second)
        << "pinned read at follower epoch " << epoch
        << " diverged from the statement-prefix replay";
  }
}

}  // namespace
}  // namespace cypher
