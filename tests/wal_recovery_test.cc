// Crash-recovery harness for the write-ahead log: framing unit tests, a
// byte-granular kill-replay-verify sweep over randomized update workloads,
// fault-injected writers (torn and clean failures at byte and call budgets),
// checkpointing, group commit under concurrent sessions, and the Posix
// round trip. The invariant under test everywhere: recovery yields exactly
// the graph produced by the committed prefix of statements — never a
// half-applied statement, never a lost committed one.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query_gen.h"
#include "storage/log_file.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "test_util.h"

namespace cypher {
namespace {

using storage::DecodeWal;
using storage::EncodeWalRecord;
using storage::FaultyLogFile;
using storage::MemoryLogFile;
using storage::RecoverGraph;
using storage::WalRecordType;
using testing::BuildRandomGraph;
using testing::GenerateUpdateWorkload;

constexpr int kWorkloadStatements = 24;

std::string Magic() {
  return std::string(storage::kWalMagic, storage::kWalMagicSize);
}

// ---- Framing --------------------------------------------------------------

TEST(WalFormat, EncodeDecodeRoundTrip) {
  std::string log = Magic();
  log += EncodeWalRecord(WalRecordType::kSnapshot, "snapshot-payload");
  log += EncodeWalRecord(WalRecordType::kStatement, "");
  log += EncodeWalRecord(WalRecordType::kStatement, std::string(5000, 'x'));
  auto decoded = DecodeWal(log);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->records.size(), 3u);
  EXPECT_EQ(decoded->records[0].type, WalRecordType::kSnapshot);
  EXPECT_EQ(decoded->records[0].payload, "snapshot-payload");
  EXPECT_EQ(decoded->records[1].payload, "");
  EXPECT_EQ(decoded->records[2].payload, std::string(5000, 'x'));
  EXPECT_EQ(decoded->valid_bytes, log.size());
  EXPECT_FALSE(decoded->torn_tail);
}

TEST(WalFormat, BadMagicIsAnError) {
  EXPECT_FALSE(DecodeWal("").ok());
  EXPECT_FALSE(DecodeWal("CYWAL").ok());          // short
  EXPECT_FALSE(DecodeWal("NOTAWAL0rest").ok());   // wrong
}

TEST(WalFormat, EveryTruncationIsATornTailNotAnError) {
  std::string log = Magic();
  log += EncodeWalRecord(WalRecordType::kSnapshot, "first");
  uint64_t first_end = log.size();
  log += EncodeWalRecord(WalRecordType::kStatement, "second-payload");
  // Chop the second record at every byte past the clean boundary: always
  // torn, never an error, and the valid prefix ends at the first record.
  for (size_t cut = first_end + 1; cut < log.size(); ++cut) {
    auto decoded = DecodeWal(std::string_view(log).substr(0, cut));
    ASSERT_TRUE(decoded.ok()) << "cut=" << cut;
    ASSERT_EQ(decoded->records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(decoded->valid_bytes, first_end) << "cut=" << cut;
    EXPECT_TRUE(decoded->torn_tail) << "cut=" << cut;
  }
}

TEST(WalFormat, CorruptByteStopsTheScan) {
  std::string log = Magic();
  log += EncodeWalRecord(WalRecordType::kSnapshot, "first");
  uint64_t first_end = log.size();
  log += EncodeWalRecord(WalRecordType::kStatement, "second-payload");
  log += EncodeWalRecord(WalRecordType::kStatement, "third");
  // Flip one payload byte of the middle record: it and everything after it
  // are dropped; the clean first record survives.
  std::string corrupt = log;
  corrupt[first_end + storage::kWalFrameHeaderSize + 3] ^= 0x40;
  auto decoded = DecodeWal(corrupt);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->records.size(), 1u);
  EXPECT_EQ(decoded->valid_bytes, first_end);
  EXPECT_TRUE(decoded->torn_tail);
}

TEST(WalFormat, UnknownRecordTypeStopsTheScan) {
  std::string log = Magic();
  log += EncodeWalRecord(WalRecordType::kStatement, "good");
  uint64_t good_end = log.size();
  log += EncodeWalRecord(static_cast<WalRecordType>(99), "future");
  auto decoded = DecodeWal(log);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->records.size(), 1u);
  EXPECT_EQ(decoded->valid_bytes, good_end);
  EXPECT_TRUE(decoded->torn_tail);
}

// A log of another format version is refused by its magic, before any
// record is read — never with a line error from the wrong grammar.
TEST(WalFormat, OtherFormatVersionIsRefusedByName) {
  std::string log = "CYWAL001";
  log += EncodeWalRecord(WalRecordType::kSnapshot, "nodes 0\nrels 0\n");
  log += EncodeWalRecord(WalRecordType::kStatement, "node+ 0 {}\n");
  auto recovered = RecoverGraph(log);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().ToString().find("format CYWAL001"),
            std::string::npos)
      << recovered.status().ToString();
  GraphDatabase db;
  auto mem = std::make_unique<MemoryLogFile>();
  ASSERT_TRUE(mem->Append(log.data(), log.size()).ok());
  Status open = db.OpenDurable(std::move(mem));
  EXPECT_NE(open.ToString().find("CYWAL001"), std::string::npos)
      << open.ToString();
}

// ---- Image applier ----------------------------------------------------------

// Three nodes (slot 2 a tombstone) and one relationship.
constexpr char kBaseImage[] =
    "nodes 3\nrels 1\nnode 0:A {}\nnode 1 {}\nrel 0 0 1 :R {}\n";

TEST(ImageApplier, RefusesEveryMalformedLineByName) {
  struct Case {
    const char* image;
    const char* error;
  };
  const Case cases[] = {
      {"", "image without header"},
      {"node 0 {}", "missing image header"},
      {"nodes x", "malformed nodes header"},
      {"rels 1", "malformed rels header"},
      {"nodes 3\nrels x", "malformed rels header"},
      {"nodes 4\nrels 1\nnode 4 {}", "bad node slot"},  // past capacity
      {"nodes 3\nrels 1\nnode 2 {}", "bad node slot"},  // a tombstone
      {"nodes 3\nrels 1\nnode x {}", "bad node slot"},
      {"nodes 3\nrels 1\nnode 0 {v: }", "bad node properties"},
      {"nodes 3\nrels 2\nrel 2 0 1 :R {}", "bad rel line"},  // past capacity
      {"nodes 3\nrels 2\nrel 1 0 1 R {}", "bad rel line"},
      {"nodes 3\nrels 2\nrel 1 0 1 :R {w", "bad rel properties"},
      {"nodes 3\nrels 2\nrel 1 0 2 :R {}", "rel references dead slot"},
      {"nodes 3\nrels 1\nrel 0 1 0 :R {}", "rel line disagrees with its slot"},
      {"nodes 3\nrels 1\nrel 0 0 1 :S {}", "rel line disagrees with its slot"},
      {"nodes 3\nrels 1\ndead N 3", "dead line names no existing slot"},
      {"nodes 3\nrels 1\ndead R 1", "dead line names no existing slot"},
      {"nodes 3\nrels 1\ndead X 0", "dead line names no existing slot"},
      {"nodes 3\nrels 1\nindex+ A k", "bad ddl line"},
      {"nodes 3\nrels 1\nuniq- :A", "bad ddl key"},
      {"nodes 3\nrels 1\nnode+ 3 {}", "unknown image line"},
      {"nodes 3\nrels 1\nprops N 0 {}", "unknown image line"},
  };
  for (const Case& c : cases) {
    auto graph = storage::DecodeSnapshot(kBaseImage);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    Status st = storage::ApplyImage(&*graph, c.image);
    EXPECT_FALSE(st.ok()) << c.image;
    EXPECT_NE(st.ToString().find(c.error), std::string::npos)
        << c.image << " -> " << st.ToString();
  }
}

TEST(ImageApplier, RefusesAConstraintTheDataViolates) {
  auto graph = storage::DecodeSnapshot(
      "nodes 2\nrels 0\nnode 0:U {id: 1}\nnode 1:U {id: 1}\n");
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(storage::ApplyImage(&*graph, "nodes 2\nrels 0\nuniq+ :U id\n")
                   .ok());
}

// Existing slots are overwritten from the image, new ones created past the
// capacity, dead ones killed — and applying the same image twice changes
// nothing more.
TEST(ImageApplier, OverwritesSlotsIdempotently) {
  auto graph = storage::DecodeSnapshot(
      "nodes 3\nrels 2\nnode 0:A:B {x: 1}\nnode 1 {}\nnode 2 {}\n"
      "rel 0 0 1 :R {w: 1}\nrel 1 1 2 :R\nindex+ :B x\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const std::string image =
      "nodes 5\nrels 3\nnode 0:B:C {y: 2}\nnode 4:D\n"
      "rel 0 0 1 :R {w: 2}\ndead R 1\ndead N 2\nindex+ :C y\nindex- :B x\n";
  for (int round = 0; round < 2; ++round) {
    Status st = storage::ApplyImage(&*graph, image);
    ASSERT_TRUE(st.ok()) << "round " << round << ": " << st.ToString();
    EXPECT_EQ(DumpGraphCanonical(*graph),
              "node 0 :B :C {y: 2}\nnode 1 {}\nnode 2 :D {}\n"
              "rel 0 0 1 :R {w: 2}\n");
    EXPECT_EQ(graph->node_capacity(), 5u);
    EXPECT_EQ(graph->rel_capacity(), 3u);
    EXPECT_EQ(graph->LabelCount(graph->FindLabel("A")), 0u);
    EXPECT_EQ(graph->LabelCount(graph->FindLabel("B")), 1u);
    EXPECT_TRUE(graph->HasIndex(graph->FindLabel("C"), graph->FindKey("y")));
    EXPECT_FALSE(
        graph->HasIndex(graph->FindLabel("B"), graph->FindKey("x")));
  }
}

// Replay replaces the whole property map of every node a record names, and
// a replayed graph never compacts its indexes (nothing commits a journal
// there). An unchanged indexed value must therefore not be indexed again.
TEST(ImageApplier, ReplayDoesNotGrowIndexesOnUnchangedValues) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE INDEX ON :W(id)").ok());
  ASSERT_TRUE(db.Run("CREATE (:W {id: 1, v: 0})").ok());
  auto mem = std::make_unique<MemoryLogFile>();
  MemoryLogFile* raw = mem.get();
  ASSERT_TRUE(db.OpenDurable(std::move(mem)).ok());
  for (int i = 1; i <= 50; ++i) {
    ASSERT_TRUE(
        db.Run("MATCH (n:W {id: 1}) SET n.v = " + std::to_string(i)).ok());
  }
  auto recovered = RecoverGraph(raw->bytes());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const PropertyGraph& graph = recovered->graph;
  EXPECT_EQ(graph.IndexEntryCount(graph.FindLabel("W"), graph.FindKey("id")),
            1u);
}

// ---- Workload harness -----------------------------------------------------

// One commit boundary of the reference run: the log length after a
// statement committed and the canonical graph image at that point.
struct Boundary {
  uint64_t bytes;
  std::string dump;
};

struct ReferenceRun {
  std::vector<std::string> statements;
  std::vector<Boundary> boundaries;  // [0] = right after OpenDurable
  std::string log;                   // full fault-free log image
};

// Runs the seeded workload against a fault-free in-memory log, recording the
// log length and graph image at every commit boundary.
ReferenceRun RecordReference(uint64_t seed) {
  ReferenceRun run;
  GraphDatabase db;
  EXPECT_TRUE(BuildRandomGraph(&db, seed).ok());
  auto mem = std::make_unique<MemoryLogFile>();
  MemoryLogFile* raw = mem.get();
  EXPECT_TRUE(db.OpenDurable(std::move(mem)).ok());
  run.boundaries.push_back({raw->size(), DumpGraphCanonical(db.graph())});
  for (std::string& q : GenerateUpdateWorkload(seed, kWorkloadStatements)) {
    auto result = db.Execute(q);
    EXPECT_TRUE(result.ok()) << q << "\n  -> " << result.status().ToString();
    run.statements.push_back(std::move(q));
    run.boundaries.push_back({raw->size(), DumpGraphCanonical(db.graph())});
  }
  run.log = raw->bytes();
  return run;
}

// ---- Kill-replay-verify ---------------------------------------------------

// The core durability property: for EVERY byte-length prefix of the log
// (every possible crash point from the first commit onward), recovery yields
// exactly the graph of the last committed statement before the cut.
TEST(WalRecovery, EveryBytePrefixRecoversTheCommittedPrefix) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ReferenceRun run = RecordReference(seed);
    size_t b = 0;
    for (uint64_t cut = run.boundaries.front().bytes; cut <= run.log.size();
         ++cut) {
      while (b + 1 < run.boundaries.size() &&
             run.boundaries[b + 1].bytes <= cut) {
        ++b;
      }
      auto recovered = RecoverGraph(std::string_view(run.log).substr(0, cut));
      ASSERT_TRUE(recovered.ok())
          << "seed=" << seed << " cut=" << cut << ": "
          << recovered.status().ToString();
      ASSERT_EQ(recovered->valid_bytes, run.boundaries[b].bytes)
          << "seed=" << seed << " cut=" << cut;
      ASSERT_EQ(DumpGraphCanonical(recovered->graph), run.boundaries[b].dump)
          << "seed=" << seed << " cut=" << cut
          << ": recovered graph is not the committed prefix";
    }
  }
}

// A crash before the initial snapshot finished writing leaves only the
// magic (or less) valid: recovery degrades to an empty graph, never fails.
TEST(WalRecovery, CrashInsideInitialSnapshotRecoversEmpty) {
  ReferenceRun run = RecordReference(4);
  uint64_t magic = storage::kWalMagicSize;
  for (uint64_t cut : {magic, magic + 1, run.boundaries.front().bytes - 1}) {
    auto recovered = RecoverGraph(std::string_view(run.log).substr(0, cut));
    ASSERT_TRUE(recovered.ok()) << "cut=" << cut;
    EXPECT_EQ(recovered->valid_bytes, magic);
    // A cut exactly at the magic is a clean (just-initialized) log; any
    // byte beyond it without a whole record is a torn tail.
    EXPECT_EQ(recovered->torn_tail, cut > magic) << "cut=" << cut;
    EXPECT_EQ(recovered->graph.num_nodes(), 0u);
    EXPECT_EQ(recovered->graph.num_rels(), 0u);
  }
}

// Corrupting any statement record (bit rot rather than a clean tear) must
// truncate recovery to the boundary before it.
TEST(WalRecovery, CorruptStatementRecordTruncatesToPriorBoundary) {
  ReferenceRun run = RecordReference(5);
  for (size_t i = 0; i + 1 < run.boundaries.size(); ++i) {
    uint64_t begin = run.boundaries[i].bytes;
    uint64_t end = run.boundaries[i + 1].bytes;
    if (begin == end) continue;  // no-op statement, no record written
    std::string corrupt = run.log;
    corrupt[begin + storage::kWalFrameHeaderSize] ^= 0x01;
    auto recovered = RecoverGraph(corrupt);
    ASSERT_TRUE(recovered.ok()) << "record " << i;
    EXPECT_EQ(recovered->valid_bytes, begin) << "record " << i;
    EXPECT_TRUE(recovered->torn_tail) << "record " << i;
    EXPECT_EQ(DumpGraphCanonical(recovered->graph), run.boundaries[i].dump)
        << "record " << i;
  }
}

// ---- Fault-injected writers -----------------------------------------------

// Non-owning LogFile view: OpenDurable destroys the file it was handed when
// recovery fails, but the crash tests must autopsy the "disk" afterwards —
// so the disk lives in the test frame and the database gets a borrower.
class BorrowedLogFile : public storage::LogFile {
 public:
  explicit BorrowedLogFile(storage::LogFile* base) : base_(base) {}
  Status Append(const void* data, size_t size) override {
    return base_->Append(data, size);
  }
  Status Sync() override { return base_->Sync(); }
  Status Truncate(uint64_t new_size) override {
    return base_->Truncate(new_size);
  }
  Result<std::string> ReadAll() override { return base_->ReadAll(); }
  uint64_t size() const override { return base_->size(); }

 private:
  storage::LogFile* base_;
};

// Replays the reference workload against a fault-injecting log that dies at
// a byte or call budget, then verifies (a) every statement after the fault
// is refused and rolled back, and (b) recovery from the surviving bytes
// equals the last successfully committed statement's graph.
void RunFaultedWorkload(const ReferenceRun& run, uint64_t seed,
                        FaultyLogFile* faulty) {
  GraphDatabase db;
  ASSERT_TRUE(BuildRandomGraph(&db, seed).ok());
  Status open = db.OpenDurable(std::make_unique<BorrowedLogFile>(faulty));
  size_t committed = 0;
  if (open.ok()) {
    for (const std::string& q : run.statements) {
      auto result = db.Execute(q);
      if (result.ok()) {
        ++committed;
        continue;
      }
      // Every log-fault failure surfaces as kAborted and is sticky: the
      // very next statement must be refused without touching the graph.
      ASSERT_EQ(result.status().code(), StatusCode::kAborted)
          << result.status().ToString();
      EXPECT_FALSE(db.wal_error().ok());
      break;
    }
    // Rollback check: the live graph is exactly the committed prefix.
    EXPECT_EQ(DumpGraphCanonical(db.graph()), run.boundaries[committed].dump)
        << "in-memory graph diverged from the committed prefix";
  }
  // Crash now: recover whatever the dying "disk" kept.
  auto survived = faulty->base()->ReadAll();
  ASSERT_TRUE(survived.ok());
  if (survived->size() < storage::kWalMagicSize) return;  // died pre-magic
  auto recovered = RecoverGraph(*survived);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::string dump = DumpGraphCanonical(recovered->graph);
  if (open.ok()) {
    EXPECT_EQ(dump, run.boundaries[committed].dump)
        << "recovery after injected fault lost or invented a statement";
  } else {
    // Nothing was ever acknowledged: a clean empty log or the fully
    // written initial snapshot are the only legal survivors.
    EXPECT_TRUE(dump == run.boundaries.front().dump ||
                dump == DumpGraphCanonical(PropertyGraph()))
        << "partial open left a corrupt but decodable log";
  }
}

TEST(WalRecovery, WriterDiesAtByteBudgets) {
  const uint64_t seed = 6;
  ReferenceRun run = RecordReference(seed);
  // Budgets: a prime-stride sweep over the whole log plus every commit
  // boundary and its neighbours (the interesting alignments).
  std::vector<uint64_t> budgets;
  for (uint64_t b = storage::kWalMagicSize; b <= run.log.size() + 8; b += 61) {
    budgets.push_back(b);
  }
  for (const Boundary& boundary : run.boundaries) {
    budgets.push_back(boundary.bytes);
    budgets.push_back(boundary.bytes + 1);
    if (boundary.bytes > 0) budgets.push_back(boundary.bytes - 1);
  }
  for (bool torn : {false, true}) {
    for (uint64_t budget : budgets) {
      MemoryLogFile disk;
      FaultyLogFile faulty(std::make_unique<BorrowedLogFile>(&disk));
      faulty.FailAfterBytes(budget, torn);
      SCOPED_TRACE("budget=" + std::to_string(budget) +
                   (torn ? " torn" : " clean"));
      RunFaultedWorkload(run, seed, &faulty);
    }
  }
}

TEST(WalRecovery, WriterDiesAtCallBudgets) {
  const uint64_t seed = 7;
  ReferenceRun run = RecordReference(seed);
  // Every statement costs a handful of Append/Sync calls; sweeping call
  // budgets one by one hits every interleaving point, including the initial
  // magic/snapshot writes and both halves of each commit's flush+fsync.
  for (uint64_t calls = 1; calls <= 3 * kWorkloadStatements; ++calls) {
    MemoryLogFile disk;
    FaultyLogFile faulty(std::make_unique<BorrowedLogFile>(&disk));
    faulty.FailAfterCalls(calls);
    SCOPED_TRACE("calls=" + std::to_string(calls));
    RunFaultedWorkload(run, seed, &faulty);
  }
}

// ---- Checkpoint -----------------------------------------------------------

TEST(WalRecovery, CheckpointRebasesRecovery) {
  const uint64_t seed = 8;
  GraphDatabase db;
  ASSERT_TRUE(BuildRandomGraph(&db, seed).ok());
  auto mem = std::make_unique<MemoryLogFile>();
  MemoryLogFile* raw = mem.get();
  ASSERT_TRUE(db.OpenDurable(std::move(mem)).ok());
  const std::vector<std::string> workload = GenerateUpdateWorkload(seed, 12);
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.Run(workload[i]).ok());
  }
  ASSERT_TRUE(db.Checkpoint().ok());
  size_t after_checkpoint = 0;
  for (size_t i = 8; i < workload.size(); ++i) {
    ASSERT_TRUE(db.Run(workload[i]).ok());
    ++after_checkpoint;
  }
  auto recovered = RecoverGraph(raw->bytes());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(DumpGraphCanonical(recovered->graph),
            DumpGraphCanonical(db.graph()));
  // Replay starts at the checkpoint snapshot: only statements after it are
  // re-applied (some may have been empty-redo no-ops and never logged).
  EXPECT_LE(recovered->statements, after_checkpoint);
}

// ---- Retention pins --------------------------------------------------------

// Rewrite used to assume nobody still reads the old bytes; a replication
// follower's shipper cursor does. A pin below the post-compaction end must
// make Rewrite refuse (without poisoning the writer), and releasing or
// advancing the pin re-enables compaction.
TEST(WalRetention, RewriteRefusesWhilePinnedThenSucceeds) {
  storage::WalWriter writer(std::make_unique<MemoryLogFile>());
  auto append = [&](const std::string& payload) {
    auto lsn = writer.Append(WalRecordType::kStatement, payload);
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE(writer.Sync(*lsn).ok());
  };
  append("first");
  uint64_t pin = writer.RegisterRetentionPin(writer.appended_lsn());
  append("second");  // the pinned reader has not fetched this yet

  uint64_t bytes_before = writer.LogBytes();
  Status refused = writer.Rewrite(WalRecordType::kSnapshot, "snap");
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.ToString().find("retention pin"), std::string::npos)
      << refused.ToString();
  // Refusal is not an I/O failure: nothing dropped, writer not poisoned.
  EXPECT_EQ(writer.LogBytes(), bytes_before);
  EXPECT_TRUE(writer.error().ok());
  append("third");  // still healthy

  // The pinned reader can still fetch everything from its pin on.
  uint64_t min_pin = writer.MinRetentionPin();
  uint64_t end = 0;
  auto bytes = writer.ReadDurableFrom(min_pin, &end);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(end, writer.durable_lsn());
  auto records = storage::DecodeWalSegment(*bytes);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].payload, "second");
  EXPECT_EQ((*records)[1].payload, "third");

  // Caught up: the pin sits at the end, compaction may proceed.
  writer.AdvanceRetentionPin(pin, writer.appended_lsn());
  ASSERT_TRUE(writer.Rewrite(WalRecordType::kSnapshot, "snap").ok());
  EXPECT_LT(writer.LogBytes(), bytes_before);

  // Reads below the new compaction base are refused, never garbage.
  uint64_t stale = 0;
  EXPECT_FALSE(writer.ReadDurableFrom(min_pin, &stale).ok());

  writer.ReleaseRetentionPin(pin);
  EXPECT_EQ(writer.MinRetentionPin(), UINT64_MAX);
}

// base_lsn names the smallest LSN the log can still serve (compaction base
// plus magic). A follower whose resume position sits below it predates
// retention — the reconnect protocol must re-bootstrap it, never hand out
// bytes the log no longer has.
TEST(WalRetention, BaseLsnAdvancesWithCompaction) {
  storage::WalWriter writer(std::make_unique<MemoryLogFile>());
  EXPECT_EQ(writer.base_lsn(), storage::kWalMagicSize)
      << "a fresh log serves from just past the magic";
  EXPECT_EQ(writer.min_resume_lsn(), storage::kWalMagicSize)
      << "a never-compacted log lets a tail resume anywhere";

  auto append = [&](const std::string& payload) {
    auto lsn = writer.Append(WalRecordType::kStatement, payload);
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE(writer.Sync(*lsn).ok());
  };
  append("one");
  uint64_t old_position = writer.base_lsn();  // a resume point, pre-compaction
  append("two");

  uint64_t rewrite_point = writer.appended_lsn();
  ASSERT_TRUE(writer.Rewrite(WalRecordType::kSnapshot, "snap").ok());
  EXPECT_GT(writer.base_lsn(), old_position)
      << "compaction did not advance the servable base";
  // The resume floor jumps all the way to the rewrite point: everything
  // below was folded into one snapshot record, so no lower LSN is a record
  // boundary any more — not even those above base_lsn().
  EXPECT_EQ(writer.min_resume_lsn(), rewrite_point);
  EXPECT_GT(writer.min_resume_lsn(), writer.base_lsn());

  // Below the base: refused, never garbage. At the base: the whole
  // remaining log, starting with the compaction snapshot.
  uint64_t end = 0;
  EXPECT_FALSE(writer.ReadDurableFrom(old_position, &end).ok());
  append("three");
  auto bytes = writer.ReadDurableFrom(writer.base_lsn(), &end);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(end, writer.durable_lsn());
  auto records = storage::DecodeWalSegment(*bytes);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].type, WalRecordType::kSnapshot);
  EXPECT_EQ((*records)[1].payload, "three");
}

// ---- Open-time behaviour --------------------------------------------------

TEST(WalRecovery, OpenTruncatesTornTailAndKeepsAppending) {
  const uint64_t seed = 9;
  ReferenceRun run = RecordReference(seed);
  // A crashed writer left half a record behind.
  auto mem = std::make_unique<MemoryLogFile>();
  MemoryLogFile* raw = mem.get();
  ASSERT_TRUE(mem->Append(run.log.data(), run.log.size()).ok());
  std::string garbage = "\xff\x13half-a-record";
  ASSERT_TRUE(mem->Append(garbage.data(), garbage.size()).ok());

  GraphDatabase db;
  ASSERT_TRUE(db.OpenDurable(std::move(mem)).ok());
  EXPECT_EQ(DumpGraphCanonical(db.graph()), run.boundaries.back().dump);
  EXPECT_EQ(raw->size(), run.log.size());  // torn tail gone

  // New commits append onto the clean prefix and recover fine.
  ASSERT_TRUE(db.Run("CREATE (:AfterCrash {id: 4242})").ok());
  auto recovered = RecoverGraph(raw->bytes());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(DumpGraphCanonical(recovered->graph),
            DumpGraphCanonical(db.graph()));
}

TEST(WalRecovery, ReadOnlyStatementsAreNotLogged) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE (:N {v: 1})").ok());
  auto mem = std::make_unique<MemoryLogFile>();
  MemoryLogFile* raw = mem.get();
  ASSERT_TRUE(db.OpenDurable(std::move(mem)).ok());
  uint64_t before = raw->size();
  ASSERT_TRUE(db.Run("MATCH (n:N) RETURN n.v").ok());
  EXPECT_EQ(raw->size(), before);
  // So is an update statement that matched nothing.
  ASSERT_TRUE(db.Run("MATCH (n:Absent) SET n.v = 2").ok());
  EXPECT_EQ(raw->size(), before);
}

TEST(WalRecovery, SecondOpenDurableIsRefused) {
  GraphDatabase db;
  ASSERT_TRUE(db.OpenDurable(std::make_unique<MemoryLogFile>()).ok());
  EXPECT_TRUE(db.durable());
  Status st = db.OpenDurable(std::make_unique<MemoryLogFile>());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// A failed (rolled-back) statement must not leave a record behind: the
// next crash would otherwise replay an update that never committed.
TEST(WalRecovery, RolledBackStatementIsNotLogged) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE (:N {v: 1})").ok());
  auto mem = std::make_unique<MemoryLogFile>();
  MemoryLogFile* raw = mem.get();
  ASSERT_TRUE(db.OpenDurable(std::move(mem)).ok());
  uint64_t before = raw->size();
  std::string dump = DumpGraphCanonical(db.graph());
  // CREATE succeeds, then the projection divides by zero: full rollback.
  EXPECT_FALSE(db.Run("CREATE (:Ghost) WITH 1 AS one RETURN 1 / 0").ok());
  EXPECT_EQ(raw->size(), before);
  EXPECT_EQ(DumpGraphCanonical(db.graph()), dump);
  auto recovered = RecoverGraph(raw->bytes());
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(DumpGraphCanonical(recovered->graph), dump);
}

// ---- Rolled-back slots -----------------------------------------------------

// A statement that rolls back after creating slots leaves them on the
// leader as tombstones, so the next committed CREATE lands past them. Its
// record must still replay: recovery pads to the record's capacity lines.
const std::vector<std::vector<std::string>>& RollbackGapCases() {
  static const auto* cases = new std::vector<std::vector<std::string>>{
      {"CREATE CONSTRAINT ON (u:User) ASSERT u.id IS UNIQUE",
       "CREATE (:User {id: 1})",
       "CREATE (:User {id: 1})",  // violates the constraint
       "CREATE (:User {id: 2})"},
      {"CREATE (n:B {v: 1}) WITH n RETURN n.v / 0",  // division by zero
       "CREATE (:B {v: 2})"},
      {"CREATE ()-[:R]->() WITH 1 AS one RETURN 1 / 0",
       "CREATE (:A)-[:R {w: 1}]->(:A)"},
  };
  return *cases;
}

TEST(WalRecovery, RolledBackCreateLeavesAReplayableGap) {
  for (const std::vector<std::string>& statements : RollbackGapCases()) {
    SCOPED_TRACE(statements.front());
    GraphDatabase db;
    auto mem = std::make_unique<MemoryLogFile>();
    MemoryLogFile* raw = mem.get();
    ASSERT_TRUE(db.OpenDurable(std::move(mem)).ok());
    size_t failed = 0;
    for (const std::string& q : statements) failed += db.Run(q).ok() ? 0 : 1;
    ASSERT_EQ(failed, 1u) << "the case must roll back exactly one statement";
    auto recovered = RecoverGraph(raw->bytes());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(DumpGraphCanonical(recovered->graph),
              DumpGraphCanonical(db.graph()));
    EXPECT_EQ(recovered->graph.node_capacity(), db.graph().node_capacity());
    EXPECT_EQ(recovered->graph.rel_capacity(), db.graph().rel_capacity());
  }
}

// The every-byte sweep over a workload that interleaves rolled-back
// statements with committed creates, updates and deletes of older slots.
TEST(WalRecovery, EveryBytePrefixRecoversAcrossRolledBackStatements) {
  std::vector<std::string> workload;
  for (const std::vector<std::string>& statements : RollbackGapCases()) {
    workload.insert(workload.end(), statements.begin(), statements.end());
  }
  workload.insert(workload.end(),
                  {"MATCH (u:User {id: 2}) SET u.name = 'two', u:Admin",
                   "MATCH (b:B) REMOVE b:B SET b = {w: 3}",
                   "MATCH (u:User {id: 2}) CREATE (u)-[:R]->(:C) "
                   "WITH 1 AS one RETURN 1 / 0",
                   "MATCH ()-[r:R]->() SET r.w = 2",
                   "MATCH (a:A) DETACH DELETE a",
                   "CREATE (:User {id: 3})-[:R]->(:C)"});
  GraphDatabase db;
  auto mem = std::make_unique<MemoryLogFile>();
  MemoryLogFile* raw = mem.get();
  ASSERT_TRUE(db.OpenDurable(std::move(mem)).ok());
  std::vector<Boundary> boundaries{{raw->size(), DumpGraphCanonical(db.graph())}};
  size_t failed = 0;
  for (const std::string& q : workload) {
    failed += db.Run(q).ok() ? 0 : 1;
    if (raw->size() != boundaries.back().bytes) {
      boundaries.push_back({raw->size(), DumpGraphCanonical(db.graph())});
    }
  }
  size_t b = 0;
  std::string log = raw->bytes();
  for (uint64_t cut = boundaries.front().bytes; cut <= log.size(); ++cut) {
    while (b + 1 < boundaries.size() && boundaries[b + 1].bytes <= cut) ++b;
    auto recovered = RecoverGraph(std::string_view(log).substr(0, cut));
    ASSERT_TRUE(recovered.ok())
        << "cut=" << cut << ": " << recovered.status().ToString();
    ASSERT_EQ(DumpGraphCanonical(recovered->graph), boundaries[b].dump)
        << "cut=" << cut;
  }
  EXPECT_EQ(failed, 4u);
  EXPECT_EQ(boundaries.back().dump, DumpGraphCanonical(db.graph()));
}

// ---- Group commit ---------------------------------------------------------

TEST(WalRecovery, GroupCommitConcurrentSessions) {
  GraphDatabase db;
  auto mem = std::make_unique<MemoryLogFile>();
  MemoryLogFile* raw = mem.get();
  DurabilityOptions durability;
  durability.sync_mode = DurabilityOptions::SyncMode::kGroupCommit;
  ASSERT_TRUE(db.OpenDurable(std::move(mem), durability).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::vector<Status> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &failures, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        Status st = db.Run("CREATE (:T {tid: " + std::to_string(t) +
                           ", i: " + std::to_string(i) + "})");
        if (!st.ok()) {
          failures[t] = st;
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const Status& st : failures) ASSERT_TRUE(st.ok()) << st.ToString();

  EXPECT_EQ(db.graph().num_nodes(),
            static_cast<size_t>(kThreads * kPerThread));
  // Everything returned from Execute was acknowledged durable: the synced
  // prefix alone must reproduce the full graph.
  ASSERT_EQ(raw->synced_size(), raw->size());
  auto recovered = RecoverGraph(raw->bytes());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(DumpGraphCanonical(recovered->graph),
            DumpGraphCanonical(db.graph()));
}

// Group commit's honest failure mode: the statement applied in memory but
// its fsync failed, so Execute reports kAborted, the writer is poisoned,
// and a crash loses exactly the unacknowledged suffix.
TEST(WalRecovery, GroupCommitSyncFailurePoisonsTheLog) {
  GraphDatabase db;
  ASSERT_TRUE(db.Run("CREATE (:Base {v: 1})").ok());
  auto base = std::make_unique<MemoryLogFile>();
  MemoryLogFile* disk = base.get();
  auto faulty = std::make_unique<FaultyLogFile>(std::move(base));
  FaultyLogFile* raw = faulty.get();
  DurabilityOptions durability;
  durability.sync_mode = DurabilityOptions::SyncMode::kGroupCommit;
  // OpenDurable spends 3 calls (magic, snapshot, sync); the statement's
  // flush is call 4 (append) and call 5 (fsync) — fail the fsync.
  raw->FailAfterCalls(5);
  ASSERT_TRUE(db.OpenDurable(std::move(faulty), durability).ok());
  std::string committed_dump = DumpGraphCanonical(db.graph());

  auto result = db.Execute("CREATE (:Lost {v: 2})");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  // Applied in memory (the documented group-commit divergence)...
  EXPECT_EQ(db.graph().num_nodes(), 2u);
  // ...but the log is poisoned: no later statement can widen the gap.
  Status next = db.Run("CREATE (:Refused)");
  EXPECT_EQ(next.code(), StatusCode::kAborted);
  EXPECT_EQ(db.graph().num_nodes(), 2u);
  EXPECT_FALSE(db.wal_error().ok());

  // A crash keeps only the synced prefix: exactly the pre-statement state.
  std::string survived = disk->bytes().substr(0, disk->synced_size());
  auto recovered = RecoverGraph(survived);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(DumpGraphCanonical(recovered->graph), committed_dump);
}

// ---- Posix file -----------------------------------------------------------

TEST(WalRecovery, PosixLogRoundTrip) {
  std::string path = ::testing::TempDir() + "/cypher_wal_test.log";
  std::remove(path.c_str());
  std::string dump;
  {
    GraphDatabase db;
    ASSERT_TRUE(BuildRandomGraph(&db, 10).ok());
    auto file = storage::OpenPosixLogFile(path);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE(db.OpenDurable(std::move(*file)).ok());
    for (const std::string& q : GenerateUpdateWorkload(10, 10)) {
      ASSERT_TRUE(db.Run(q).ok());
    }
    dump = DumpGraphCanonical(db.graph());
  }  // db (and the file handle) gone — the process "crashed"
  GraphDatabase revived;
  auto file = storage::OpenPosixLogFile(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE(revived.OpenDurable(std::move(*file)).ok());
  EXPECT_EQ(DumpGraphCanonical(revived.graph()), dump);
  // And the revived database keeps committing.
  ASSERT_TRUE(revived.Run("CREATE (:Revived {id: 777})").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cypher
