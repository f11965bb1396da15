// Fault-tolerant socket replication harness (DESIGN.md §4i).
//
// Three layers, each building on the previous:
//
//   1. Wire codec units — the framed [kind][len][crc][payload] stream must
//      survive torn reads cut at EVERY byte boundary, and must tear the
//      connection down (sticky error) on any structural damage: flipped
//      bits, unknown kinds, implausible lengths.
//   2. Real-socket schedules in one process — a leader served by
//      SocketReplicationServer, a follower dialing through SocketTransport
//      (TCP ephemeral ports and Unix-domain sockets), exercising bootstrap,
//      tailing, heartbeat deadlines, pause-induced partitions with
//      token-based rebind on reconnect, staleness auto-detach, and the
//      promotion byte-prefix invariant.
//   3. Multi-process schedules — posix-spawned replica_server processes
//      interrogated over a pipe protocol, `kill -9`'d mid-stream, and
//      restarted over the same durable WAL/meta to prove crash recovery
//      resumes (not re-bootstraps) the stream; finally a leader "crash"
//      followed by follower promotion.
//
// The correctness oracle throughout is the same as replication_test.cc: a
// follower may only ever sit at a committed leader statement boundary with
// byte-for-byte that boundary's canonical dump.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cypher/database.h"
#include "graph/serialize.h"
#include "query_gen.h"
#include "replication/replica.h"
#include "replication/socket_transport.h"
#include "replication/transport.h"
#include "replication/wire.h"
#include "storage/log_file.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "test_util.h"

namespace cypher {
namespace {

using replication::ControlFrame;
using replication::ControlType;
using replication::Endpoint;
using replication::FrameType;
using replication::InProcessTransport;
using replication::kMaxWirePayload;
using replication::kWireHeaderSize;
using replication::LinkStatus;
using replication::Replica;
using replication::ReplicaDurability;
using replication::SegmentFrame;
using replication::SocketOptions;
using replication::SocketReplicationServer;
using replication::SocketTransport;
using replication::SteadyNowMs;
using replication::WireDecoder;
using replication::WireKind;
using replication::WireMessage;
using storage::MemoryLogFile;
using testing::BuildRandomGraph;
using testing::GenerateUpdateWorkload;

constexpr uint64_t kSeed = 41;
constexpr size_t kWorkloadStatements = 24;

// Sub-second timescale so deadline/backoff paths run in test time. The
// deadline is comfortably above the heartbeat so a healthy link never trips
// it, and the backoff cap keeps reconnect storms short.
SocketOptions FastOptions() {
  SocketOptions options;
  options.heartbeat_interval_ms = 10;
  options.peer_deadline_ms = 150;
  options.backoff_initial_ms = 5;
  options.backoff_max_ms = 60;
  options.jitter_seed = 7;
  options.connect_timeout_ms = 2000;
  return options;
}

// ---- 1. Wire codec ---------------------------------------------------------

SegmentFrame SampleSegment() {
  SegmentFrame frame;
  frame.type = FrameType::kSegment;
  frame.from_lsn = 100;
  frame.to_lsn = 164;
  frame.payload = "sixty-four bytes of pretend WAL records, give or take";
  frame.crc = 0xdeadbeef;
  return frame;
}

TEST(WireCodecTest, RoundTripsEveryKind) {
  std::string stream = replication::EncodeHello(0x1122334455667788ull, 42);
  stream += replication::EncodeData(SampleSegment());
  stream += replication::EncodeControl({ControlType::kResend, 7});
  stream += replication::EncodeHeartbeat(123456);

  WireDecoder decoder;
  decoder.Feed(stream);
  WireMessage msg;

  auto next = decoder.Next(&msg);
  ASSERT_TRUE(next.ok() && *next);
  EXPECT_EQ(msg.kind, WireKind::kHello);
  EXPECT_EQ(msg.token, 0x1122334455667788ull);
  EXPECT_EQ(msg.lsn, 42u);

  next = decoder.Next(&msg);
  ASSERT_TRUE(next.ok() && *next);
  EXPECT_EQ(msg.kind, WireKind::kData);
  EXPECT_EQ(msg.data.type, FrameType::kSegment);
  EXPECT_EQ(msg.data.from_lsn, 100u);
  EXPECT_EQ(msg.data.to_lsn, 164u);
  EXPECT_EQ(msg.data.crc, 0xdeadbeefu);
  EXPECT_EQ(msg.data.payload, SampleSegment().payload);

  next = decoder.Next(&msg);
  ASSERT_TRUE(next.ok() && *next);
  EXPECT_EQ(msg.kind, WireKind::kControl);
  EXPECT_EQ(msg.control.type, ControlType::kResend);
  EXPECT_EQ(msg.control.lsn, 7u);

  next = decoder.Next(&msg);
  ASSERT_TRUE(next.ok() && *next);
  EXPECT_EQ(msg.kind, WireKind::kHeartbeat);
  EXPECT_EQ(msg.clock_ms, 123456u);

  next = decoder.Next(&msg);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(*next) << "decoder invented a message past the stream end";
  EXPECT_EQ(decoder.buffered(), 0u);
}

// TCP hands the reader arbitrary prefixes. Cut the stream at every byte
// boundary — mid-kind, mid-length, mid-crc, mid-payload — and the decoder
// must never error, never emit early, and always produce the identical
// message sequence once the remainder arrives.
TEST(WireCodecTest, TornReadAtEveryByteBoundary) {
  std::string stream = replication::EncodeHello(99, 7);
  stream += replication::EncodeData(SampleSegment());
  stream += replication::EncodeHeartbeat(1);

  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    WireDecoder decoder;
    decoder.Feed(std::string_view(stream).substr(0, cut));
    std::vector<WireMessage> got;
    WireMessage msg;
    while (true) {
      auto next = decoder.Next(&msg);
      ASSERT_TRUE(next.ok()) << "cut at " << cut << ": "
                             << next.status().ToString();
      if (!*next) break;
      got.push_back(msg);
    }
    decoder.Feed(std::string_view(stream).substr(cut));
    while (true) {
      auto next = decoder.Next(&msg);
      ASSERT_TRUE(next.ok()) << "cut at " << cut << ": "
                             << next.status().ToString();
      if (!*next) break;
      got.push_back(msg);
    }
    ASSERT_EQ(got.size(), 3u) << "cut at " << cut;
    EXPECT_EQ(got[0].kind, WireKind::kHello);
    EXPECT_EQ(got[0].token, 99u);
    EXPECT_EQ(got[1].kind, WireKind::kData);
    EXPECT_EQ(got[1].data.payload, SampleSegment().payload);
    EXPECT_EQ(got[2].kind, WireKind::kHeartbeat);
    EXPECT_EQ(decoder.buffered(), 0u) << "cut at " << cut;
  }
}

// A flipped payload bit fails the message CRC; the error is sticky — a
// desynchronized byte stream can never be trusted again.
TEST(WireCodecTest, PayloadCorruptionIsStickyError) {
  std::string stream = replication::EncodeData(SampleSegment());
  stream[kWireHeaderSize + 3] ^= 0x10;  // payload byte
  stream += replication::EncodeHeartbeat(5);  // an innocent message after

  WireDecoder decoder;
  decoder.Feed(stream);
  WireMessage msg;
  auto next = decoder.Next(&msg);
  EXPECT_FALSE(next.ok()) << "corrupt payload decoded as valid";
  next = decoder.Next(&msg);
  EXPECT_FALSE(next.ok()) << "decoder resumed after structural damage";
}

TEST(WireCodecTest, UnknownKindRejected) {
  std::string stream = replication::EncodeHeartbeat(5);
  stream[0] = 0x7f;  // no such kind
  WireDecoder decoder;
  decoder.Feed(stream);
  WireMessage msg;
  EXPECT_FALSE(decoder.Next(&msg).ok());
}

// An implausible length field is desync, not an allocation request.
TEST(WireCodecTest, OversizedLengthRejected) {
  std::string header(kWireHeaderSize, '\0');
  header[0] = static_cast<char>(WireKind::kData);
  uint32_t length = kMaxWirePayload + 1;
  std::memcpy(&header[1], &length, sizeof(length));
  WireDecoder decoder;
  decoder.Feed(header);
  WireMessage msg;
  EXPECT_FALSE(decoder.Next(&msg).ok());
}

// Bytes that arrive behind the hello in the same socket read must follow
// the connection when the fd is handed to the follower's link — they are
// the front of the replication stream, not handshake debris.
TEST(WireCodecTest, TakeRemainingCarriesTrailingBytes) {
  std::string stream = replication::EncodeHello(1, 0);
  std::string data = replication::EncodeData(SampleSegment());
  stream += data.substr(0, data.size() / 2);  // half a data frame behind it

  WireDecoder handshake;
  handshake.Feed(stream);
  WireMessage msg;
  auto next = handshake.Next(&msg);
  ASSERT_TRUE(next.ok() && *next);
  ASSERT_EQ(msg.kind, WireKind::kHello);

  std::string residual = handshake.TakeRemaining();
  EXPECT_EQ(residual, data.substr(0, data.size() / 2));
  EXPECT_EQ(handshake.buffered(), 0u);

  WireDecoder link;
  link.Feed(residual);
  link.Feed(data.substr(data.size() / 2));
  next = link.Next(&msg);
  ASSERT_TRUE(next.ok() && *next);
  EXPECT_EQ(msg.kind, WireKind::kData);
  EXPECT_EQ(msg.data.payload, SampleSegment().payload);
}

// ---- Shared oracle (same construction as replication_test.cc) --------------

struct Reference {
  std::vector<std::string> statements;
  std::map<uint64_t, std::string> dump_at;
  std::map<uint64_t, size_t> prefix_at;
};

Reference BuildReference(uint64_t seed, size_t count) {
  Reference ref;
  ref.statements = GenerateUpdateWorkload(seed, count);
  GraphDatabase db;
  EXPECT_TRUE(BuildRandomGraph(&db, seed).ok());
  EXPECT_TRUE(db.OpenDurable(std::make_unique<MemoryLogFile>()).ok());
  auto boundary = [&](size_t prefix) {
    uint64_t lsn = db.wal_writer()->durable_lsn();
    ref.dump_at[lsn] = DumpGraphCanonical(db.graph());
    ref.prefix_at[lsn] = prefix;
  };
  boundary(0);
  for (size_t i = 0; i < ref.statements.size(); ++i) {
    EXPECT_TRUE(db.Run(ref.statements[i]).ok()) << ref.statements[i];
    boundary(i + 1);
  }
  return ref;
}

void ExpectAtBoundary(const Reference& ref, uint64_t lsn,
                      const std::string& dump, const char* when) {
  auto it = ref.dump_at.find(lsn);
  ASSERT_NE(it, ref.dump_at.end())
      << when << ": follower lsn " << lsn
      << " is not a leader statement boundary";
  EXPECT_EQ(dump, it->second)
      << when << ": divergence at lsn " << lsn << " (statement prefix "
      << ref.prefix_at.at(lsn) << ")";
}

// ---- 2. Real-socket schedules, one process ---------------------------------

// The serving thread pumps the leader's replication rounds; the test thread
// polls the replica. Wall-clock bounded so a protocol bug fails instead of
// hanging.
void SocketCatchUp(GraphDatabase* leader, Replica* replica,
                   SocketTransport* transport, int64_t budget_ms = 20000) {
  int64_t deadline = SteadyNowMs() + budget_ms;
  while (SteadyNowMs() < deadline) {
    auto applied = replica->PollOnce();
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    transport->Pump();
    if (replica->bootstrapped() &&
        replica->applied_lsn() == leader->wal_writer()->appended_lsn()) {
      return;
    }
    usleep(2000);
  }
  FAIL() << "follower never caught up over the socket: applied="
         << replica->applied_lsn()
         << " leader=" << leader->wal_writer()->appended_lsn()
         << " link=" << replication::LinkStateName(transport->link().state);
}

class SocketSchedule : public ::testing::TestWithParam<Endpoint> {};

// Bootstrap + tail over a real socket: every applied boundary the follower
// passes through must be a committed leader prefix, and the final states
// must byte-match.
TEST_P(SocketSchedule, BootstrapAndTail) {
  Reference ref = BuildReference(kSeed, kWorkloadStatements);

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());

  SocketReplicationServer server;
  ReplicationOptions replication;
  replication.segment_bytes = 256;
  ASSERT_TRUE(server.Start(&leader, GetParam(), replication, FastOptions())
                  .ok());

  auto transport =
      std::make_shared<SocketTransport>(server.endpoint(), FastOptions());
  Replica replica(transport);
  transport->SetHelloSource([&replica] {
    return std::make_pair(replica.token(), replica.applied_lsn());
  });

  for (const std::string& statement : ref.statements) {
    ASSERT_TRUE(leader.Run(statement).ok());
    auto applied = replica.PollOnce();
    ASSERT_TRUE(applied.ok());
    if (replica.bootstrapped()) {
      ExpectAtBoundary(ref, replica.applied_lsn(), replica.CanonicalDump(),
                       "mid-stream over socket");
    }
  }
  SocketCatchUp(&leader, &replica, transport.get());
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));
  EXPECT_EQ(server.stats().attaches, 1u);
  EXPECT_EQ(transport->link().state, LinkStatus::State::kConnected);

  transport->Close();
  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Endpoints, SocketSchedule,
    ::testing::Values(Endpoint::Tcp("127.0.0.1", 0),
                      Endpoint::Unix(::testing::TempDir() +
                                     "/cypher_repl_sched.sock")),
    [](const ::testing::TestParamInfo<Endpoint>& info) {
      return info.param.kind == Endpoint::Kind::kTcp ? "Tcp" : "UnixDomain";
    });

// The server thread creates the leader's shipper on the first attach while
// another thread polls replication_status(): the poll must see either no
// follower or the fully built one (the TSan job runs this suite).
TEST(SocketReplicationTest, StatusPollRacesFirstAttach) {
  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());
  SocketReplicationServer server;
  ASSERT_TRUE(server
                  .Start(&leader, Endpoint::Tcp("127.0.0.1", 0),
                         ReplicationOptions(), FastOptions())
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> polls{0};
  std::atomic<size_t> polls_with_follower{0};
  std::thread poller([&] {
    while (!stop.load()) {
      ReplicationStatus status = leader.replication_status();
      polls.fetch_add(1);
      if (status.followers == 1) polls_with_follower.fetch_add(1);
    }
  });
  while (polls.load() == 0) std::this_thread::yield();  // before any dial

  auto transport =
      std::make_shared<SocketTransport>(server.endpoint(), FastOptions());
  Replica replica(transport);
  transport->SetHelloSource([&replica] {
    return std::make_pair(replica.token(), replica.applied_lsn());
  });
  SocketCatchUp(&leader, &replica, transport.get());
  // Keep polling until the poller has seen the attached follower.
  int64_t deadline = SteadyNowMs() + 20000;
  while (polls_with_follower.load() == 0 && SteadyNowMs() < deadline) {
    usleep(1000);
  }
  stop.store(true);
  poller.join();

  EXPECT_EQ(server.stats().attaches, 1u);
  EXPECT_GT(polls.load(), polls_with_follower.load());  // polled before too
  EXPECT_GT(polls_with_follower.load(), 0u);
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));
  transport->Close();
  server.Stop();
}

// A paused follower goes silent; the leader's deadline drops the socket and
// the link parks in backoff (cursors freeze — no data is shipped into the
// void). On unpause the follower's own deadline fires, it redials with its
// token, the server rebinds the new fd onto the existing link, and a resend
// from the follower's announced position reconverges the stream. No second
// bootstrap: the graph is continuous through the outage.
TEST(SocketReplicationTest, FollowerPartitionReconnectsAndResumes) {
  Reference ref = BuildReference(kSeed, kWorkloadStatements);

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());

  SocketReplicationServer server;
  ReplicationOptions replication;
  replication.segment_bytes = 256;
  ASSERT_TRUE(server.Start(&leader, Endpoint::Tcp("127.0.0.1", 0),
                           replication, FastOptions())
                  .ok());

  auto transport =
      std::make_shared<SocketTransport>(server.endpoint(), FastOptions());
  Replica replica(transport);
  transport->SetHelloSource([&replica] {
    return std::make_pair(replica.token(), replica.applied_lsn());
  });

  // First third: healthy tailing (ensures the bootstrap landed long before
  // the partition, so resume-not-rebootstrap below is meaningful).
  const size_t cut = ref.statements.size() / 3;
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(leader.Run(ref.statements[i]).ok());
    ASSERT_TRUE(replica.PollOnce().ok());
  }
  SocketCatchUp(&leader, &replica, transport.get());
  ASSERT_EQ(replica.bootstraps(), 1u);

  // Partition: the follower freezes entirely. The leader keeps committing.
  transport->TestSetPaused(true);
  for (size_t i = cut; i < ref.statements.size(); ++i) {
    ASSERT_TRUE(leader.Run(ref.statements[i]).ok());
  }
  // Give the leader's deadline time to declare the follower lost.
  int64_t silence_until = SteadyNowMs() + 2 * FastOptions().peer_deadline_ms;
  while (SteadyNowMs() < silence_until) usleep(5000);

  // Heal. The follower finds the server closed its side (deadline fired
  // during the silence): it must drain what was in flight, hit the EOF,
  // reconnect with its token, and get the stream rewound — all before the
  // equality checks, so wait for the reconnect explicitly rather than
  // racing it against buffered data.
  transport->TestSetPaused(false);
  int64_t reconnect_deadline = SteadyNowMs() + 15000;
  while ((transport->link().reconnects < 1 || server.stats().rebinds < 1) &&
         SteadyNowMs() < reconnect_deadline) {
    ASSERT_TRUE(replica.PollOnce().ok());
    transport->Pump();
    usleep(2000);
  }
  EXPECT_GE(transport->link().reconnects, 1u)
      << "follower never noticed the dropped connection";
  EXPECT_GE(server.stats().rebinds, 1u)
      << "server attached a new follower instead of rebinding the token";
  SocketCatchUp(&leader, &replica, transport.get());
  ExpectAtBoundary(ref, replica.applied_lsn(), replica.CanonicalDump(),
                   "after partition heal");
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));
  EXPECT_EQ(replica.bootstraps(), 1u)
      << "reconnect re-bootstrapped instead of resuming";

  transport->Close();
  server.Stop();
}

// The mirror partition: the SERVER goes silent (paused — neither accepts
// nor pumps). The follower's deadline fires, it enters backoff, dials
// repeatedly (connections queue in the listen backlog unanswered), and when
// the server wakes it processes the queued hellos and rebinds. Exercises
// exponential backoff + jitter under real refused/ignored connects.
TEST(SocketReplicationTest, ServerPauseDrivesBackoffThenRebind) {
  Reference ref = BuildReference(kSeed, kWorkloadStatements);

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());

  SocketReplicationServer server;
  ReplicationOptions replication;
  replication.segment_bytes = 256;
  ASSERT_TRUE(server.Start(&leader, Endpoint::Tcp("127.0.0.1", 0),
                           replication, FastOptions())
                  .ok());

  auto transport =
      std::make_shared<SocketTransport>(server.endpoint(), FastOptions());
  Replica replica(transport);
  transport->SetHelloSource([&replica] {
    return std::make_pair(replica.token(), replica.applied_lsn());
  });

  const size_t cut = ref.statements.size() / 3;
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(leader.Run(ref.statements[i]).ok());
    ASSERT_TRUE(replica.PollOnce().ok());
  }
  SocketCatchUp(&leader, &replica, transport.get());

  server.SetPaused(true);
  // The follower keeps polling into the silence: its deadline fires, it
  // drops, backs off, and retries — the link must report a non-connected
  // state while the server is dark.
  int64_t dark_until = SteadyNowMs() + 3 * FastOptions().peer_deadline_ms;
  bool saw_down = false;
  while (SteadyNowMs() < dark_until) {
    ASSERT_TRUE(replica.PollOnce().ok());
    transport->Pump();
    auto state = transport->link().state;
    if (state == LinkStatus::State::kBackoff ||
        state == LinkStatus::State::kConnecting) {
      saw_down = true;
    }
    usleep(2000);
  }
  EXPECT_TRUE(saw_down) << "follower never noticed the dark server";

  for (size_t i = cut; i < ref.statements.size(); ++i) {
    ASSERT_TRUE(leader.Run(ref.statements[i]).ok());
  }
  server.SetPaused(false);
  SocketCatchUp(&leader, &replica, transport.get());
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));
  EXPECT_EQ(replica.bootstraps(), 1u);
  EXPECT_GE(transport->link().reconnects, 1u);

  transport->Close();
  server.Stop();
}

// Staleness cap, end to end over sockets: a follower that bootstraps and
// then freezes is auto-detached once its backlog passes the cap (the leader
// logs a warning and releases the pin). When the follower wakes and
// reconnects, the server no longer carries its link; since compaction has
// moved the base past its position, it re-bootstraps from a fresh snapshot
// and converges.
TEST(SocketReplicationTest, StalenessCapDetachesThenRebootstraps) {
  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  DurabilityOptions durability;
  durability.sync_mode = DurabilityOptions::SyncMode::kEveryCommit;
  durability.auto_checkpoint_bytes = 1;
  ASSERT_TRUE(
      leader.OpenDurable(std::make_unique<MemoryLogFile>(), durability).ok());

  SocketReplicationServer server;
  ReplicationOptions replication;
  replication.segment_bytes = 128;
  replication.max_retained_bytes = 512;
  ASSERT_TRUE(server.Start(&leader, Endpoint::Tcp("127.0.0.1", 0),
                           replication, FastOptions())
                  .ok());

  auto transport =
      std::make_shared<SocketTransport>(server.endpoint(), FastOptions());
  Replica replica(transport);
  transport->SetHelloSource([&replica] {
    return std::make_pair(replica.token(), replica.applied_lsn());
  });

  // Bootstrap, then freeze the follower mid-everything.
  int64_t deadline = SteadyNowMs() + 20000;
  while (!replica.bootstrapped() && SteadyNowMs() < deadline) {
    ASSERT_TRUE(replica.PollOnce().ok());
    transport->Pump();
    usleep(2000);
  }
  ASSERT_TRUE(replica.bootstrapped());
  transport->TestSetPaused(true);

  uint64_t pause_durable = leader.wal_writer()->durable_lsn();
  const std::vector<std::string> workload =
      GenerateUpdateWorkload(kSeed, 2 * kWorkloadStatements);
  for (const std::string& statement : workload) {
    ASSERT_TRUE(leader.Run(statement).ok());
  }
  ASSERT_GT(leader.wal_writer()->durable_lsn() - pause_durable,
            replication.max_retained_bytes)
      << "workload appended too little redo to exceed the staleness cap";
  // The serving thread pumps continuously; wait for the cap to fire.
  deadline = SteadyNowMs() + 20000;
  while (leader.replication_status().stale_detaches == 0 &&
         SteadyNowMs() < deadline) {
    usleep(5000);
  }
  ReplicationStatus status = leader.replication_status();
  ASSERT_GE(status.stale_detaches, 1u) << "staleness cap never fired";
  EXPECT_FALSE(status.last_stale_warning.empty());
  EXPECT_EQ(status.followers, 0u);

  // The detach released the pin, but retention only moves at the next
  // compaction; force one (the same Rewrite the auto-checkpoint issues,
  // legal now that no pin trails). The rewrite folds every record up to the
  // current end into one snapshot frame, so the resume floor jumps past the
  // frozen follower's position and the reconnect below cannot legally
  // resume — even though base_lsn() (where the snapshot record starts) may
  // still sit below it.
  ASSERT_TRUE(leader
                  .wal_writer()
                  ->Rewrite(storage::WalRecordType::kSnapshot,
                            storage::EncodeSnapshot(leader.graph()))
                  .ok());
  ASSERT_GT(leader.wal_writer()->min_resume_lsn(), replica.applied_lsn())
      << "compaction never passed the stale follower's position";

  // Wake the follower: deadline → reconnect → unknown-to-the-database token
  // → fresh snapshot bootstrap (its old position predates retention).
  transport->TestSetPaused(false);
  SocketCatchUp(&leader, &replica, transport.get());
  EXPECT_EQ(replica.CanonicalDump(), DumpGraphCanonical(leader.graph()));
  EXPECT_GE(replica.bootstraps(), 2u)
      << "a past-retention follower cannot resume; it must re-bootstrap";

  transport->Close();
  server.Stop();
}

// Promotion invariant at the byte level: a durable follower's WAL after the
// bootstrap record is a byte-exact slice of the leader's durable WAL ending
// at applied_lsn(). PromoteToLeader then opens that log as a standalone
// durable leader serving exactly the committed prefix — and accepting new
// writes of its own.
TEST(SocketReplicationTest, PromotionOpensByteExactPrefix) {
  Reference ref = BuildReference(kSeed, kWorkloadStatements);

  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());

  SocketReplicationServer server;
  ReplicationOptions replication;
  replication.segment_bytes = 256;
  ASSERT_TRUE(server.Start(&leader, Endpoint::Tcp("127.0.0.1", 0),
                           replication, FastOptions())
                  .ok());

  auto transport =
      std::make_shared<SocketTransport>(server.endpoint(), FastOptions());
  ReplicaDurability durable;
  durable.wal = std::make_unique<MemoryLogFile>();
  durable.meta = std::make_unique<MemoryLogFile>();
  auto replica_or = Replica::Open(transport, std::move(durable));
  ASSERT_TRUE(replica_or.ok()) << replica_or.status().ToString();
  Replica* replica = replica_or->get();
  transport->SetHelloSource([replica] {
    return std::make_pair(replica->token(), replica->applied_lsn());
  });

  for (const std::string& statement : ref.statements) {
    ASSERT_TRUE(leader.Run(statement).ok());
    ASSERT_TRUE(replica->PollOnce().ok());
  }
  SocketCatchUp(&leader, replica, transport.get());
  std::string leader_dump = DumpGraphCanonical(leader.graph());
  uint64_t applied = replica->applied_lsn();

  // Byte-prefix check while the leader is still alive to ask: the raw
  // record bytes the replica persisted must equal the leader's durable
  // range [attach_lsn, applied).
  {
    ASSERT_NE(replica->wal_file(), nullptr);
    auto local = replica->wal_file()->ReadAll();
    ASSERT_TRUE(local.ok());
    auto contents = storage::DecodeWal(*local);
    ASSERT_TRUE(contents.ok());
    ASSERT_FALSE(contents->records.empty());
    EXPECT_FALSE(contents->torn_tail);
    // [magic][bootstrap record][raw slice] — skip the first two.
    size_t off = storage::kWalMagicSize;
    off += storage::WalFrameSize(std::string_view(*local).substr(off));
    std::string local_slice = local->substr(off);

    uint64_t attach_lsn = applied - local_slice.size();
    uint64_t end = 0;
    auto leader_slice = leader.wal_writer()->ReadDurableFrom(attach_lsn, &end);
    ASSERT_TRUE(leader_slice.ok()) << leader_slice.status().ToString();
    ASSERT_GE(end, applied);
    EXPECT_EQ(local_slice, leader_slice->substr(0, local_slice.size()))
        << "follower WAL is not a byte slice of the leader's";
  }

  // Leader "crashes": server halted, database gone.
  server.Stop();
  { GraphDatabase crashed = std::move(leader); }

  auto promoted = replica->PromoteToLeader();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_TRUE(replica->sealed());
  EXPECT_EQ(DumpGraphCanonical(promoted->graph()), leader_dump)
      << "promoted leader does not serve the committed prefix";

  // The new leader is a real durable leader: it accepts writes and can
  // serve followers of its own.
  ASSERT_TRUE(promoted->Run("CREATE (:Failover {epoch: 2})").ok());
  auto wire = std::make_shared<InProcessTransport>();
  Replica next_follower(wire);
  ASSERT_TRUE(promoted->AttachFollower(wire).ok());
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(promoted->PumpReplication().ok());
    ASSERT_TRUE(next_follower.PollOnce().ok());
    if (next_follower.applied_lsn() ==
        promoted->wal_writer()->appended_lsn()) {
      break;
    }
  }
  EXPECT_EQ(next_follower.CanonicalDump(),
            DumpGraphCanonical(promoted->graph()));
}

// A sealed replica refuses everything but status.
TEST(SocketReplicationTest, SealedReplicaRefusesApply) {
  auto wire = std::make_shared<InProcessTransport>();
  GraphDatabase leader;
  ASSERT_TRUE(BuildRandomGraph(&leader, kSeed).ok());
  ASSERT_TRUE(leader.OpenDurable(std::make_unique<MemoryLogFile>()).ok());

  ReplicaDurability durable;
  durable.wal = std::make_unique<MemoryLogFile>();
  durable.meta = std::make_unique<MemoryLogFile>();
  auto replica_or = Replica::Open(wire, std::move(durable));
  ASSERT_TRUE(replica_or.ok());
  Replica* replica = replica_or->get();

  ASSERT_TRUE(leader.AttachFollower(wire).ok());
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(leader.PumpReplication().ok());
    ASSERT_TRUE(replica->PollOnce().ok());
    if (replica->bootstrapped() &&
        replica->applied_lsn() == leader.wal_writer()->appended_lsn()) {
      break;
    }
  }
  ASSERT_TRUE(replica->PromoteToLeader().ok());
  EXPECT_FALSE(replica->PollOnce().ok());
  EXPECT_FALSE(replica->PromoteToLeader().ok()) << "double promotion";
}

// ---- 3. Multi-process schedules --------------------------------------------

// Drives one replica_server child over its pipe protocol. Replies are
// length-prefixed ("#<n>\n" + n bytes) so dumps with newlines read exactly.
class FollowerProcess {
 public:
  ~FollowerProcess() {
    if (pid_ > 0) Kill();
  }

  void Spawn(const std::string& endpoint, const std::string& wal,
             const std::string& meta) {
    int to_child[2], from_child[2];
    ASSERT_EQ(::pipe(to_child), 0);
    ASSERT_EQ(::pipe(from_child), 0);
    pid_ = ::fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      ::execl(REPLICA_SERVER_BIN, "replica_server", endpoint.c_str(),
              wal.c_str(), meta.c_str(), nullptr);
      _exit(127);  // exec failed
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
    // Non-blocking reads so a wedged child times the test out instead of
    // hanging it.
    ::fcntl(out_fd_, F_SETFL,
            ::fcntl(out_fd_, F_GETFL, 0) | O_NONBLOCK);
  }

  // SIGKILL — no cleanup, no flush: the crash the WAL must survive.
  void Kill() {
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid_, &wstatus, 0);
    CloseFds();
    pid_ = -1;
  }

  void Quit() {
    SendLine("QUIT");
    int wstatus = 0;
    ::waitpid(pid_, &wstatus, 0);
    CloseFds();
    pid_ = -1;
  }

  void SendLine(const std::string& line) {
    std::string framed = line + "\n";
    ASSERT_EQ(::write(in_fd_, framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }

  // One command, one reply. Bounded reads so a wedged child fails the test.
  std::string Request(const std::string& line) {
    SendLine(line);
    std::string header;
    char c = 0;
    while (ReadByte(&c) && c != '\n') header += c;
    EXPECT_FALSE(header.empty()) << "child pipe closed mid-reply";
    EXPECT_EQ(header[0], '#') << "malformed reply header: " << header;
    size_t want = std::stoul(header.substr(1));
    std::string payload;
    payload.reserve(want);
    while (payload.size() < want) {
      if (!ReadByte(&c)) break;
      payload += c;
    }
    EXPECT_EQ(payload.size(), want);
    return payload;
  }

  // "<applied> <bootstraps> <statements>"
  struct Position {
    uint64_t applied = 0;
    uint64_t bootstraps = 0;
    uint64_t statements = 0;
  };
  Position QueryPosition() {
    std::istringstream in(Request("LSN"));
    Position p;
    in >> p.applied >> p.bootstraps >> p.statements;
    return p;
  }

 private:
  bool ReadByte(char* out) {
    int64_t deadline = SteadyNowMs() + 30000;
    while (SteadyNowMs() < deadline) {
      ssize_t n = ::read(out_fd_, out, 1);
      if (n == 1) return true;
      if (n == 0) return false;  // EOF: child died
      if (errno != EAGAIN && errno != EINTR) return false;
      usleep(1000);
    }
    return false;
  }

  void CloseFds() {
    if (in_fd_ >= 0) ::close(in_fd_);
    if (out_fd_ >= 0) ::close(out_fd_);
    in_fd_ = out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
};

struct LeaderUnderTest {
  GraphDatabase db;
  SocketReplicationServer server;
  std::string endpoint_text;

  void Start(uint64_t seed) {
    ASSERT_TRUE(BuildRandomGraph(&db, seed).ok());
    DurabilityOptions durability;
    durability.sync_mode = DurabilityOptions::SyncMode::kEveryCommit;
    ASSERT_TRUE(
        db.OpenDurable(std::make_unique<MemoryLogFile>(), durability).ok());
    ReplicationOptions replication;
    replication.segment_bytes = 256;
    ASSERT_TRUE(server.Start(&db, Endpoint::Tcp("127.0.0.1", 0), replication,
                             FastOptions())
                    .ok());
    endpoint_text = server.endpoint().ToString();
  }
};

void AwaitChildAt(FollowerProcess* child, uint64_t lsn,
                  int64_t budget_ms = 30000) {
  int64_t deadline = SteadyNowMs() + budget_ms;
  while (SteadyNowMs() < deadline) {
    if (child->QueryPosition().applied == lsn) return;
    usleep(10000);
  }
  FAIL() << "child never reached lsn " << lsn << " (at "
         << child->QueryPosition().applied << ")";
}

// Bootstrap and tail from a separate process; snapshot reads (EXEC) serve
// while tailing; final dump byte-matches the leader.
TEST(MultiProcessReplicationTest, ChildBootstrapsTailsAndServesReads) {
  const std::string dir = ::testing::TempDir();
  const std::string wal = dir + "/mp_tail.wal";
  const std::string meta = dir + "/mp_tail.meta";
  ::unlink(wal.c_str());  // a previous run's durable state must not leak in
  ::unlink(meta.c_str());
  LeaderUnderTest leader;
  leader.Start(kSeed);

  FollowerProcess child;
  child.Spawn(leader.endpoint_text, wal, meta);

  const std::vector<std::string> workload =
      GenerateUpdateWorkload(kSeed, kWorkloadStatements);
  for (const std::string& statement : workload) {
    ASSERT_TRUE(leader.db.Run(statement).ok());
  }
  AwaitChildAt(&child, leader.db.wal_writer()->appended_lsn());
  EXPECT_EQ(child.Request("DUMP"), DumpGraphCanonical(leader.db.graph()));

  // A read session at the applied position works while attached.
  std::string rendered = child.Request("EXEC MATCH (n) RETURN count(n)");
  EXPECT_NE(rendered.find("count"), std::string::npos) << rendered;
  EXPECT_EQ(rendered.rfind("error:", 0), std::string::npos) << rendered;

  child.Quit();
  leader.server.Stop();
}

// kill -9 mid-stream, restart over the same WAL/meta: the new process
// recovers the durable prefix, announces the same token at its recovered
// position, and the leader REBINDS + resumes — no second snapshot crosses
// the wire. The dump still converges byte-exactly.
TEST(MultiProcessReplicationTest, Kill9RestartResumesWithoutRebootstrap) {
  const std::string dir = ::testing::TempDir();
  const std::string wal = dir + "/mp_crash.wal";
  const std::string meta = dir + "/mp_crash.meta";
  ::unlink(wal.c_str());
  ::unlink(meta.c_str());

  LeaderUnderTest leader;
  leader.Start(kSeed);

  FollowerProcess child;
  child.Spawn(leader.endpoint_text, wal, meta);

  const std::vector<std::string> workload =
      GenerateUpdateWorkload(kSeed, kWorkloadStatements);
  const size_t cut = workload.size() / 2;
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_TRUE(leader.db.Run(workload[i]).ok());
  }
  AwaitChildAt(&child, leader.db.wal_writer()->appended_lsn());
  std::string token_before = child.Request("TOKEN");
  uint64_t rebinds_before = leader.server.stats().rebinds;
  uint64_t attaches_before = leader.server.stats().attaches;

  child.Kill();  // SIGKILL: whatever was in flight is simply gone

  // The leader keeps committing into the dead follower's absence.
  for (size_t i = cut; i < workload.size(); ++i) {
    ASSERT_TRUE(leader.db.Run(workload[i]).ok());
  }

  // Same WAL, same meta, new process: recovery + reconnect hello.
  FollowerProcess revived;
  revived.Spawn(leader.endpoint_text, wal, meta);
  AwaitChildAt(&revived, leader.db.wal_writer()->appended_lsn());

  EXPECT_EQ(revived.Request("TOKEN"), token_before)
      << "identity did not survive the crash";
  FollowerProcess::Position position = revived.QueryPosition();
  EXPECT_EQ(position.bootstraps, 1u)
      << "restart re-bootstrapped instead of resuming the durable prefix";
  EXPECT_EQ(revived.Request("DUMP"), DumpGraphCanonical(leader.db.graph()));
  EXPECT_GE(leader.server.stats().rebinds, rebinds_before + 1)
      << "leader did not route the revived token to the existing link";
  EXPECT_EQ(leader.server.stats().attaches, attaches_before)
      << "leader attached a fresh follower for a resumable token";

  revived.Quit();
  leader.server.Stop();
}

// Full failover: leader crashes for good; the caught-up child PROMOTEs and
// becomes a writable leader serving exactly the old leader's committed
// prefix, then takes writes of its own.
TEST(MultiProcessReplicationTest, LeaderCrashThenChildPromotes) {
  const std::string dir = ::testing::TempDir();
  const std::string wal = dir + "/mp_promote.wal";
  const std::string meta = dir + "/mp_promote.meta";
  ::unlink(wal.c_str());  // a previous run's durable state must not leak in
  ::unlink(meta.c_str());
  std::string leader_dump;
  uint64_t final_lsn = 0;

  FollowerProcess child;
  {
    LeaderUnderTest leader;
    leader.Start(kSeed);
    child.Spawn(leader.endpoint_text, wal, meta);

    const std::vector<std::string> workload =
        GenerateUpdateWorkload(kSeed, kWorkloadStatements);
    for (const std::string& statement : workload) {
      ASSERT_TRUE(leader.db.Run(statement).ok());
    }
    final_lsn = leader.db.wal_writer()->appended_lsn();
    AwaitChildAt(&child, final_lsn);
    leader_dump = DumpGraphCanonical(leader.db.graph());

    leader.server.Stop();  // abrupt: the "crash"
  }  // leader database destroyed

  FollowerProcess::Position at_crash = child.QueryPosition();
  EXPECT_EQ(at_crash.applied, final_lsn);

  std::string promoted = child.Request("PROMOTE");
  EXPECT_EQ(promoted.rfind("promoted ", 0), 0u) << promoted;
  EXPECT_EQ(child.Request("DUMP"), leader_dump)
      << "promoted leader diverged from the committed prefix";

  // Writes now land on the promoted leader.
  std::string write = child.Request("EXEC CREATE (:Failover {epoch: 2})");
  EXPECT_EQ(write.rfind("error:", 0), std::string::npos) << write;
  std::string read =
      child.Request("EXEC MATCH (f:Failover) RETURN f.epoch AS epoch");
  EXPECT_NE(read.find("2"), std::string::npos) << read;

  child.Quit();
}

}  // namespace
}  // namespace cypher
