// Engineering bench: what log-shipping replication costs.
//
//   catch-up      — a bootstrapped follower drains an N-statement backlog
//                   in one poll: statements/second of the replay path
//                   (segment decode + ApplyImage + one epoch publish per
//                   record)
//   steady state  — leader commits with a caught-up follower attached,
//                   pump + poll after every commit: the per-commit overhead
//                   of shipping (segment cut + CRC + apply) on top of the
//                   memory-WAL commit from bench_wal_commit
//
// The interesting ratios: catch-up items/second should sit well above the
// leader's own commit rate (replay skips parse/plan/match), and steady
// state / memory-WAL isolates the shipping tax, which should be small.
//
// The socket variants run the same two shapes through a real
// SocketReplicationServer + SocketTransport over loopback TCP and a
// Unix-domain socket: the delta against the in-process rows is the wire tax
// (framing + CRC + syscalls + the server loop's scheduling quantum).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <memory>
#include <string>

#include "bench_util.h"
#include "replication/replica.h"
#include "replication/socket_transport.h"
#include "replication/transport.h"
#include "storage/log_file.h"
#include "storage/wal.h"

namespace cypher {
namespace {

constexpr int64_t kNodes = 64;

void Seed(GraphDatabase* db) {
  std::string create = "CREATE ";
  for (int64_t i = 0; i < kNodes; ++i) {
    if (i > 0) create += ", ";
    create += "(:W {id: " + std::to_string(i) + ", v: 0})";
  }
  (void)db->Run(create);
}

std::string SetStmt(int64_t i) {
  return "MATCH (n:W {id: " + std::to_string(i % kNodes) +
         "}) SET n.v = " + std::to_string(i);
}

// A caught-up follower falls state.range(0) committed statements behind and
// catches up in one poll. Each iteration attaches a fresh follower to a
// freshly seeded leader and bootstraps it, then commits the backlog (the
// commits ship it into the follower's queue); only the poll that replays
// it is timed. Items/second is replay throughput.
void BM_ReplicaCatchUp(benchmark::State& state) {
  const int64_t backlog = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    auto leader = std::make_unique<GraphDatabase>();
    Seed(leader.get());
    (void)leader->OpenDurable(std::make_unique<storage::MemoryLogFile>());
    auto transport = std::make_shared<replication::InProcessTransport>();
    auto replica = std::make_unique<replication::Replica>(transport);
    auto id = leader->AttachFollower(transport);
    if (!id.ok() || !replica->PollOnce().ok()) {
      state.SkipWithError("follower did not bootstrap");
      state.ResumeTiming();
      return;
    }
    const uint64_t bootstrapped = replica->applied_lsn();
    for (int64_t i = 0; i < backlog; ++i) {
      (void)leader->Run(SetStmt(i));
    }
    state.ResumeTiming();
    auto applied = replica->PollOnce();
    benchmark::DoNotOptimize(applied);
    state.PauseTiming();
    if (!applied.ok() || replica->applied_lsn() == bootstrapped ||
        replica->applied_lsn() != leader->wal_writer()->appended_lsn()) {
      state.SkipWithError("follower did not catch up in one poll");
      state.ResumeTiming();
      return;
    }
    replica.reset();
    leader.reset();
    state.ResumeTiming();
  }
  state.SetLabel("backlog=" + std::to_string(backlog));
  state.SetItemsProcessed(state.iterations() * backlog);
}
BENCHMARK(BM_ReplicaCatchUp)
    ->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// Steady state: a caught-up follower tails the leader commit by commit.
// Each iteration is one committed statement fully replicated (commit +
// auto-pump + poll), so comparing against BM_CommitMemoryWal isolates the
// shipping overhead per commit.
void BM_ReplicaSteadyStateLag(benchmark::State& state) {
  GraphDatabase leader;
  Seed(&leader);
  (void)leader.OpenDurable(std::make_unique<storage::MemoryLogFile>());
  auto transport = std::make_shared<replication::InProcessTransport>();
  replication::Replica replica(transport);
  auto id = leader.AttachFollower(transport);
  if (!id.ok()) {
    state.SkipWithError(id.status().ToString().c_str());
    return;
  }
  (void)replica.PollOnce();
  int64_t i = 0;
  uint64_t max_lag = 0;
  for (auto _ : state) {
    auto r = leader.Execute(SetStmt(i++));
    benchmark::DoNotOptimize(r);
    auto applied = replica.PollOnce();
    if (!applied.ok()) {
      state.SkipWithError(applied.status().ToString().c_str());
      return;
    }
    uint64_t lag =
        leader.wal_writer()->appended_lsn() - replica.applied_lsn();
    if (lag > max_lag) max_lag = lag;
    (void)leader.PumpReplication();  // deliver the ack
  }
  state.SetLabel("max_lag_bytes=" + std::to_string(max_lag));
  state.SetItemsProcessed(state.iterations());
  (void)leader.DetachFollower(*id);
}
BENCHMARK(BM_ReplicaSteadyStateLag)->Unit(benchmark::kMicrosecond);

// ---- Socket variants -------------------------------------------------------

replication::Endpoint BenchEndpoint(bool unix_domain) {
  if (unix_domain) {
    return replication::Endpoint::Unix("/tmp/cypher_bench_repl.sock");
  }
  return replication::Endpoint::Tcp("127.0.0.1", 0);
}

// Catch-up through a real socket: per iteration a fresh follower dials,
// bootstraps, and drains the backlog. Includes connect + hello + snapshot
// transfer, so the items/second gap to BM_ReplicaCatchUp is the whole wire
// path.
void SocketCatchUpBench(benchmark::State& state, bool unix_domain) {
  const int64_t backlog = state.range(0);
  GraphDatabase leader;
  Seed(&leader);
  (void)leader.OpenDurable(std::make_unique<storage::MemoryLogFile>());
  for (int64_t i = 0; i < backlog; ++i) {
    (void)leader.Run(SetStmt(i));
  }
  replication::SocketReplicationServer server;
  auto started = server.Start(&leader, BenchEndpoint(unix_domain),
                              ReplicationOptions{}, {});
  if (!started.ok()) {
    state.SkipWithError(started.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto transport = std::make_shared<replication::SocketTransport>(
        server.endpoint(), replication::SocketOptions{});
    replication::Replica replica(transport);
    transport->SetHelloSource([&replica] {
      return std::make_pair(replica.token(), replica.applied_lsn());
    });
    int64_t deadline = replication::SteadyNowMs() + 30000;
    while (replica.applied_lsn() != leader.wal_writer()->appended_lsn() &&
           replication::SteadyNowMs() < deadline) {
      auto applied = replica.PollOnce();
      if (!applied.ok()) {
        state.SkipWithError(applied.status().ToString().c_str());
        return;
      }
      transport->Pump();
    }
    if (replica.applied_lsn() != leader.wal_writer()->appended_lsn()) {
      state.SkipWithError("socket follower never caught up");
      return;
    }
    benchmark::DoNotOptimize(replica.applied_lsn());
    transport->Close();
    // Release the follower's pin before the next iteration attaches anew.
    state.PauseTiming();
    for (const auto& f : leader.replication_status().detail) {
      (void)leader.DetachFollower(f.id);
    }
    state.ResumeTiming();
  }
  server.Stop();
  state.SetLabel("backlog=" + std::to_string(backlog));
  state.SetItemsProcessed(state.iterations() * backlog);
}

void BM_SocketReplicaCatchUpTcp(benchmark::State& state) {
  SocketCatchUpBench(state, false);
}
void BM_SocketReplicaCatchUpUnix(benchmark::State& state) {
  SocketCatchUpBench(state, true);
}
BENCHMARK(BM_SocketReplicaCatchUpTcp)
    ->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SocketReplicaCatchUpUnix)
    ->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Steady state through the socket: one commit, then wait for the follower
// to apply it. Per-commit latency includes the server loop's tick, so this
// is replication LATENCY over loopback, not raw throughput.
void SocketSteadyStateBench(benchmark::State& state, bool unix_domain) {
  GraphDatabase leader;
  Seed(&leader);
  (void)leader.OpenDurable(std::make_unique<storage::MemoryLogFile>());
  replication::SocketReplicationServer server;
  auto started = server.Start(&leader, BenchEndpoint(unix_domain),
                              ReplicationOptions{}, {});
  if (!started.ok()) {
    state.SkipWithError(started.ToString().c_str());
    return;
  }
  auto transport = std::make_shared<replication::SocketTransport>(
      server.endpoint(), replication::SocketOptions{});
  replication::Replica replica(transport);
  transport->SetHelloSource([&replica] {
    return std::make_pair(replica.token(), replica.applied_lsn());
  });
  int64_t warmup = replication::SteadyNowMs() + 30000;
  while (!replica.bootstrapped() && replication::SteadyNowMs() < warmup) {
    (void)replica.PollOnce();
    transport->Pump();
    usleep(1000);
  }
  if (!replica.bootstrapped()) {
    state.SkipWithError("socket follower never bootstrapped");
    return;
  }
  int64_t i = 0;
  for (auto _ : state) {
    auto r = leader.Execute(SetStmt(i++));
    benchmark::DoNotOptimize(r);
    int64_t deadline = replication::SteadyNowMs() + 30000;
    while (replica.applied_lsn() != leader.wal_writer()->appended_lsn() &&
           replication::SteadyNowMs() < deadline) {
      auto applied = replica.PollOnce();
      if (!applied.ok()) {
        state.SkipWithError(applied.status().ToString().c_str());
        return;
      }
      transport->Pump();
    }
  }
  state.SetItemsProcessed(state.iterations());
  transport->Close();
  server.Stop();
}

void BM_SocketReplicaSteadyStateTcp(benchmark::State& state) {
  SocketSteadyStateBench(state, false);
}
void BM_SocketReplicaSteadyStateUnix(benchmark::State& state) {
  SocketSteadyStateBench(state, true);
}
BENCHMARK(BM_SocketReplicaSteadyStateTcp)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SocketReplicaSteadyStateUnix)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cypher

BENCHMARK_MAIN();
