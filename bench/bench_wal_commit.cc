// Engineering bench: what durability costs per committed statement.
//
//   no WAL            — the in-memory engine alone (baseline)
//   memory WAL        — image encode + framing + checksum, no disk
//   fsync-per-commit  — a real file, one fsync inside every commit
//   group commit      — a real file, concurrent sessions sharing fsyncs
//
// The interesting ratios: memory-WAL / no-WAL isolates the logging
// machinery (should be small), fsync / memory isolates the disk (should
// dominate), and group commit at N threads should amortize the fsync —
// statements/second climbing well past the fsync-per-commit ceiling.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "storage/log_file.h"

namespace cypher {
namespace {

constexpr int64_t kNodes = 64;

// A fixed working set: commits are single-property SETs, so every record is
// a few dozen bytes and the graph (hence statement cost) stays constant no
// matter how long the bench runs.
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

std::string TempWalPath(const char* name) {
  std::string path = "/tmp/cypher_bench_wal_";
  path += name;
  path += ".log";
  std::remove(path.c_str());
  return path;
}

void BM_CommitNoWal(benchmark::State& state) {
  GraphDatabase db;
  Seed(&db);
  int64_t i = 0;
  for (auto _ : state) {
    auto r = db.Execute(SetStmt(i++));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitNoWal)->Unit(benchmark::kMicrosecond);

void BM_CommitMemoryWal(benchmark::State& state) {
  GraphDatabase db;
  Seed(&db);
  (void)db.OpenDurable(std::make_unique<storage::MemoryLogFile>());
  int64_t i = 0;
  for (auto _ : state) {
    auto r = db.Execute(SetStmt(i++));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommitMemoryWal)->Unit(benchmark::kMicrosecond);

void BM_CommitFsyncEveryCommit(benchmark::State& state) {
  GraphDatabase db;
  Seed(&db);
  std::string path = TempWalPath("every");
  auto file = storage::OpenPosixLogFile(path);
  if (!file.ok()) {
    state.SkipWithError(file.status().ToString().c_str());
    return;
  }
  (void)db.OpenDurable(std::move(*file));  // SyncMode::kEveryCommit
  int64_t i = 0;
  for (auto _ : state) {
    auto r = db.Execute(SetStmt(i++));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_CommitFsyncEveryCommit)->Unit(benchmark::kMicrosecond);

// N sessions hammering one durable database: each bench iteration is one
// batch of N threads x kPerThread commits, so items/second is aggregate
// commit throughput. Group commit lets whichever thread lands the fsync
// cover everyone buffered behind it.
void BM_CommitGroupCommit(benchmark::State& state) {
  constexpr int64_t kPerThread = 16;
  const int64_t threads = state.range(0);
  GraphDatabase db;
  Seed(&db);
  std::string path = TempWalPath(("group" + std::to_string(threads)).c_str());
  auto file = storage::OpenPosixLogFile(path);
  if (!file.ok()) {
    state.SkipWithError(file.status().ToString().c_str());
    return;
  }
  DurabilityOptions durability;
  durability.sync_mode = DurabilityOptions::SyncMode::kGroupCommit;
  (void)db.OpenDurable(std::move(*file), durability);
  int64_t batch = 0;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int64_t t = 0; t < threads; ++t) {
      int64_t base = (batch * threads + t) * kPerThread;
      workers.emplace_back([&db, base]() {
        for (int64_t i = 0; i < kPerThread; ++i) {
          auto r = db.Execute(SetStmt(base + i));
          benchmark::DoNotOptimize(r);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    ++batch;
  }
  state.SetLabel("sessions=" + std::to_string(threads));
  state.SetItemsProcessed(state.iterations() * threads * kPerThread);
  std::remove(path.c_str());
}
BENCHMARK(BM_CommitGroupCommit)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()  // work happens on the spawned sessions, not this thread
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cypher

BENCHMARK_MAIN();
