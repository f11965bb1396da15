// Query watchdog: cooperative cancellation through CancelToken. An expired
// deadline or an explicit Cancel() must unwind the interpreter, the
// matcher's sequential walks and the parallel anchor tiles with the right
// status code, and a cancelled update statement must roll back completely.
// The concurrent sections double as the TSan target for the cancellation
// paths.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "query_gen.h"
#include "test_util.h"

namespace cypher {
namespace {

using testing::BuildRandomGraph;
using testing::GenerateReadQuery;

// A var-length pattern over the random graph: enough expansion work that
// every engine layer (scan, fixed step, BFS/DFS walk) runs.
constexpr char kExpensiveQuery[] =
    "MATCH (a)-[:R|S*1..4]-(b) RETURN count(*) AS c";

CancelToken ExpiredDeadline() {
  return CancelToken::WithDeadline(std::chrono::steady_clock::now() -
                                   std::chrono::seconds(1));
}

TEST(Watchdog, InactiveTokenNeverCancels) {
  CancelToken token;
  EXPECT_FALSE(token.active());
  EXPECT_TRUE(token.Check().ok());
  token.Cancel();  // no-op on an inactive token
  EXPECT_TRUE(token.Check().ok());
}

TEST(Watchdog, TokenCodes) {
  CancelToken cancellable = CancelToken::Cancellable();
  EXPECT_TRUE(cancellable.Check().ok());
  cancellable.Cancel();
  EXPECT_EQ(cancellable.Check().code(), StatusCode::kAborted);

  CancelToken expired = ExpiredDeadline();
  EXPECT_EQ(expired.Check().code(), StatusCode::kDeadlineExceeded);
  // The deadline latch is sticky: copies see the same verdict.
  CancelToken copy = expired;
  EXPECT_EQ(copy.Check().code(), StatusCode::kDeadlineExceeded);

  CancelToken future =
      CancelToken::WithTimeout(std::chrono::hours(1));
  EXPECT_TRUE(future.Check().ok());
}

TEST(Watchdog, GateChecksFirstCall) {
  // The gate must forward the very first Check so an already-expired
  // deadline cancels before any work happens.
  CancelToken expired = ExpiredDeadline();
  CancelGate gate(&expired);
  EXPECT_EQ(gate.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(Watchdog, ExpiredDeadlineCancelsSequentialMatch) {
  GraphDatabase db;
  ASSERT_TRUE(BuildRandomGraph(&db, 21).ok());
  std::string before = DumpGraph(db.graph());
  db.options().cancel = ExpiredDeadline();
  auto result = db.Execute(kExpensiveQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(DumpGraph(db.graph()), before);
  // A fresh token clears the watchdog; the same query then succeeds.
  db.options().cancel = CancelToken();
  EXPECT_TRUE(db.Run(kExpensiveQuery).ok());
}

TEST(Watchdog, ExpiredDeadlineCancelsParallelMatch) {
  GraphDatabase db;
  ASSERT_TRUE(BuildRandomGraph(&db, 22).ok());
  db.options().parallel_workers = 2;
  db.options().parallel_min_cost = 1;  // force the parallel path on
  std::string before = DumpGraph(db.graph());
  db.options().cancel = ExpiredDeadline();
  auto result = db.Execute(kExpensiveQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(DumpGraph(db.graph()), before);
}

TEST(Watchdog, ExplicitCancelIsAborted) {
  GraphDatabase db;
  ASSERT_TRUE(BuildRandomGraph(&db, 23).ok());
  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  db.options().cancel = token;
  auto result = db.Execute(kExpensiveQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
}

TEST(Watchdog, CancelledUpdateRollsBack) {
  GraphDatabase db;
  ASSERT_TRUE(BuildRandomGraph(&db, 24).ok());
  std::string before = DumpGraph(db.graph());
  db.options().cancel = ExpiredDeadline();
  // The CREATE would touch every (a, b) pair; cancellation must leave no
  // trace of any partial execution.
  auto result = db.Execute(
      "MATCH (a:A), (b:B) WHERE a.k = b.k CREATE (a)-[:LINK]->(b)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(DumpGraph(db.graph()), before);
}

TEST(Watchdog, TightDeadlineEventuallyFires) {
  // A deadline that expires mid-flight (not before the first poll): run
  // with ever-tighter budgets until one trips inside the walk. Whatever
  // the timing, the only legal outcomes are success or kDeadlineExceeded.
  GraphDatabase db;
  ASSERT_TRUE(BuildRandomGraph(&db, 25).ok());
  std::string before = DumpGraph(db.graph());
  bool tripped = false;
  for (int micros : {2000, 500, 100, 20, 5, 1, 0}) {
    db.options().cancel =
        CancelToken::WithTimeout(std::chrono::microseconds(micros));
    auto result = db.Execute(kExpensiveQuery);
    if (result.ok()) continue;
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(DumpGraph(db.graph()), before);
    tripped = true;
  }
  EXPECT_TRUE(tripped) << "even a zero-budget deadline never fired";
}

// Cancellation stress: one thread keeps cancelling mid-flight while the
// main thread executes queries. Exercises the cross-thread token handoff
// the TSan job watches; results are checked for status sanity only.
TEST(Watchdog, ConcurrentCancelStress) {
  GraphDatabase db;
  ASSERT_TRUE(BuildRandomGraph(&db, 26).ok());
  db.options().parallel_workers = 2;
  db.options().parallel_min_cost = 1;
  std::string before = DumpGraph(db.graph());

  for (int round = 0; round < 30; ++round) {
    CancelToken token = CancelToken::Cancellable();
    db.options().cancel = token;
    std::atomic<bool> started{false};
    std::thread canceller([&]() {
      while (!started.load(std::memory_order_acquire)) {
      }
      // Stagger the cancel across rounds so it lands at different points
      // of the walk: immediately, or after a short busy wait.
      for (int spin = 0; spin < round * 997; ++spin) {
        std::atomic_signal_fence(std::memory_order_seq_cst);
      }
      token.Cancel();
    });
    started.store(true, std::memory_order_release);
    auto result = db.Execute(kExpensiveQuery);
    canceller.join();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kAborted)
          << result.status().ToString();
    }
    EXPECT_EQ(DumpGraph(db.graph()), before) << "round " << round;
  }
}

// Read queries of every generator shape run unperturbed under an armed but
// never-fired watchdog: polling must not change results.
TEST(Watchdog, ArmedWatchdogDoesNotPerturbResults) {
  GraphDatabase plain, watched;
  ASSERT_TRUE(BuildRandomGraph(&plain, 27).ok());
  ASSERT_TRUE(BuildRandomGraph(&watched, 27).ok());
  watched.options().cancel = CancelToken::WithTimeout(std::chrono::hours(1));
  for (uint64_t seed = 0; seed < 20; ++seed) {
    std::string q = GenerateReadQuery(seed);
    auto want = plain.Execute(q);
    auto got = watched.Execute(q);
    ASSERT_EQ(want.ok(), got.ok()) << q;
    if (!want.ok()) continue;
    EXPECT_EQ(RenderResult(watched.graph(), *got),
              RenderResult(plain.graph(), *want))
        << q;
  }
}

}  // namespace
}  // namespace cypher
