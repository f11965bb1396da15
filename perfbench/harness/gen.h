#ifndef PERFBENCH_HARNESS_GEN_H_
#define PERFBENCH_HARNESS_GEN_H_

// Seeded generators: the preloaded graph and the statement stream of every
// workload. The engine only ever sees what these produce; the same seed
// yields a byte-identical stream (see SerializeStatement and the self-test).

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "cypher/database.h"
#include "value/value.h"

namespace perfbench {

/// Shape of the preloaded graph. Users carry id/name/age/city/score/visits,
/// products id/price/category; every user FOLLOWS `follows_per_user`
/// uniformly drawn users and ORDERED `orders_per_user` products. `tags`
/// :Tag nodes exist so point MERGE SAME statements always match.
struct GraphSpec {
  int64_t users = 0;
  int64_t products = 0;
  int follows_per_user = 0;
  int orders_per_user = 0;
  int cities = 50;
  int categories = 20;
  int tags = 0;
};

/// Builds the graph through GraphDatabase::Execute (batched UNWIND CREATE,
/// then indexes on :User(id), :Product(id) and :Tag(tid)).
cypher::Status BuildGraph(cypher::GraphDatabase* db, const GraphSpec& spec,
                          uint64_t seed);

/// One generated statement. `kind` is the operation class (workload
/// specific), `shape` the statement template it came from.
struct Statement {
  std::string text;
  cypher::ValueMap params;
  int kind = 0;
  int shape = 0;
};

/// Canonical text of a statement (text, kind, shape, sorted params) — what
/// the determinism check compares.
std::string SerializeStatement(const Statement& statement);

/// Zipf(s) ranks over [0, n), mapped through a seeded permutation so hot
/// keys are scattered over the id space.
class ZipfKeys {
 public:
  ZipfKeys(int64_t n, double s, uint64_t seed);
  int64_t Next(cypher::SplitMix64* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> ids_;
};

// ---- oltp_point -------------------------------------------------------------

enum OltpKind { kOltpRead = 0, kOltpWrite = 1 };

/// 90% parametrized 1-hop point reads over six shapes, 10% point writes
/// (SET, counter SET, MERGE SAME on a pre-created tag, CREATE/DELETE of a
/// :VIEWED relationship paired so the graph size stays constant), with
/// Zipf-skewed user keys.
class OltpGenerator {
 public:
  OltpGenerator(const GraphSpec& spec, uint64_t seed);
  Statement Next();

  /// :VIEWED relationships the stream has created and not yet deleted.
  size_t live_viewed() const { return viewed_.size(); }

 private:
  GraphSpec spec_;
  cypher::SplitMix64 rng_;
  ZipfKeys keys_;
  std::deque<std::pair<int64_t, int64_t>> viewed_;  // (user, at) pairs
  bool delete_next_ = false;
  int64_t counter_ = 0;
};

// ---- analytic ---------------------------------------------------------------

enum AnalyticClass {
  kFriendOfFriend = 0,
  kTrailCount = 1,
  kLabelScan = 2,
  kShortestPath = 3,
};
inline constexpr int kAnalyticClasses = 4;

/// The analytic reader: four read classes over a handful of shapes.
class AnalyticReadGenerator {
 public:
  AnalyticReadGenerator(const GraphSpec& spec, uint64_t seed);
  Statement Next();
  /// One statement of the given class (layer timings use fixed draws).
  Statement Make(int cls);

 private:
  GraphSpec spec_;
  cypher::SplitMix64 rng_;
};

/// The analytic open-loop writer: SET-only point updates, eight per
/// statement. A single ~10 us point SET took 2-3x longer on some runs than
/// on others (cold caches after the writer's sleep); eight keep the
/// statement's cost from hinging on that.
class AnalyticWriteGenerator {
 public:
  static constexpr int kPointsPerWrite = 8;

  AnalyticWriteGenerator(const GraphSpec& spec, uint64_t seed);
  Statement Next();

 private:
  GraphSpec spec_;
  cypher::SplitMix64 rng_;
  int64_t counter_ = 0;
};

// ---- ingest_replicated ------------------------------------------------------

/// CSV-style import for one writer session: each statement inlines 64
/// [user, product] rows (48 fresh pairs, 16 re-imports of live pairs) and
/// MERGE SAMEs them, then deletes the fresh pairs of the statement
/// `kRetractLag` earlier, so the graph, the WAL bytes per statement and the
/// match-vs-create mix hold still. Writer w only touches users with
/// id % writers == w, so concurrent writers never interact.
class IngestGenerator {
 public:
  static constexpr int kRows = 64;
  static constexpr int kFresh = 48;
  static constexpr size_t kRetractLag = 8;

  IngestGenerator(const GraphSpec& spec, uint64_t seed, int writer,
                  int writers);
  Statement Next();

 private:
  std::pair<int64_t, int64_t> FreshPair();

  GraphSpec spec_;
  cypher::SplitMix64 rng_;
  int writer_;
  int writers_;
  std::deque<std::vector<std::pair<int64_t, int64_t>>> window_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_GEN_H_
