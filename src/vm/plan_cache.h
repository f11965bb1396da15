#ifndef CYPHER_VM_PLAN_CACHE_H_
#define CYPHER_VM_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/query.h"
#include "exec/match_slots.h"
#include "value/value.h"

namespace cypher {

/// A plan-cache entry: the auto-parametrized AST plus the stamped match
/// slots of its top-level MATCH clauses; the interpreter runs the AST. The
/// Query owns every clause the slots point at — clause nodes are
/// heap-allocated behind ClausePtr, so the pointers stay stable for the
/// life of the entry.
struct CachedPlan {
  Query ast;
  MatchSlots match_slots;
  size_t num_params = 0;  // auto-extracted literal slots ($#0 .. $#N-1)
};

/// One session's view of cache effectiveness. The PlanCacheStats counters
/// below are process-global (every session shares one cache); each session
/// — the writer database's default session and every snapshot ReadSession —
/// additionally tallies its own lookups here so the shell can report "this
/// session's" hit rate next to the global one. The writer session is shared
/// by every thread executing on the database, so the tallies are relaxed
/// atomics; copies are point-in-time values.
struct SessionCacheCounters {
  std::atomic<uint64_t> hits{0};    // raw + shape
  std::atomic<uint64_t> misses{0};  // parsed and compiled fresh

  SessionCacheCounters() = default;
  SessionCacheCounters(const SessionCacheCounters& other) noexcept {
    *this = other;
  }
  SessionCacheCounters& operator=(const SessionCacheCounters& other) noexcept {
    hits.store(other.hits.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    misses.store(other.misses.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }
};

/// Point-in-time counters (see PlanCache). `hits` = raw_hits + shape_hits.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t raw_hits = 0;    // L1: exact statement text seen before
  uint64_t shape_hits = 0;  // L2: new text, known normalized shape
  size_t entries = 0;       // raw + shape entries currently resident
};

/// Thread-safe two-level parametrized plan cache.
///
/// Level 1 keys on the raw statement text: a hit skips parsing entirely and
/// replays the literals extracted when the text was first seen. Level 2
/// keys on the normalized shape (the auto-parametrized statement printed
/// back to Cypher), so `... {id: 1}` and `... {id: 2}` share one compiled
/// plan. Both levels store the same shared_ptr<const CachedPlan>; raw
/// entries additionally carry their literal vector.
///
/// Callers build the key strings: an options fingerprint (execution options
/// that change semantics must not share plans) plus a "raw:" / "shape:"
/// namespace prefix so the two levels can never collide.
///
/// Sharded LRU: keys hash to one of kNumShards independently-locked
/// shards, each with its own recency list and per-shard capacity, so
/// concurrent sessions rarely contend. Counters are atomics updated
/// outside the shard locks.
class PlanCache {
 public:
  static constexpr size_t kNumShards = 8;

  /// `capacity` is the total entry budget, split evenly across shards
  /// (minimum one per shard).
  explicit PlanCache(size_t capacity = 256);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// L1 lookup. A hit counts hits+raw_hits and returns the plan plus a copy
  /// of the extracted literals (positional: literal i binds `$#i`). A miss
  /// counts nothing — the subsequent shape lookup decides hit vs miss.
  std::optional<std::pair<std::shared_ptr<const CachedPlan>,
                          std::vector<Value>>>
  LookupRaw(const std::string& key);

  /// L2 lookup. A hit counts hits+shape_hits; a miss counts misses.
  std::shared_ptr<const CachedPlan> LookupShape(const std::string& key);

  /// Side-effect-free shape probe for EXPLAIN: reports whether executing
  /// the statement now would hit, without touching counters or recency.
  bool PeekShape(const std::string& key) const;

  void InsertRaw(const std::string& key,
                 std::shared_ptr<const CachedPlan> plan,
                 std::vector<Value> literals);
  void InsertShape(const std::string& key,
                   std::shared_ptr<const CachedPlan> plan);

  /// Drops every entry (counters keep accumulating). Called when the graph
  /// object itself is replaced (load from snapshot, WAL recovery): resident
  /// plans hold match-plan slots stamped against the old graph, and a
  /// coincidentally-equal stamp must not revive them.
  void Clear();

  PlanCacheStats Stats() const;

  /// Zeroes the counters (shell `:cache clear` resets both).
  void ResetStats();

 private:
  struct Entry {
    std::shared_ptr<const CachedPlan> plan;
    std::vector<Value> literals;  // raw entries only
    std::list<std::string>::iterator lru;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> map;
    std::list<std::string> order;  // front = most recently used
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;
  void Touch(Shard& shard, Entry& entry, const std::string& key);
  void Insert(const std::string& key, std::shared_ptr<const CachedPlan> plan,
              std::vector<Value> literals);

  size_t per_shard_capacity_;
  Shard shards_[kNumShards];

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> raw_hits_{0};
  std::atomic<uint64_t> shape_hits_{0};
};

}  // namespace cypher

#endif  // CYPHER_VM_PLAN_CACHE_H_
