#ifndef CYPHER_COMMON_THREAD_POOL_H_
#define CYPHER_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cypher {

/// Reusable worker pool for morsel-driven parallel execution.
///
/// One process-wide pool (`Shared()`) serves every parallel region; worker
/// threads are spawned lazily up to `max_helpers` and then parked on a
/// condition variable between regions, so a region costs two lock/notify
/// round-trips rather than thread creation.
///
/// Regions are *jobs* on an open-job list, so a task may submit a nested
/// region: the nested Run pushes its own job, parked helpers adopt
/// it, and the submitting task drains it like any other participant.
/// Helpers prefer the newest open job — the deepest region's submitter is
/// itself blocked inside an outer task, so finishing inner work first
/// unblocks the most.
///
/// Tasks are claimed from a per-job atomic counter (the morsel dispenser of
/// morsel-driven scheduling): a slow task does not stall the others, and
/// task index — not thread identity — determines where each result lands,
/// which is what keeps parallel output deterministic.
class ThreadPool {
 public:
  explicit ThreadPool(size_t max_helpers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs `fn(0) .. fn(num_tasks - 1)`, each exactly once, across up to
  /// `workers` threads (the calling thread participates, so at most
  /// `workers - 1` helpers join). Blocks until every task has finished.
  /// Tasks must not throw. Re-entrant calls from inside a task are
  /// supported and submit a real nested job; with no parked helpers they
  /// degrade gracefully to the calling task draining its own job inline.
  void Run(size_t num_tasks, size_t workers,
           const std::function<void(size_t)>& fn);

  /// Runs `fn` across the pool with no snapshot-pin propagation (Run wraps
  /// tasks so helpers inherit the submitting thread's MVCC read pin; this
  /// is the raw path it delegates to).
  void RunImpl(size_t num_tasks, size_t workers,
               const std::function<void(size_t)>& fn);

  /// Helper threads this pool may spawn (not counting callers).
  size_t max_helpers() const { return max_helpers_; }

  /// Process-wide pool used by the parallel executor.
  static ThreadPool& Shared();

 private:
  /// One parallel region. `next` hands out task indices, `done` counts
  /// finished tasks (the submitter waits on it), `joined` caps simultaneous
  /// helpers so `workers` is honored even when more threads are parked.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t num_tasks = 0;
    size_t helpers_wanted = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t joined = 0;  // guarded by mu_
  };

  void WorkerMain();
  void DrainJob(Job* job);
  bool FindJobLocked(std::shared_ptr<Job>* out);

  const size_t max_helpers_;

  /// Protects the job list, per-job `joined`, and the worker lifecycle.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  std::vector<std::shared_ptr<Job>> jobs_;  // open jobs, oldest first
  bool stop_ = false;
};

}  // namespace cypher

#endif  // CYPHER_COMMON_THREAD_POOL_H_
