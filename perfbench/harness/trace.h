#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

// Spans recorded by the benchmark around its calls into each layer, plus a
// LogFile decorator that times the leader's WAL I/O as child spans of the
// statement that triggered it.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/stats.h"
#include "storage/log_file.h"

namespace perfbench {

/// Aggregate of every span of one name.
struct SpanStats {
  uint64_t count = 0;
  double total_us = 0;
  double child_us = 0;  // time covered by child spans
  std::vector<double> durations_us;
  double self_us() const { return total_us - child_us; }
};

/// One recorded span; `parent` is 0 for a root.
struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  double start_us = 0;  // from the tracer's epoch
  double duration_us = 0;
};

/// Collects spans in memory. A disabled tracer records nothing and costs a
/// branch per scope. Spans nest per thread: a scope opened while another is
/// open on the same thread becomes its child.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    Clock::time_point start_;
    double child_us_ = 0;
    Scope* outer_ = nullptr;
  };

  std::map<std::string, SpanStats> Stats() const;
  /// Writes the first recorded spans (bounded) as JSON lines to `path`.
  void WriteSpans(const std::string& path) const;
  void Clear();

 private:
  void Record(const char* name, uint64_t id, uint64_t parent,
              Clock::time_point start, double duration_us, double child_us);

  static constexpr size_t kMaxKeptSpans = 20000;

  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;  // guarded by mu_
  std::map<std::string, SpanStats> stats_;
  std::vector<SpanRecord> kept_;
};

/// Pass-through LogFile that records `storage.append`, `storage.sync`,
/// `storage.replace` and `storage.truncate` spans and counts bytes. The
/// bytes reaching the wrapped file are exactly the bytes passed in.
class TimingLogFile : public cypher::storage::LogFile {
 public:
  struct Counters {
    uint64_t appends = 0;
    uint64_t append_bytes = 0;
    uint64_t syncs = 0;
    uint64_t replaces = 0;
    uint64_t replace_bytes = 0;
  };

  TimingLogFile(std::unique_ptr<cypher::storage::LogFile> base, Tracer* tracer);

  cypher::Status Append(const void* data, size_t size) override;
  cypher::Status Sync() override;
  cypher::Status Truncate(uint64_t new_size) override;
  cypher::Status Replace(const void* data, size_t size) override;
  cypher::Result<std::string> ReadAll() override;
  uint64_t size() const override;

  Counters counters() const;

 private:
  std::unique_ptr<cypher::storage::LogFile> base_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  Counters counters_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
