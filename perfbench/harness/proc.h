#ifndef PERFBENCH_HARNESS_PROC_H_
#define PERFBENCH_HARNESS_PROC_H_

// Process plumbing: the replica_server child, the per-run scratch
// directory, and what /proc and the build say about the machine.

#include <sys/types.h>

#include <memory>
#include <string>

#include "common/result.h"

namespace perfbench {

/// A replica_server child driven over its stdin/stdout line protocol. The
/// child is SIGKILLed and reaped on destruction, and dies with the harness
/// (PR_SET_PDEATHSIG) if the harness itself is killed.
class FollowerProcess {
 public:
  static cypher::Result<std::unique_ptr<FollowerProcess>> Spawn(
      const std::string& binary, const std::string& endpoint,
      const std::string& wal, const std::string& meta);

  ~FollowerProcess();
  FollowerProcess(const FollowerProcess&) = delete;
  FollowerProcess& operator=(const FollowerProcess&) = delete;

  /// Sends one command and returns its length-prefixed reply.
  cypher::Result<std::string> Request(const std::string& line,
                                      int timeout_ms = 60000);

  /// CPU time (user + system) the child has used, in microseconds.
  double CpuMicros() const;

  pid_t pid() const { return pid_; }

  /// SIGKILL + reap; idempotent.
  void Kill();

 private:
  FollowerProcess() = default;
  bool ReadExact(std::string* out, size_t n, int64_t deadline_ms);

  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
};

/// Kills the live follower (if any) from a signal handler, then exits.
void InstallSignalCleanup();

/// A unique scratch directory under `root` for one run's WAL, meta and
/// socket files, removed with everything in it on destruction.
class RunDir {
 public:
  /// Refuses (error) when an earlier run's follower child is still alive
  /// under `root`; removes leftovers of dead runs.
  static cypher::Result<std::unique_ptr<RunDir>> Create(const std::string& root);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }
  /// Records the follower's pid so a later run can detect a survivor.
  void NoteChild(pid_t pid) const;

 private:
  explicit RunDir(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Machine and build context as one JSON object.
std::string MachineContextJson(const std::string& wal_dir,
                               const std::string& flush_policy);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROC_H_
