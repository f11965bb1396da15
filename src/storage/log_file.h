#ifndef CYPHER_STORAGE_LOG_FILE_H_
#define CYPHER_STORAGE_LOG_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"

namespace cypher::storage {

/// Pluggable append-only I/O surface under the write-ahead log.
///
/// Three implementations: PosixLogFile (a real file, fsync-backed),
/// MemoryLogFile (a byte buffer, for tests and benches that should not touch
/// disk), and FaultyLogFile (a fault-injecting wrapper that fails, tears or
/// drops writes at a chosen point, driving the crash-recovery harness).
///
/// All failures use StatusCode::kAborted so the database layer can treat
/// any log I/O error as "this commit is off" uniformly. Implementations are
/// not thread-safe; WalWriter serializes access.
class LogFile {
 public:
  virtual ~LogFile() = default;

  /// Appends `size` bytes at the end. A failed append may leave a prefix of
  /// the bytes behind (a torn write) — recovery's checksum scan handles it.
  virtual Status Append(const void* data, size_t size) = 0;

  /// Makes everything appended so far survive a crash.
  virtual Status Sync() = 0;

  /// Drops everything past `new_size` (recovery truncates torn tails).
  virtual Status Truncate(uint64_t new_size) = 0;

  /// Replaces the whole contents with `size` bytes and makes the result
  /// durable (log compaction, see WalWriter::Rewrite). The default is
  /// truncate + append + sync — correct but not crash-atomic; PosixLogFile
  /// overrides it with write-to-temp + rename so a crash mid-compaction
  /// leaves either the old log or the new one, never a hybrid.
  virtual Status Replace(const void* data, size_t size) {
    Status st = Truncate(0);
    if (st.ok()) st = Append(data, size);
    if (st.ok()) st = Sync();
    return st;
  }

  /// The full current contents (recovery reads the log once at open).
  virtual Result<std::string> ReadAll() = 0;

  /// The `len` bytes at `offset` (the replication shipper reads only the
  /// tail it has not shipped). A range past the end is an error. The
  /// default slices ReadAll — correct, but it reads the whole log;
  /// PosixLogFile and MemoryLogFile read just the range.
  virtual Result<std::string> ReadRange(uint64_t offset, uint64_t len) {
    CYPHER_ASSIGN_OR_RETURN(std::string all, ReadAll());
    return Slice(all, offset, len);
  }

  virtual uint64_t size() const = 0;

 protected:
  /// The `len` bytes of `bytes` at `offset`, or an error past the end.
  static Result<std::string> Slice(const std::string& bytes, uint64_t offset,
                                   uint64_t len) {
    if (offset > bytes.size() || len > bytes.size() - offset) {
      return Status::Aborted("log file: read past the end");
    }
    return bytes.substr(offset, len);
  }
};

/// Opens (creating if absent) an append-only file at `path`. Sync runs
/// fsync(2); durability is as real as the filesystem makes it.
Result<std::unique_ptr<LogFile>> OpenPosixLogFile(const std::string& path);

/// An in-memory log: "durable" means "still in the buffer". The crash tests
/// snapshot `bytes()` to simulate what a real disk would hold.
class MemoryLogFile : public LogFile {
 public:
  Status Append(const void* data, size_t size) override {
    bytes_.append(static_cast<const char*>(data), size);
    return Status::OK();
  }
  Status Sync() override {
    synced_size_ = bytes_.size();
    return Status::OK();
  }
  Status Truncate(uint64_t new_size) override {
    if (new_size < bytes_.size()) bytes_.resize(new_size);
    if (synced_size_ > bytes_.size()) synced_size_ = bytes_.size();
    return Status::OK();
  }
  Result<std::string> ReadAll() override { return bytes_; }
  Result<std::string> ReadRange(uint64_t offset, uint64_t len) override {
    return Slice(bytes_, offset, len);
  }
  uint64_t size() const override { return bytes_.size(); }

  const std::string& bytes() const { return bytes_; }
  /// Bytes covered by the last Sync — what a crash right now would keep if
  /// the OS dropped every unflushed page (the harshest legal outcome).
  uint64_t synced_size() const { return synced_size_; }

 private:
  std::string bytes_;
  uint64_t synced_size_ = 0;
};

/// Fault-injection wrapper: passes calls through to `base` until a
/// configured trip point, then fails every call (a dying disk stays dead).
/// The crossing Append can optionally tear — write a prefix of its bytes
/// before failing — which is exactly the half-written-record case the
/// torn-write rule must make invisible. Replace follows PosixLogFile's
/// protocol — temp write, fsync, rename — as three counted calls, and the
/// temp write charges its bytes against the byte budget; a trip at any step
/// leaves `base` holding the old log (a torn temp file is never renamed).
class FaultyLogFile : public LogFile {
 public:
  explicit FaultyLogFile(std::unique_ptr<LogFile> base)
      : base_(std::move(base)) {}

  /// Trips once `budget` total bytes have been appended. When `torn`, the
  /// append that crosses the budget writes the remaining budget first.
  void FailAfterBytes(uint64_t budget, bool torn) {
    byte_budget_ = budget;
    torn_ = torn;
    has_byte_budget_ = true;
  }

  /// Trips on the `calls`-th Append/Sync call (1-based) and every later one;
  /// each Replace step counts as one call.
  void FailAfterCalls(uint64_t calls) {
    call_budget_ = calls;
    has_call_budget_ = true;
  }

  bool tripped() const { return tripped_; }

  /// Append/Sync calls (and Replace steps) made so far.
  uint64_t calls() const { return calls_; }

  /// The wrapped log (tests inspect what survived the "crash").
  LogFile* base() { return base_.get(); }

  Status Append(const void* data, size_t size) override {
    if (CountCall()) return Trip();
    if (has_byte_budget_ && appended_ + size > byte_budget_) {
      uint64_t room = byte_budget_ - appended_;
      if (torn_ && room > 0) {
        Status st = base_->Append(data, room);
        if (!st.ok()) return st;
      }
      appended_ = byte_budget_;
      return Trip();
    }
    appended_ += size;
    return base_->Append(data, size);
  }

  Status Sync() override {
    if (CountCall()) return Trip();
    return base_->Sync();
  }

  Status Truncate(uint64_t new_size) override {
    return base_->Truncate(new_size);
  }

  Status Replace(const void* data, size_t size) override {
    if (CountCall()) return Trip();  // temp write
    if (has_byte_budget_ && appended_ + size > byte_budget_) {
      appended_ = byte_budget_;
      return Trip();
    }
    appended_ += size;
    if (CountCall()) return Trip();  // fsync
    if (CountCall()) return Trip();  // rename
    return base_->Replace(data, size);
  }

  Result<std::string> ReadAll() override { return base_->ReadAll(); }

  Result<std::string> ReadRange(uint64_t offset, uint64_t len) override {
    return base_->ReadRange(offset, len);
  }

  uint64_t size() const override { return base_->size(); }

 private:
  /// Counts one Append/Sync; true when the call budget (or an earlier trip)
  /// says this call must fail.
  bool CountCall() {
    ++calls_;
    if (has_call_budget_ && calls_ >= call_budget_) tripped_ = true;
    return tripped_;
  }

  Status Trip() {
    tripped_ = true;
    return Status::Aborted("injected log I/O fault");
  }

  std::unique_ptr<LogFile> base_;
  uint64_t byte_budget_ = 0;
  uint64_t call_budget_ = 0;
  uint64_t appended_ = 0;
  uint64_t calls_ = 0;
  bool has_byte_budget_ = false;
  bool has_call_budget_ = false;
  bool torn_ = false;
  bool tripped_ = false;
};

}  // namespace cypher::storage

#endif  // CYPHER_STORAGE_LOG_FILE_H_
