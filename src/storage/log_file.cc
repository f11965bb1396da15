#include "storage/log_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace cypher::storage {

namespace {

Status IoError(const std::string& what) {
  return Status::Aborted("log file: " + what + ": " + std::strerror(errno));
}

/// fsync-backed append-only file. The descriptor is opened O_APPEND so a
/// crashed writer can never scribble into the committed prefix.
class PosixLogFile : public LogFile {
 public:
  PosixLogFile(int fd, uint64_t size, std::string path)
      : fd_(fd), size_(size), path_(std::move(path)) {}

  ~PosixLogFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const void* data, size_t size) override {
    const char* p = static_cast<const char*>(data);
    size_t left = size;
    while (left > 0) {
      ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return IoError("write");
      }
      p += n;
      left -= static_cast<size_t>(n);
      size_ += static_cast<uint64_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return IoError("fsync");
    return Status::OK();
  }

  Status Truncate(uint64_t new_size) override {
    if (new_size >= size_) return Status::OK();
    if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
      return IoError("ftruncate");
    }
    size_ = new_size;
    // O_APPEND writes always go to the (new) end; no lseek needed.
    return Status::OK();
  }

  Result<std::string> ReadAll() override {
    std::string out;
    CYPHER_RETURN_NOT_OK(Pread(0, size_, &out));
    return out;  // shorter than expected: trust what is there
  }

  Result<std::string> ReadRange(uint64_t offset, uint64_t len) override {
    std::string out;
    CYPHER_RETURN_NOT_OK(Pread(offset, len, &out));
    if (out.size() != len) {
      return Status::Aborted("log file: read past the end");
    }
    return out;
  }

  /// Crash-atomic whole-file replacement: write a sibling temp file, fsync
  /// it, rename over the log, then reopen in append mode. rename(2) is
  /// atomic on POSIX filesystems, so a crash anywhere in here leaves either
  /// the complete old log or the complete new one.
  Status Replace(const void* data, size_t size) override {
    std::string tmp = path_ + ".compact";
    int tfd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (tfd < 0) return IoError("open " + tmp);
    const char* p = static_cast<const char*>(data);
    size_t left = size;
    while (left > 0) {
      ssize_t n = ::write(tfd, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(tfd);
        return IoError("write " + tmp);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    if (::fsync(tfd) != 0) {
      ::close(tfd);
      return IoError("fsync " + tmp);
    }
    if (::rename(tmp.c_str(), path_.c_str()) != 0) {
      ::close(tfd);
      return IoError("rename " + tmp);
    }
    // tfd still names the (renamed) file but was opened without O_APPEND;
    // swap in a fresh append-mode descriptor.
    ::close(tfd);
    int fd = ::open(path_.c_str(), O_RDWR | O_APPEND);
    if (fd < 0) return IoError("reopen " + path_);
    ::close(fd_);
    fd_ = fd;
    size_ = size;
    return Status::OK();
  }

  uint64_t size() const override { return size_; }

 private:
  /// Reads up to `len` bytes at `offset` into `*out`, stopping early at
  /// the end of the file.
  Status Pread(uint64_t offset, uint64_t len, std::string* out) {
    out->resize(len);
    size_t done = 0;
    while (done < len) {
      ssize_t n = ::pread(fd_, out->data() + done, len - done,
                          static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return IoError("pread");
      }
      if (n == 0) break;
      done += static_cast<size_t>(n);
    }
    out->resize(done);
    return Status::OK();
  }

  int fd_;
  uint64_t size_;
  std::string path_;
};

}  // namespace

Result<std::unique_ptr<LogFile>> OpenPosixLogFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return IoError("open " + path);
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return IoError("lseek " + path);
  }
  return std::unique_ptr<LogFile>(
      new PosixLogFile(fd, static_cast<uint64_t>(end), path));
}

}  // namespace cypher::storage
