#include "harness/proc.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "replication/socket_transport.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace fs = std::filesystem;
using cypher::Result;
using cypher::Status;
using cypher::replication::SteadyNowMs;

namespace {

std::atomic<pid_t> live_child{-1};

void OnFatalSignal(int sig) {
  pid_t child = live_child.load();
  if (child > 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
  ::_exit(128 + sig);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool ProcessAlive(pid_t pid, const std::string& name_part) {
  if (pid <= 0) return false;
  std::string cmdline = ReadFile("/proc/" + std::to_string(pid) + "/cmdline");
  return !cmdline.empty() && cmdline.find(name_part) != std::string::npos;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<FollowerProcess>> FollowerProcess::Spawn(
    const std::string& binary, const std::string& endpoint,
    const std::string& wal, const std::string& meta) {
  int to_child[2], from_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0) return Status::Aborted("pipe failed");
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return Status::Aborted("pipe failed");
  }
  pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) return Status::Aborted("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);  // harness already gone
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::execl(binary.c_str(), "replica_server", endpoint.c_str(), wal.c_str(),
            meta.c_str(), nullptr);
    ::_exit(127);
  }
  live_child.store(pid);
  ::close(to_child[0]);
  ::close(from_child[1]);
  std::unique_ptr<FollowerProcess> child(new FollowerProcess());
  child->pid_ = pid;
  child->in_fd_ = to_child[1];
  child->out_fd_ = from_child[0];
  return child;
}

FollowerProcess::~FollowerProcess() { Kill(); }

void FollowerProcess::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    live_child.store(-1);
    pid_ = -1;
  }
  if (in_fd_ >= 0) ::close(in_fd_);
  if (out_fd_ >= 0) ::close(out_fd_);
  in_fd_ = out_fd_ = -1;
}

bool FollowerProcess::ReadExact(std::string* out, size_t n,
                                int64_t deadline_ms) {
  char buf[65536];
  while (out->size() < n) {
    int64_t left = deadline_ms - SteadyNowMs();
    if (left <= 0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    size_t want = std::min(sizeof(buf), n - out->size());
    ssize_t got = ::read(out_fd_, buf, want);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out->append(buf, static_cast<size_t>(got));
  }
  return true;
}

Result<std::string> FollowerProcess::Request(const std::string& line,
                                             int timeout_ms) {
  if (pid_ <= 0) return Status::Aborted("follower not running");
  std::string framed = line + "\n";
  if (::write(in_fd_, framed.data(), framed.size()) !=
      static_cast<ssize_t>(framed.size())) {
    return Status::Aborted("write to follower failed");
  }
  int64_t deadline = SteadyNowMs() + timeout_ms;
  std::string header;
  while (header.empty() || header.back() != '\n') {
    std::string byte;
    if (!ReadExact(&byte, 1, deadline)) {
      return Status::Aborted("follower reply timed out: " + line);
    }
    header += byte;
  }
  if (header[0] != '#') return Status::Aborted("malformed reply: " + header);
  size_t size = std::strtoull(header.c_str() + 1, nullptr, 10);
  std::string payload;
  if (!ReadExact(&payload, size, deadline)) {
    return Status::Aborted("follower reply truncated: " + line);
  }
  return payload;
}

double FollowerProcess::CpuMicros() const {
  std::string stat = ReadFile("/proc/" + std::to_string(pid_) + "/stat");
  size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // Fields after the command: state is field 3; utime/stime are 14 and 15.
  for (int index = 3; index <= 15 && in >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) * 1e6 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void InstallSignalCleanup() {
  struct sigaction action {};
  action.sa_handler = OnFatalSignal;
  ::sigemptyset(&action.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGPIPE}) {
    ::sigaction(sig, &action, nullptr);
  }
}

Result<std::unique_ptr<RunDir>> RunDir::Create(const std::string& root) {
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) return Status::Aborted("cannot create " + root);
  for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
    std::string pid_text = ReadFile(entry.path().string() + "/child.pid");
    pid_t child = static_cast<pid_t>(std::strtol(pid_text.c_str(), nullptr, 10));
    if (ProcessAlive(child, "replica_server")) {
      return Status::Aborted("a follower from an earlier run is still alive "
                             "(pid " + pid_text + ", " +
                             entry.path().string() + ")");
    }
    fs::remove_all(entry.path(), ec);  // a dead run's WAL, meta, socket
  }
  std::random_device device;
  std::string path = root + "/" + std::to_string(::getpid()) + "-" +
                     std::to_string(device() % 100000);
  if (!fs::create_directory(path, ec) || ec) {
    return Status::Aborted("cannot create run dir " + path);
  }
  return std::unique_ptr<RunDir>(new RunDir(path));
}

RunDir::~RunDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

void RunDir::NoteChild(pid_t pid) const {
  std::ofstream(File("child.pid"), std::ios::trunc) << pid;
}

double PeakRssMb() {
  std::istringstream in(ReadFile("/proc/self/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

std::string MachineContextJson(const std::string& wal_dir,
                               const std::string& flush_policy) {
  std::string cpu = "unknown";
  std::istringstream cpuinfo(ReadFile("/proc/cpuinfo"));
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string filesystem = "n/a";
  if (!wal_dir.empty()) {
    struct statfs info {};
    if (::statfs(wal_dir.c_str(), &info) == 0) {
      switch (static_cast<unsigned long>(info.f_type)) {
        case 0xEF53: filesystem = "ext4"; break;
        case 0x58465342: filesystem = "xfs"; break;
        case 0x9123683E: filesystem = "btrfs"; break;
        case 0x01021994: filesystem = "tmpfs"; break;
        case 0x794C7630: filesystem = "overlayfs"; break;
        default: {
          char hex[32];
          std::snprintf(hex, sizeof(hex), "0x%lx",
                        static_cast<unsigned long>(info.f_type));
          filesystem = hex;
        }
      }
    }
  }
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": \"" << JsonEscape(cpu) << "\", \"compiler\": \""
#if defined(__clang__)
      << "clang "
#elif defined(__GNUC__)
      << "gcc "
#endif
      << JsonEscape(__VERSION__) << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"wal_fs\": \"" << filesystem
      << "\", \"flush_policy\": \"" << JsonEscape(flush_policy) << "\"}";
  return out.str();
}

}  // namespace perfbench
