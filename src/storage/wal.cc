#include "storage/wal.h"

#include <algorithm>

#include "common/crc32.h"

namespace cypher::storage {

namespace {

void PutU32(std::string* out, uint32_t v) {
  char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                   static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(bytes, 4);
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

}  // namespace

std::string EncodeWalRecord(WalRecordType type, std::string_view payload) {
  std::string body;
  body.reserve(1 + payload.size());
  body.push_back(static_cast<char>(type));
  body.append(payload);
  std::string out;
  out.reserve(8 + body.size());
  PutU32(&out, static_cast<uint32_t>(body.size()));
  PutU32(&out, Crc32(body.data(), body.size()));
  out += body;
  return out;
}

size_t WalFrameSize(std::string_view bytes) {
  if (bytes.size() < 8) return 0;
  uint32_t len = GetU32(bytes.data());
  if (len == 0 || bytes.size() - 8 < len) return 0;
  return 8 + len;
}

namespace {

enum class FrameStatus { kOk, kTorn, kCorrupt, kUnknownType };

/// The frame walker every decoder shares: checks the frame at the front of
/// `bytes` and views its record in place. `*size` is the frame size (0
/// when torn).
FrameStatus ReadFrame(std::string_view bytes, WalRecordView* record,
                      size_t* size) {
  *size = WalFrameSize(bytes);
  if (*size == 0) return FrameStatus::kTorn;
  const char* body = bytes.data() + 8;
  size_t len = *size - 8;
  if (Crc32(body, len) != GetU32(bytes.data() + 4)) {
    return FrameStatus::kCorrupt;
  }
  auto type = static_cast<WalRecordType>(static_cast<unsigned char>(*body));
  if (type != WalRecordType::kSnapshot && type != WalRecordType::kStatement) {
    return FrameStatus::kUnknownType;
  }
  *record = {type, std::string_view(body + 1, len - 1)};
  return FrameStatus::kOk;
}

}  // namespace

Result<std::vector<WalRecord>> DecodeWalSegment(std::string_view bytes) {
  std::vector<WalRecord> records;
  size_t pos = 0;
  while (pos < bytes.size()) {
    WalRecordView record;
    size_t frame = 0;
    switch (ReadFrame(bytes.substr(pos), &record, &frame)) {
      case FrameStatus::kOk:
        break;
      case FrameStatus::kTorn:
        return Status::InvalidArgument("torn record in replication segment");
      case FrameStatus::kCorrupt:
        return Status::InvalidArgument(
            "corrupt record in replication segment");
      case FrameStatus::kUnknownType:
        return Status::InvalidArgument(
            "unknown record type in replication segment");
    }
    records.push_back({record.type, std::string(record.payload)});
    pos += frame;
  }
  return records;
}

Result<WalScan> ScanWal(std::string_view bytes) {
  std::string_view magic = bytes.substr(0, kWalMagicSize);
  if (magic != std::string_view(kWalMagic, kWalMagicSize)) {
    // "CYWAL" plus three version digits: name the other version.
    if (magic.size() == kWalMagicSize && magic.substr(0, 5) == "CYWAL") {
      return Status::InvalidArgument(
          "write-ahead log format " + std::string(magic) +
          " is not supported (this build reads " +
          std::string(kWalMagic, kWalMagicSize) + ")");
    }
    return Status::InvalidArgument(
        "not a write-ahead log (bad or short magic)");
  }
  WalScan out;
  size_t pos = kWalMagicSize;
  out.valid_bytes = pos;
  while (pos < bytes.size()) {
    // A torn, corrupt or future/garbage-typed frame ends the valid prefix:
    // stop, do not guess.
    WalRecordView record;
    size_t frame = 0;
    if (ReadFrame(bytes.substr(pos), &record, &frame) != FrameStatus::kOk) {
      break;
    }
    out.records.push_back(record);
    pos += frame;
    out.valid_bytes = pos;
  }
  out.torn_tail = out.valid_bytes < bytes.size();
  return out;
}

Result<WalContents> DecodeWal(std::string_view bytes) {
  CYPHER_ASSIGN_OR_RETURN(WalScan scan, ScanWal(bytes));
  WalContents out;
  out.records.reserve(scan.records.size());
  for (const WalRecordView& record : scan.records) {
    out.records.push_back({record.type, std::string(record.payload)});
  }
  out.valid_bytes = scan.valid_bytes;
  out.torn_tail = scan.torn_tail;
  return out;
}

WalWriter::WalWriter(std::unique_ptr<LogFile> file)
    : file_(std::move(file)),
      appended_lsn_(file_->size()),
      durable_lsn_(file_->size()) {}

Result<uint64_t> WalWriter::Append(WalRecordType type,
                                   std::string_view payload) {
  std::string frame = EncodeWalRecord(type, payload);
  std::lock_guard<std::mutex> lock(mu_);
  if (!error_.ok()) return error_;
  pending_ += frame;
  appended_lsn_ += frame.size();
  return appended_lsn_;
}

Status WalWriter::Sync(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (!error_.ok()) return error_;
    if (durable_lsn_ >= lsn) return Status::OK();
    if (leader_active_) {
      cv_.wait(lock);
      continue;
    }
    // Become the leader: flush everything buffered so far, which covers
    // this caller and every follower that appended before this point.
    leader_active_ = true;
    std::string batch;
    batch.swap(pending_);
    uint64_t target = appended_lsn_;
    uint64_t durable = durable_lsn_ - base_offset_;  // as a file offset
    lock.unlock();
    Status st = batch.empty() ? Status::OK()
                              : file_->Append(batch.data(), batch.size());
    if (st.ok()) st = file_->Sync();
    if (!st.ok()) {
      // Un-acknowledged bytes must not survive: a fully-written record
      // whose fsync failed would otherwise replay on recovery a statement
      // the caller was told had failed. Best effort — if the dying disk
      // refuses even the truncate, recovery's checksum scan still drops
      // torn bytes (only a whole record followed by a failed fsync can
      // then resurrect, the unavoidable "commit status unknown" case).
      (void)file_->Truncate(durable);
    }
    lock.lock();
    leader_active_ = false;
    if (st.ok()) {
      durable_lsn_ = target;
    } else {
      error_ = st;  // poisoned: nothing past durable_lsn_ is trusted
    }
    cv_.notify_all();
  }
}

Status WalWriter::Rewrite(WalRecordType type, std::string_view payload) {
  std::string contents(kWalMagic, kWalMagicSize);
  contents += EncodeWalRecord(type, payload);
  std::unique_lock<std::mutex> lock(mu_);
  while (leader_active_) cv_.wait(lock);
  if (!error_.ok()) return error_;
  // Retention check BEFORE anything is mutated: a pin below the
  // post-compaction end means some reader still needs old bytes the
  // rewrite would drop. Refuse without poisoning — the log just keeps
  // growing until the pinned cursor catches up or detaches.
  for (const auto& [id, pinned_lsn] : pins_) {
    if (pinned_lsn < appended_lsn_) {
      return Status::InvalidArgument(
          "rewrite refused: retention pin at lsn " +
          std::to_string(pinned_lsn) + " still needs bytes before lsn " +
          std::to_string(appended_lsn_));
    }
  }
  // Take the leader role so no concurrent Sync touches the file while it
  // is being replaced. Buffered records are dropped — the payload subsumes
  // them (see header contract) — so the virtual end LSN simply becomes
  // fully durable.
  leader_active_ = true;
  pending_.clear();
  // If the compacted image outgrows every LSN handed out so far (a graph
  // whose snapshot is larger than its whole statement history), advance the
  // virtual clock so the new base offset stays non-negative.
  if (appended_lsn_ < contents.size()) appended_lsn_ = contents.size();
  uint64_t target = appended_lsn_;
  lock.unlock();
  Status st = file_->Replace(contents.data(), contents.size());
  lock.lock();
  leader_active_ = false;
  if (st.ok()) {
    durable_lsn_ = target;
    base_offset_ = target - contents.size();
    // Everything before the rewrite point was folded into one snapshot
    // record, so no LSN below `target` is a record boundary any more.
    min_resume_lsn_ = target;
  } else {
    error_ = st;  // the file may hold either old or new contents; recovery
                  // decodes whichever survived
  }
  cv_.notify_all();
  return st;
}

uint64_t WalWriter::RegisterRetentionPin(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_pin_id_++;
  pins_[id] = lsn;
  return id;
}

void WalWriter::AdvanceRetentionPin(uint64_t pin_id, uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(pin_id);
  if (it != pins_.end() && lsn > it->second) it->second = lsn;
}

void WalWriter::ReleaseRetentionPin(uint64_t pin_id) {
  std::lock_guard<std::mutex> lock(mu_);
  pins_.erase(pin_id);
}

uint64_t WalWriter::MinRetentionPin() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t min = UINT64_MAX;
  for (const auto& [id, lsn] : pins_) min = std::min(min, lsn);
  return min;
}

Result<std::string> WalWriter::ReadDurableFrom(uint64_t from_lsn,
                                               uint64_t* end_lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  // Wait out an in-flight group-commit leader (or rewrite): it appends to
  // the file without holding mu_, and the read must not race that. Once
  // leader_active_ is false and we hold mu_, nobody touches the file.
  while (leader_active_) cv_.wait(lock);
  if (from_lsn < base_offset_ + kWalMagicSize) {
    return Status::InvalidArgument(
        "durable read below the compaction base: lsn " +
        std::to_string(from_lsn) + " < " +
        std::to_string(base_offset_ + kWalMagicSize));
  }
  if (from_lsn >= durable_lsn_) {
    // A cursor at (or ahead of — appended but unsynced records) the durable
    // end: nothing to read yet.
    *end_lsn = from_lsn;
    return std::string();
  }
  *end_lsn = durable_lsn_;
  CYPHER_ASSIGN_OR_RETURN(std::string bytes, file_->ReadAll());
  uint64_t begin = from_lsn - base_offset_;
  uint64_t end = durable_lsn_ - base_offset_;
  if (end > bytes.size()) {
    return Status::InternalError("durable prefix exceeds log file size");
  }
  return bytes.substr(begin, end - begin);
}

uint64_t WalWriter::LogBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_lsn_ - base_offset_;
}

uint64_t WalWriter::base_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_offset_ + kWalMagicSize;
}

uint64_t WalWriter::min_resume_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_resume_lsn_;
}

Status WalWriter::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

uint64_t WalWriter::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

uint64_t WalWriter::appended_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_lsn_;
}

}  // namespace cypher::storage
