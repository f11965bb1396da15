#ifndef CYPHER_STORAGE_WAL_H_
#define CYPHER_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/log_file.h"

namespace cypher::storage {

/// Logical write-ahead log, one file:
///
///   [8-byte magic "CYWAL002"]
///   [u32 length][u32 crc32][u8 type][payload...]     repeated
///
/// Integers are little-endian; `length` counts the type byte plus the
/// payload, and the CRC covers the same bytes. A kSnapshot payload is an
/// exact-slot image of the whole graph and a kStatement payload the
/// after-image of the slots one committed statement touched, both in the
/// line grammar of snapshot.h. The magic's last three digits are the format
/// version; a log of another version is refused by name. Recovery
/// applies the latest snapshot, then every following statement, and stops
/// at the first incomplete or checksum-failing record — the torn-write
/// rule that keeps a half-written commit invisible.
inline constexpr char kWalMagic[8] = {'C', 'Y', 'W', 'A', 'L', '0', '0', '2'};
inline constexpr size_t kWalMagicSize = sizeof(kWalMagic);
inline constexpr size_t kWalFrameHeaderSize = 9;  // len + crc + type

enum class WalRecordType : uint8_t {
  kSnapshot = 1,
  kStatement = 2,
};

struct WalRecord {
  WalRecordType type;
  std::string payload;
};

/// Frames one record (header + checksummed body) for appending.
std::string EncodeWalRecord(WalRecordType type, std::string_view payload);

struct WalContents {
  std::vector<WalRecord> records;
  /// Length of the valid prefix: magic plus every whole, checksum-clean
  /// record. Recovery truncates the file to this.
  uint64_t valid_bytes = 0;
  /// True when trailing bytes past valid_bytes were dropped (torn record,
  /// bad checksum, or unknown record type).
  bool torn_tail = false;
};

/// A record viewed in place inside a log image.
struct WalRecordView {
  WalRecordType type = WalRecordType::kStatement;
  std::string_view payload;
};

/// WalContents without the payload copies: the records view the scanned
/// image, which must outlive the scan.
struct WalScan {
  std::vector<WalRecordView> records;
  uint64_t valid_bytes = 0;
  bool torn_tail = false;
};

/// Walks a log image. Fails (InvalidArgument) only when the magic itself is
/// wrong or short — anything after a good magic degrades to a torn tail,
/// never an error, because that is exactly what a crash leaves behind.
Result<WalScan> ScanWal(std::string_view bytes);

/// ScanWal with every payload copied out of the image.
Result<WalContents> DecodeWal(std::string_view bytes);

/// Size (header + body) of the complete frame at the front of `bytes`, or 0
/// when no whole frame is there. Does not verify the checksum — this is the
/// record-boundary walker the replication shipper cuts segments with.
size_t WalFrameSize(std::string_view bytes);

/// Decodes a run of frames with no leading magic — a replication segment.
/// Unlike DecodeWal, a torn or checksum-failing byte here is an ERROR, not a
/// tail to drop: a shipped segment is whole by construction, so damage means
/// the transport corrupted it and the follower must re-fetch, never apply.
Result<std::vector<WalRecord>> DecodeWalSegment(std::string_view bytes);

/// Serializes appends and batches fsyncs (group commit).
///
/// Append buffers a framed record in memory and returns its LSN — the byte
/// offset just past the record. Sync(lsn) blocks until the log is durable
/// through that offset: the first waiter becomes the leader, writes and
/// fsyncs everything buffered so far (covering every concurrent follower),
/// and followers just wait. Under concurrent sessions this collapses N
/// commits into one fsync.
///
/// Any I/O failure is sticky: the writer poisons itself and every later
/// Append/Sync returns the same kAborted status. The bytes of the failed
/// batch may sit torn at the end of the file; recovery truncates them.
class WalWriter {
 public:
  /// Takes over a log whose on-disk prefix (`file->size()` bytes) is valid.
  explicit WalWriter(std::unique_ptr<LogFile> file);

  /// Frames and buffers one record; returns its LSN to pass to Sync.
  Result<uint64_t> Append(WalRecordType type, std::string_view payload);

  /// Blocks until the log is durable through `lsn` (see class comment).
  Status Sync(uint64_t lsn);

  /// Log compaction: durably replaces the whole file with [magic, one
  /// `type` record carrying `payload`] — in practice a fresh kSnapshot.
  /// Buffered-but-unsynced records are DROPPED, so the caller must
  /// guarantee the payload captures every appended record's effects; the
  /// database layer calls this under its execution lock with a snapshot it
  /// encodes right there, which covers exactly the records in flight. LSNs
  /// are virtual and monotone across compactions (the file offset of an
  /// LSN is `lsn - base`): every outstanding Sync(lsn) target becomes
  /// durable the moment the rewrite lands, because the snapshot subsumes
  /// it. Waits out an in-flight group-commit leader; a failure is sticky
  /// like any other log I/O error.
  ///
  /// Refused (InvalidArgument, NOT sticky) while any retention pin sits
  /// below the post-compaction end: the pinned reader still needs bytes the
  /// rewrite would drop, so the log keeps growing until the pin catches up
  /// or is released. The database's auto-checkpoint treats the refusal as
  /// "retry after the next commit".
  Status Rewrite(WalRecordType type, std::string_view payload);

  // ---- Retention pins -------------------------------------------------------
  // A pin marks "some reader (a replication follower's shipper cursor)
  // still needs every durable byte from `lsn` on". Rewrite refuses to
  // compact past a pin; everything else is unaffected. Pins only advance.

  /// Registers a pin at `lsn`; returns an id for Advance/Release.
  uint64_t RegisterRetentionPin(uint64_t lsn);

  /// Moves a pin forward (backward moves are ignored — retention only
  /// ever shrinks).
  void AdvanceRetentionPin(uint64_t pin_id, uint64_t lsn);

  void ReleaseRetentionPin(uint64_t pin_id);

  /// The smallest pinned LSN, or UINT64_MAX when no pin is registered.
  uint64_t MinRetentionPin() const;

  /// Reads the durable byte range [from_lsn, durable_lsn) — whole framed
  /// records by construction — and reports the range end in `*end_lsn`.
  /// Waits out an in-flight group-commit leader so the read never races an
  /// append. `from_lsn` must be at or above the compaction base (guaranteed
  /// for any pinned cursor); a cursor at or ahead of the durable end (a
  /// group-commit record appended but not yet synced) reads an empty string
  /// with *end_lsn == from_lsn — nothing new durable yet, not an error.
  Result<std::string> ReadDurableFrom(uint64_t from_lsn, uint64_t* end_lsn);

  /// Bytes the file will hold once everything buffered is flushed — the
  /// auto-checkpoint trigger. (Not an LSN: compaction resets file size but
  /// never rewinds LSNs.)
  uint64_t LogBytes() const;

  /// The smallest LSN the log can still serve bytes from: the compaction
  /// base plus the magic, i.e. where the compacted snapshot record begins.
  uint64_t base_lsn() const;

  /// The smallest LSN a tailing follower may resume from. Distinct from
  /// base_lsn(): a rewrite replaces every record up to the rewrite point
  /// with ONE snapshot record, so LSNs strictly between base_lsn() and the
  /// rewrite point no longer land on record boundaries — serving a tail
  /// from there would ship bytes out of the middle of the snapshot frame.
  /// A follower whose position sits below this floor must re-bootstrap
  /// from a fresh snapshot instead of tailing.
  uint64_t min_resume_lsn() const;

  /// The sticky I/O failure, or OK.
  Status error() const;

  uint64_t durable_lsn() const;
  uint64_t appended_lsn() const;

  /// The underlying file; tests peek, nothing else should.
  LogFile* file() { return file_.get(); }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unique_ptr<LogFile> file_;
  std::string pending_;      // framed records not yet handed to the file
  uint64_t appended_lsn_;    // virtual end offset including pending_
  uint64_t durable_lsn_;     // virtual end offset through the last good fsync
  /// LSN-to-file-offset shift: file offset = lsn - base_offset_. Starts at
  /// 0 and grows at each Rewrite by however many bytes compaction dropped,
  /// keeping LSNs monotone so callers' saved LSNs stay comparable.
  uint64_t base_offset_ = 0;
  /// Smallest record-aligned LSN a tail may resume from; jumps to the
  /// rewrite point at each Rewrite (see min_resume_lsn()). Guarded by mu_.
  uint64_t min_resume_lsn_ = kWalMagicSize;
  bool leader_active_ = false;
  Status error_;
  /// Retention pins by id (see RegisterRetentionPin). Guarded by mu_.
  std::map<uint64_t, uint64_t> pins_;
  uint64_t next_pin_id_ = 1;
};

}  // namespace cypher::storage

#endif  // CYPHER_STORAGE_WAL_H_
