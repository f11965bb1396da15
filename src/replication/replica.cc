#include "replication/replica.h"

#include <chrono>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "graph/serialize.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace cypher::replication {

namespace {

// Follower meta file: [8-byte magic][u64 attach_lsn][u64 token][u32 crc].
// Tiny and rewritten whole (LogFile::Replace) on every bootstrap, so a crash
// leaves either the old image or the new one, never a blend.
constexpr char kMetaMagic[8] = {'C', 'Y', 'R', 'M', 'E', 'T', 'A', '1'};
constexpr size_t kMetaSize = 8 + 8 + 8 + 4;

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::string EncodeMeta(uint64_t attach_lsn, uint64_t token) {
  std::string out(kMetaMagic, sizeof(kMetaMagic));
  PutU64(&out, attach_lsn);
  PutU64(&out, token);
  uint32_t crc = Crc32(out.data() + 8, 16);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(crc >> (8 * i)));
  return out;
}

bool DecodeMeta(std::string_view bytes, uint64_t* attach_lsn,
                uint64_t* token) {
  if (bytes.size() != kMetaSize) return false;
  if (std::memcmp(bytes.data(), kMetaMagic, sizeof(kMetaMagic)) != 0) {
    return false;
  }
  uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<uint32_t>(
               static_cast<unsigned char>(bytes[kMetaSize - 4 + i]))
           << (8 * i);
  }
  if (Crc32(bytes.data() + 8, 16) != crc) return false;
  *attach_lsn = GetU64(bytes.data() + 8);
  *token = GetU64(bytes.data() + 16);
  return true;
}

uint64_t FreshToken() {
  // Identity across reconnects, not a secret: it only needs to be unique
  // among the followers of one leader with overwhelming probability.
  std::random_device rd;
  uint64_t token = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  token ^= static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  if (token == 0) token = 1;  // zero means "no identity" on the wire
  return token;
}

}  // namespace

Replica::Replica(std::shared_ptr<Transport> transport, EvalOptions options)
    : Replica(std::move(transport), ReplicaDurability{}, std::move(options)) {}

Replica::Replica(std::shared_ptr<Transport> transport,
                 ReplicaDurability durability, EvalOptions options)
    : transport_(std::move(transport)),
      db_(std::move(options)),
      durability_(std::move(durability)) {
  token_.store(FreshToken());
}

Result<std::unique_ptr<Replica>> Replica::Open(
    std::shared_ptr<Transport> transport, ReplicaDurability durability,
    EvalOptions options) {
  if (durability.wal == nullptr || durability.meta == nullptr) {
    return Status::InvalidArgument(
        "a durable replica needs both a wal and a meta log file");
  }
  std::unique_ptr<Replica> replica(new Replica(
      std::move(transport), std::move(durability), std::move(options)));
  CYPHER_RETURN_NOT_OK(replica->RecoverFromDurable());
  return replica;
}

Status Replica::RecoverFromDurable() {
  CYPHER_ASSIGN_OR_RETURN(std::string wal_bytes, durability_.wal->ReadAll());
  CYPHER_ASSIGN_OR_RETURN(std::string meta_bytes, durability_.meta->ReadAll());
  uint64_t attach_lsn = 0;
  uint64_t token = 0;
  bool have_meta = DecodeMeta(meta_bytes, &attach_lsn, &token);
  if (have_meta) token_.store(token);
  if (wal_bytes.empty() || !have_meta) {
    // Nothing usable from a previous life (first boot, or a crash before
    // the first bootstrap landed). Start clean; the leader will bootstrap.
    CYPHER_RETURN_NOT_OK(durability_.wal->Truncate(0));
    return Status::OK();
  }
  // Without the meta's attach_lsn the log cannot be mapped back into leader
  // coordinates, and vice versa — so from here on both must make sense
  // together or the durable state is abandoned wholesale.
  CYPHER_ASSIGN_OR_RETURN(storage::RecoveredGraph recovered,
                          storage::RecoverGraph(wal_bytes));
  std::string_view after_magic =
      std::string_view(wal_bytes).substr(storage::kWalMagicSize);
  size_t first_frame = storage::WalFrameSize(after_magic);
  if (first_frame == 0 ||
      recovered.valid_bytes < storage::kWalMagicSize + first_frame) {
    CYPHER_RETURN_NOT_OK(durability_.wal->Truncate(0));
    return Status::OK();
  }
  // Drop the torn tail a kill -9 mid-append leaves behind; everything below
  // valid_bytes replayed cleanly.
  if (recovered.torn_tail || recovered.valid_bytes < wal_bytes.size()) {
    CYPHER_RETURN_NOT_OK(durability_.wal->Truncate(recovered.valid_bytes));
    CYPHER_RETURN_NOT_OK(durability_.wal->Sync());
  }
  db_.graph() = std::move(recovered.graph);
  db_.plan_cache().Clear();
  CYPHER_RETURN_NOT_OK(db_.EnableMvcc());
  // Leader-coordinate position: the bootstrap record stands in for every
  // leader byte below attach_lsn; each raw record byte after it is one
  // leader byte.
  applied_lsn_.store(attach_lsn + (recovered.valid_bytes -
                                   storage::kWalMagicSize - first_frame));
  statements_.store(recovered.statements);
  bootstrapped_.store(true);
  bootstraps_.store(1);
  return Status::OK();
}

Result<size_t> Replica::PollOnce() {
  if (sealed_.load()) {
    return Status::InvalidArgument("replica is sealed (promoted)");
  }
  size_t applied = 0;
  SegmentFrame frame;
  bool damaged = false;
  while (transport_->Receive(&frame)) {
    if (damaged) continue;  // drain the rest; the shipper will resend
    bool apply_failed = false;
    Status st = ApplyFrame(frame, &applied, &apply_failed);
    if (apply_failed) return st;  // not wire damage: applied_lsn stops here
    if (!st.ok()) {
      // Never apply a damaged, torn, gapped, or overlapping frame. Ask the
      // shipper to resume from our applied position and discard everything
      // still queued — it was cut against the stream we just rejected.
      damaged = true;
      CYPHER_RETURN_NOT_OK(transport_->SendControl(
          {ControlType::kResend, applied_lsn_.load()}));
    }
  }
  if (applied > 0 && !damaged) {
    // Durable follower: the ack promises these bytes survive a crash, so
    // they must be synced BEFORE it is sent — acking bytes a kill -9 then
    // loses would leave the leader free to compact a range the restarted
    // follower still needs.
    if (durability_.wal != nullptr) {
      CYPHER_RETURN_NOT_OK(durability_.wal->Sync());
    }
    CYPHER_RETURN_NOT_OK(
        transport_->SendControl({ControlType::kAck, applied_lsn_.load()}));
  }
  return applied;
}

Status Replica::PersistBootstrap(const SegmentFrame& frame) {
  std::string wal_image(storage::kWalMagic, storage::kWalMagicSize);
  wal_image += storage::EncodeWalRecord(storage::WalRecordType::kSnapshot,
                                        frame.payload);
  CYPHER_RETURN_NOT_OK(
      durability_.wal->Replace(wal_image.data(), wal_image.size()));
  std::string meta = EncodeMeta(frame.to_lsn, token_.load());
  return durability_.meta->Replace(meta.data(), meta.size());
}

Status Replica::ApplyFrame(const SegmentFrame& frame, size_t* applied,
                          bool* apply_failed) {
  if (Crc32(frame.payload.data(), frame.payload.size()) != frame.crc) {
    return Status::InvalidArgument("replication frame failed its checksum");
  }
  if (frame.type == FrameType::kSnapshot) {
    if (bootstrapped_.load() && frame.to_lsn <= applied_lsn_.load()) {
      return Status::OK();  // duplicate bootstrap: already there
    }
    Result<PropertyGraph> graph = storage::DecodeSnapshot(frame.payload);
    if (!graph.ok()) {
      *apply_failed = true;
      return graph.status();
    }
    // Persist before the state switch: if the Replace tears (crash), the
    // meta no longer matches and the next boot just re-bootstraps.
    if (durability_.wal != nullptr) {
      CYPHER_RETURN_NOT_OK(PersistBootstrap(frame));
    }
    db_.graph() = std::move(*graph);
    // The graph object was replaced wholesale: stale stamped plans must not
    // revive, and MVCC starts fresh with the bootstrap state as epoch 0.
    db_.plan_cache().Clear();
    CYPHER_RETURN_NOT_OK(db_.EnableMvcc());
    applied_lsn_.store(frame.to_lsn);
    statements_.store(0);
    bootstrapped_.store(true);
    bootstraps_.fetch_add(1);
    ++*applied;
    return Status::OK();
  }
  if (!bootstrapped_.load()) {
    return Status::InvalidArgument("segment before bootstrap snapshot");
  }
  uint64_t at = applied_lsn_.load();
  if (frame.to_lsn <= at) return Status::OK();  // duplicate: skip whole
  if (frame.from_lsn != at) {
    return Status::InvalidArgument("segment out of order: follower at lsn " +
                                   std::to_string(at) + ", segment starts " +
                                   std::to_string(frame.from_lsn));
  }
  if (frame.to_lsn - frame.from_lsn != frame.payload.size()) {
    return Status::InvalidArgument("segment length disagrees with lsn span");
  }
  // Validate the WHOLE segment before applying anything: a torn or
  // checksum-failing record anywhere means the transport damaged the frame,
  // and none of it may touch the graph.
  CYPHER_ASSIGN_OR_RETURN(std::vector<storage::WalRecord> records,
                          storage::DecodeWalSegment(frame.payload));
  std::string_view payload = frame.payload;
  size_t offset = 0;
  for (const storage::WalRecord& record : records) {
    size_t frame_size = storage::WalFrameSize(payload.substr(offset));
    if (record.type == storage::WalRecordType::kStatement) {
      if (Status st = storage::ApplyImage(&db_.graph(), record.payload);
          !st.ok()) {
        *apply_failed = true;
        return st;
      }
      // Publish per statement: a read session opened mid-segment pins a
      // committed leader prefix, never a half-applied record.
      if (db_.mvcc_enabled()) db_.graph().PublishEpoch();
      statements_.fetch_add(1);
    }
    // kSnapshot: a contiguous follower already holds exactly this state
    // (an explicit leader checkpoint); only the LSN advances.
    if (durability_.wal != nullptr) {
      // Append the record's RAW bytes — this is what keeps the follower WAL
      // a byte-exact slice of the leader's (the promotion invariant). Sync
      // is deferred to the ack in PollOnce; a crash in between loses only
      // unacked bytes, which the reconnect hello re-fetches.
      CYPHER_RETURN_NOT_OK(
          durability_.wal->Append(payload.data() + offset, frame_size));
    }
    offset += frame_size;
    // The LSN moves per record, not per segment, so even a failure between
    // records resumes exactly at the failed record — never a re-apply.
    applied_lsn_.store(frame.from_lsn + offset);
  }
  ++*applied;
  return Status::OK();
}

std::string Replica::CanonicalDump() const {
  return DumpGraphCanonical(db_.graph());
}

Result<GraphDatabase> Replica::PromoteToLeader(DurabilityOptions durability) {
  if (durability_.wal == nullptr) {
    return Status::InvalidArgument(
        "only a durable replica can be promoted (it has no log to lead from)");
  }
  if (!bootstrapped_.load()) {
    return Status::InvalidArgument(
        "replica has no bootstrapped state to promote");
  }
  if (sealed_.load()) {
    return Status::InvalidArgument("replica already promoted");
  }
  // Seal first: from here no frame can apply, even if a poller races. The
  // transport is dropped — a socket transport closes and stops reconnecting.
  sealed_.store(true);
  transport_.reset();
  CYPHER_RETURN_NOT_OK(durability_.wal->Sync());
  // The accumulated log is [magic][bootstrap snapshot][leader records...] —
  // a well-formed WAL whose record stream is a byte prefix of the dead
  // leader's durable history up to applied_lsn(). Opening it durable
  // replays that history; new commits extend it. This database IS the new
  // leader.
  GraphDatabase leader(db_.options());
  CYPHER_RETURN_NOT_OK(leader.OpenDurable(std::move(durability_.wal),
                                          durability));
  return leader;
}

}  // namespace cypher::replication
