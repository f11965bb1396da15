#ifndef CYPHER_COMMON_SLOT_VECTOR_H_
#define CYPHER_COMMON_SLOT_VECTOR_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace cypher {

/// Chunked append-only vector with stable element addresses and a
/// single-writer / many-reader publication contract:
///
///  * one writer thread at a time Appends (or EnsureSize-grows);
///  * any number of reader threads may concurrently index positions below a
///    size() they observed — size() is stored with release ordering after
///    the element is fully constructed, so an acquire load of size() makes
///    every element below it visible;
///  * elements never move. Storage is a spine of fixed-size chunks; a full
///    spine is replaced by a doubled copy and the old spine is kept alive
///    until destruction, because a reader may still be mid-walk on it;
///  * a full chunk whose elements all equal one read-only value can be
///    released (ReleaseChunk): its spine entries then point at a shared
///    chunk of that value and the old chunk goes back to the caller, who
///    frees it once no reader can still be on it. Indexing a released
///    position keeps working and reads the shared value; writing there is
///    a CYPHER_CHECK failure.
///
/// This is the storage base of the MVCC graph: node/rel slots, version-chain
/// heads, label buckets and interned names all need "readers index while the
/// writer appends" without locks. The SlotVector synchronizes only element
/// *existence* — element payloads must be immutable after publication (or
/// use atomic fields) if readers and the writer overlap on them.
template <typename T>
class SlotVector {
 public:
  static constexpr size_t kChunkBits = 9;  // 512 elements per chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kChunkMask = kChunkSize - 1;

  SlotVector() = default;

  SlotVector(const SlotVector&) = delete;
  SlotVector& operator=(const SlotVector&) = delete;

  /// Moves require quiescence (no concurrent reader or writer on either
  /// side); the graph layer only moves whole graphs between statements.
  SlotVector(SlotVector&& other) noexcept { StealFrom(&other); }
  SlotVector& operator=(SlotVector&& other) noexcept {
    if (this != &other) {
      Destroy();
      StealFrom(&other);
    }
    return *this;
  }

  ~SlotVector() { Destroy(); }

  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Mutable access is for writes, so it refuses a released position.
  T& operator[](size_t i) {
    T* chunk = Chunk(i >> kChunkBits);
    CYPHER_CHECK(chunk != shared_ && "write into a released SlotVector chunk");
    return chunk[i & kChunkMask];
  }
  const T& operator[](size_t i) const {
    return Chunk(i >> kChunkBits)[i & kChunkMask];
  }

  /// Appends and publishes one element (writer only).
  T& Append(T value) {
    size_t i = size_.load(std::memory_order_relaxed);
    T& slot = SlotForWrite(i);
    slot = std::move(value);
    size_.store(i + 1, std::memory_order_release);
    return slot;
  }

  /// Grows to at least `n` elements, value-initialized (writer only).
  void EnsureSize(size_t n) {
    size_t i = size_.load(std::memory_order_relaxed);
    if (n <= i) return;
    for (size_t k = i; k < n; ++k) (void)SlotForWrite(k);
    size_.store(n, std::memory_order_release);
  }

  /// Points chunk `ci` — which must be full, i.e. lie below size() — at
  /// `shared`, a caller-owned array of kChunkSize elements that no one
  /// writes and that outlives this vector, and returns the chunk it
  /// replaces for the caller to free with FreeChunk (writer only). Every
  /// spine is repointed, so a reader that loads an entry afterwards, on
  /// whichever spine, gets the shared chunk; a reader that loaded the old
  /// pointer before keeps reading memory the caller has not freed yet.
  /// One vector shares one chunk: every release passes the same `shared`,
  /// and a chunk is released at most once.
  T* ReleaseChunk(size_t ci, T* shared) {
    size_t end = (ci + 1) << kChunkBits;
    CYPHER_CHECK(end <= size_.load(std::memory_order_relaxed));
    CYPHER_CHECK(shared_ == nullptr || shared_ == shared);
    shared_ = shared;
    Spine* spine = spine_.load(std::memory_order_relaxed);
    T* old = spine->chunks[ci].load(std::memory_order_relaxed);
    CYPHER_CHECK(old != shared && "SlotVector chunk released twice");
    spine->chunks[ci].store(shared, std::memory_order_release);
    for (const std::unique_ptr<Spine>& retired : old_spines_) {
      if (ci < retired->cap) {
        retired->chunks[ci].store(shared, std::memory_order_release);
      }
    }
    return old;
  }

  /// True when chunk `ci`, which must be allocated, is released (writer
  /// only).
  bool IsReleased(size_t ci) const { return Chunk(ci) == shared_; }

  /// Frees a chunk ReleaseChunk handed back (a RetireList deleter).
  static void FreeChunk(void* chunk) { delete[] static_cast<T*>(chunk); }

 private:
  /// A resizable directory of chunk pointers. Chunks are published into
  /// their directory slot with release ordering; a full directory is
  /// replaced wholesale (see SlotForWrite).
  struct Spine {
    explicit Spine(size_t capacity)
        : cap(capacity), chunks(new std::atomic<T*>[capacity]()) {}
    size_t cap;
    std::unique_ptr<std::atomic<T*>[]> chunks;
  };

  T* Chunk(size_t ci) const {
    Spine* spine = spine_.load(std::memory_order_acquire);
    return spine->chunks[ci].load(std::memory_order_acquire);
  }

  T& SlotForWrite(size_t i) {
    Spine* spine = spine_.load(std::memory_order_relaxed);
    size_t ci = i >> kChunkBits;
    if (spine == nullptr || ci >= spine->cap) {
      size_t cap = spine == nullptr ? 8 : spine->cap * 2;
      while (cap <= ci) cap *= 2;
      auto fresh = std::make_unique<Spine>(cap);
      if (spine != nullptr) {
        for (size_t k = 0; k < spine->cap; ++k) {
          fresh->chunks[k].store(spine->chunks[k].load(
                                     std::memory_order_relaxed),
                                 std::memory_order_relaxed);
        }
        old_spines_.push_back(std::move(spine_owner_));
      }
      spine = fresh.get();
      spine_owner_ = std::move(fresh);
      spine_.store(spine, std::memory_order_release);
    }
    T* chunk = spine->chunks[ci].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new T[kChunkSize]();
      spine->chunks[ci].store(chunk, std::memory_order_release);
    }
    return chunk[i & kChunkMask];
  }

  void Destroy() {
    // Retired spines share chunk pointers with the live spine (which holds
    // the superset), so chunks are freed from the live spine only. The
    // shared chunk belongs to the caller.
    Spine* spine = spine_.load(std::memory_order_relaxed);
    if (spine != nullptr) {
      for (size_t k = 0; k < spine->cap; ++k) {
        T* chunk = spine->chunks[k].load(std::memory_order_relaxed);
        if (chunk != shared_) delete[] chunk;
      }
    }
    spine_owner_.reset();
    old_spines_.clear();
    spine_.store(nullptr, std::memory_order_relaxed);
    size_.store(0, std::memory_order_relaxed);
    shared_ = nullptr;
  }

  void StealFrom(SlotVector* other) {
    spine_owner_ = std::move(other->spine_owner_);
    old_spines_ = std::move(other->old_spines_);
    shared_ = std::exchange(other->shared_, nullptr);
    spine_.store(other->spine_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    size_.store(other->size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    other->spine_.store(nullptr, std::memory_order_relaxed);
    other->size_.store(0, std::memory_order_relaxed);
    other->old_spines_.clear();
  }

  std::atomic<Spine*> spine_{nullptr};
  std::atomic<size_t> size_{0};
  std::unique_ptr<Spine> spine_owner_;
  std::vector<std::unique_ptr<Spine>> old_spines_;
  /// The chunk released positions share (caller-owned; null until the
  /// first release).
  T* shared_ = nullptr;
};

}  // namespace cypher

#endif  // CYPHER_COMMON_SLOT_VECTOR_H_
