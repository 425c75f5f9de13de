// Arena allocation for datagram payloads.
//
// Every simulated packet used to carry a `shared_ptr<const payload>`:
// one control-block allocation per message (pooled, but still a separate
// 16-byte object), atomic refcounts on every copy, and a shared_ptr in
// every delivery closure. This header replaces that with an intrusive
// refcount in a header co-allocated with the payload itself, backed by
// process-lifetime thread-local freelists bucketed by size class:
//
//  * one allocation (and one cache line stream) per message instead of
//    two — the refcount header, the message fields and the view-entry
//    tail are contiguous;
//  * non-atomic refcounts — a payload is only ever retained/released on
//    the thread that created it (see the sharing contract below);
//  * free = push onto the calling thread's freelist; steady state runs
//    with zero malloc/free on the message path, for *every* payload
//    size, where the old pool only covered sizeof(gossip_message).
//
// Sharing contract (why non-atomic refcounts are safe in shard mode):
// receivers never retain — `datagram::body` is a raw pointer and a
// handler that wants to keep a payload must copy what it needs during
// the callback. The only owners of a block are therefore objects on the
// *sending* peer's shard (its pending-request map, the delivery lease in
// the transport), so refcount traffic is shard-local by construction.
// Cross-shard lifetime is handled by the transport's delivery leases,
// not by the refcount (see transport.cpp). A freed block can be reused
// by its owning thread immediately: the last reference is released on
// the thread that allocated the block, which takes it back onto its
// freelist. The one exception is teardown of a sharded universe, where
// the main thread releases what the (parked) workers allocated — the
// mutex/condvar pair gives the necessary happens-before — and hands
// those blocks back to the system allocator: kept on the main thread's
// freelist, which never allocates them again, they would pile up with
// every universe a process builds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/counters.h"

namespace nylon::net {

namespace arena_detail {

/// Prefix of every arena block; the payload object lives right after it.
/// max_align keeps the object region suitably aligned for any payload.
struct alignas(std::max_align_t) block_header {
  std::uint32_t refs;
  std::uint32_t size_class;  ///< freelist bucket; `oversize` = plain new
  const void* owner;         ///< the allocating thread's freelists
};
static_assert(sizeof(block_header) == alignof(std::max_align_t));

/// Blocks are bucketed in 64-byte steps; anything above 4 KiB goes to
/// the system allocator (rare: a gossip buffer is ~20 entries * 24 B).
inline constexpr std::size_t class_step = 64;
inline constexpr std::size_t class_count = 64;
inline constexpr std::uint32_t oversize = ~std::uint32_t{0};

/// Per-thread recycled blocks, one stack per size class. Process
/// lifetime (released at thread exit): payload lifetimes thread through
/// schedulers, pending maps and transport leases, and a freelist that
/// outlives all of them makes teardown order a non-issue.
struct freelists {
  std::vector<void*> buckets[class_count];
  std::size_t live_bytes = 0;  ///< currently-allocated arena bytes
  ~freelists() {
    for (auto& bucket : buckets) {
      for (void* block : bucket) ::operator delete(block);
    }
  }
};

inline freelists& local_freelists() {
  static thread_local freelists lists;
  return lists;
}

[[nodiscard]] inline block_header* header_of(const void* object) noexcept {
  return reinterpret_cast<block_header*>(
             const_cast<void*>(object)) - 1;
}

/// Allocates a block for `object_bytes` with refcount 1; returns the
/// object region.
[[nodiscard]] inline void* allocate(std::size_t object_bytes) {
  const std::size_t block_bytes = sizeof(block_header) + object_bytes;
  const std::size_t cls = (block_bytes + class_step - 1) / class_step;
  freelists& lists = local_freelists();
  block_header* header = nullptr;
  if (cls < class_count) {
    auto& bucket = lists.buckets[cls];
    if (!bucket.empty()) {
      header = static_cast<block_header*>(bucket.back());
      bucket.pop_back();
    } else {
      header = static_cast<block_header*>(::operator new(cls * class_step));
    }
    header->size_class = static_cast<std::uint32_t>(cls);
    lists.live_bytes += cls * class_step;
  } else {
    header = static_cast<block_header*>(::operator new(block_bytes));
    header->size_class = oversize;
    lists.live_bytes += block_bytes;
  }
  header->refs = 1;
  header->owner = &lists;
  obs::count_peak(obs::counter::arena_bytes_peak, lists.live_bytes);
  return header + 1;
}

/// Recycles a block whose object has already been destroyed.
inline void recycle(const void* object) noexcept {
  block_header* header = header_of(object);
  freelists& lists = local_freelists();
  if (header->size_class == oversize || header->owner != &lists) {
    // live_bytes under-reports the exact oversize block size here (the
    // byte count is not stored); oversize blocks are rare enough that
    // the peak telemetry does not need them to the byte. A block from
    // another thread (sharded teardown) stays in that thread's count.
    ::operator delete(header);
    return;
  }
  lists.live_bytes -= header->size_class * class_step;
  lists.buckets[header->size_class].push_back(header);
}

}  // namespace arena_detail

/// Intrusive-refcounted handle to an arena-allocated object. Copy
/// bumps a plain (non-atomic) u32 in the block header; destruction of
/// the last handle runs the object's destructor and recycles the block.
template <typename T>
class arena_ref {
 public:
  arena_ref() noexcept = default;
  arena_ref(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Takes ownership of the reference the allocator created.
  [[nodiscard]] static arena_ref adopt(T* object) noexcept {
    arena_ref ref;
    ref.ptr_ = object;
    return ref;
  }

  /// Shares ownership of a live block (e.g. a test keeping a delivered
  /// payload alive past the handler callback).
  [[nodiscard]] static arena_ref retain(T* object) noexcept {
    if (object != nullptr) ++arena_detail::header_of(object)->refs;
    arena_ref ref;
    ref.ptr_ = object;
    return ref;
  }

  arena_ref(const arena_ref& other) noexcept : ptr_(other.ptr_) {
    if (ptr_ != nullptr) ++arena_detail::header_of(ptr_)->refs;
  }
  arena_ref(arena_ref&& other) noexcept
      : ptr_(std::exchange(other.ptr_, nullptr)) {}

  /// Converting copy/move (derived-to-base, T -> const T).
  template <typename U>
    requires std::is_convertible_v<U*, T*>
  arena_ref(const arena_ref<U>& other) noexcept  // NOLINT
      : ptr_(other.ptr_) {
    if (ptr_ != nullptr) ++arena_detail::header_of(ptr_)->refs;
  }
  template <typename U>
    requires std::is_convertible_v<U*, T*>
  arena_ref(arena_ref<U>&& other) noexcept  // NOLINT
      : ptr_(std::exchange(other.ptr_, nullptr)) {}

  arena_ref& operator=(const arena_ref& other) noexcept {
    arena_ref(other).swap(*this);
    return *this;
  }
  arena_ref& operator=(arena_ref&& other) noexcept {
    arena_ref(std::move(other)).swap(*this);
    return *this;
  }
  arena_ref& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  ~arena_ref() { reset(); }

  void reset() noexcept {
    if (ptr_ == nullptr) return;
    T* object = std::exchange(ptr_, nullptr);
    if (--arena_detail::header_of(object)->refs == 0) {
      object->~T();  // virtual for payloads
      arena_detail::recycle(object);
    }
  }

  void swap(arena_ref& other) noexcept { std::swap(ptr_, other.ptr_); }

  [[nodiscard]] T* get() const noexcept { return ptr_; }
  [[nodiscard]] T& operator*() const noexcept { return *ptr_; }
  [[nodiscard]] T* operator->() const noexcept { return ptr_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return ptr_ != nullptr;
  }
  [[nodiscard]] friend bool operator==(const arena_ref& ref,
                                       std::nullptr_t) noexcept {
    return ref.ptr_ == nullptr;
  }

 private:
  template <typename U>
  friend class arena_ref;

  T* ptr_ = nullptr;
};

/// Arena-allocating make_shared analogue. The result is const: payloads
/// are immutable once built (builders that need a mutable window, like
/// gossip::make_message's entry tail, use arena_detail::allocate
/// directly).
template <typename T, typename... Args>
[[nodiscard]] arena_ref<const T> make_payload(Args&&... args) {
  void* memory = arena_detail::allocate(sizeof(T));
  T* object = ::new (memory) T(std::forward<Args>(args)...);
  return arena_ref<const T>::adopt(object);
}

}  // namespace nylon::net
