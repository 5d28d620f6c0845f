// EventFn: the simulator's zero-allocation event callback.
//
// `std::function<void()>` heap-allocates for any capture larger than its
// small-object buffer (16 bytes on libstdc++), which every modelled NAND
// read, bus beat, and screen dispatch pays on the hot path. EventFn instead
// stores the callable inline in a fixed 32-byte buffer whenever it is
// trivially copyable (lambdas capturing pointers, ids and ticks — the common
// case across the simulator), and falls back to a thread-local slab/freelist
// for the rare oversized or non-trivial callables (e.g. ones capturing a
// `std::function` continuation). The slab never touches malloc after warmup.
// Each chunk is tagged with its owning pool, so an EventFn may be destroyed
// on a different thread than the one that built it: a partitioned fleet run
// (src/fleet/fleet.h, Execution::kPartitioned) builds each shard's simulator
// on the caller thread, serves it on a SweepRunner worker and destroys it
// back on the caller, so pending events cross threads in both directions. A
// local free is a plain push onto the owner's freelist, a remote free is a
// lock-free push onto the owner's return stack, drained by the owner on its
// next refill.
//
// The inline budget is deliberately 32 and not larger: together with the two
// dispatch pointers it makes EventFn 48 bytes, so a calendar-queue Event
// (when + seq + EventFn) is exactly one 64-byte cache line. Measured on the
// engine micro-bench, the smaller event beats a 48-byte buffer by ~25% at
// 16k+ live events — one line of traffic per push/pop instead of two.
//
// EventFn is move-only; a moved-from EventFn is empty. Inline callables are
// relocated by memcpy (that is what the trivially-copyable requirement buys),
// so queue reshuffles (calendar-bucket inserts and rebuilds) stay cheap.
#ifndef SRC_SIM_EVENT_FN_H_
#define SRC_SIM_EVENT_FN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/log.h"

namespace fabacus {

namespace internal {

// Thread-local fixed-chunk pool for callables that do not fit inline.
// Chunks are carved from 64 KiB slabs and recycled through a freelist, so a
// steady-state simulation performs no heap allocation per event. Chunks
// larger than kChunkBytes (rare: very fat captures) go straight to new[],
// which is cross-thread-safe by construction.
//
// Cross-thread free: every chunk carries a header naming its owning pool.
// Freeing on the owner thread is the original freelist push; freeing
// anywhere else CAS-pushes the chunk onto the owner's lock-free return
// stack, which the owner splices back into its freelist before growing.
// Pools are heap-allocated and reference-counted (one ref per outstanding
// chunk plus one for the owning thread), so a chunk freed after its
// allocating thread has exited still lands on a live pool; whoever drops
// the last reference deletes the pool and its slabs wholesale.
class EventSlabPool {
 public:
  static constexpr std::size_t kChunkBytes = 128;
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  static void* Alloc(std::size_t n) {
    if (n > kChunkBytes) {
      return ::operator new(n, std::align_val_t{alignof(std::max_align_t)});
    }
    return Local()->AllocChunk();
  }

  static void Free(void* p, std::size_t n) {
    if (n > kChunkBytes) {
      ::operator delete(p, std::align_val_t{alignof(std::max_align_t)});
      return;
    }
    Header* h = reinterpret_cast<Header*>(static_cast<unsigned char*>(p) - kHeaderBytes);
    EventSlabPool* owner = h->owner;
    if (owner == tl_pool_) {
      owner->FreeLocal(h);
    } else {
      owner->FreeRemote(h);
    }
  }

  // Outstanding chunks handed out by this thread's pool and not yet freed on
  // any thread (test/diagnostic hook).
  static std::size_t LiveChunks() {
    return Local()->refs_.load(std::memory_order_relaxed) - 1;
  }

 private:
  // Per-chunk header. `owner` stays valid for the chunk's whole lifetime
  // (it holds a pool reference); `next` is freelist/return-stack linkage,
  // dead while the chunk is handed out.
  struct Header {
    EventSlabPool* owner;
    Header* next;
  };
  // Payload offset: big enough for the header, aligned for any capture.
  static constexpr std::size_t kHeaderBytes =
      ((sizeof(Header) + alignof(std::max_align_t) - 1) / alignof(std::max_align_t)) *
      alignof(std::max_align_t);
  static constexpr std::size_t kStride = kHeaderBytes + kChunkBytes;
  static_assert(kStride % alignof(std::max_align_t) == 0,
                "chunk stride must preserve payload alignment");

  static EventSlabPool* Local() {
    // The holder pins tl_pool_ for the thread's lifetime; on thread exit it
    // drops the owner reference, after which the last in-flight remote free
    // deletes the pool.
    struct Holder {
      EventSlabPool* pool = new EventSlabPool();
      Holder() { tl_pool_ = pool; }
      ~Holder() {
        tl_pool_ = nullptr;
        pool->OnOwnerExit();
      }
    };
    thread_local Holder holder;
    return holder.pool;
  }

  void* AllocChunk() {
    if (free_ == nullptr) {
      DrainRemote();
      if (free_ == nullptr) {
        Refill();
      }
    }
    Header* h = free_;
    free_ = h->next;
    h->owner = this;
    refs_.fetch_add(1, std::memory_order_relaxed);
    return reinterpret_cast<unsigned char*>(h) + kHeaderBytes;
  }

  void FreeLocal(Header* h) {
    h->next = free_;
    free_ = h;
    // Cannot hit zero: the owner reference is still held by this thread.
    refs_.fetch_sub(1, std::memory_order_relaxed);
  }

  void FreeRemote(Header* h) {
    // Publish the chunk before dropping its reference, so a concurrent
    // pool deletion (owner already gone, refs hitting zero) reclaims it.
    Header* old = remote_free_.load(std::memory_order_relaxed);
    do {
      h->next = old;
    } while (!remote_free_.compare_exchange_weak(old, h, std::memory_order_release,
                                                 std::memory_order_relaxed));
    Unref();
  }

  void DrainRemote() {
    // Acquire pairs with FreeRemote's release: the remote thread's final
    // writes to the chunk happen-before its reuse here.
    Header* list = remote_free_.exchange(nullptr, std::memory_order_acquire);
    while (list != nullptr) {
      Header* next = list->next;
      list->next = free_;
      free_ = list;
      list = next;
    }
  }

  void OnOwnerExit() {
    DrainRemote();
    Unref();
  }

  void Unref() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete this;
    }
  }

  void Refill() {
    slabs_.push_back(std::make_unique<AlignedSlab>());
    unsigned char* base = slabs_.back()->bytes;
    const std::size_t chunks = kSlabBytes / kStride;
    for (std::size_t i = 0; i < chunks; ++i) {
      Header* h = reinterpret_cast<Header*>(base + i * kStride);
      h->owner = this;
      h->next = free_;
      free_ = h;
    }
  }

  struct AlignedSlab {
    alignas(std::max_align_t) unsigned char bytes[kSlabBytes];
  };

  Header* free_ = nullptr;                      // owner-thread freelist
  std::atomic<Header*> remote_free_{nullptr};   // cross-thread return stack
  // Outstanding chunks + 1 for the owning thread; see class comment.
  std::atomic<std::size_t> refs_{1};
  std::vector<std::unique_ptr<AlignedSlab>> slabs_;

  static thread_local EventSlabPool* tl_pool_;
};

inline thread_local EventSlabPool* EventSlabPool::tl_pool_ = nullptr;

}  // namespace internal

class EventFn {
 public:
  // Inline capacity: four pointer-sized captures. Hot-path lambdas across
  // the simulator capture [this, state*, id, tick] and fit; anything bigger
  // or non-trivial rides the slab.
  static constexpr std::size_t kInlineBytes = 32;

  // True when F is stored inline (no allocation on construction or move).
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_trivially_copyable_v<std::decay_t<F>> &&
      std::is_trivially_destructible_v<std::decay_t<F>>;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>, "EventFn callable must be void()");
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &InvokeInline<D>;
      drop_ = nullptr;
    } else {
      void* mem = internal::EventSlabPool::Alloc(sizeof(D));
      ::new (mem) D(std::forward<F>(f));
      std::memcpy(buf_, &mem, sizeof(void*));
      invoke_ = &InvokeHeap<D>;
      drop_ = &DropHeap<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { StealFrom(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      StealFrom(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void operator()() {
    FAB_CHECK(invoke_ != nullptr) << "invoking an empty EventFn";
    invoke_(this);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  template <typename D>
  static void InvokeInline(EventFn* self) {
    (*std::launder(reinterpret_cast<D*>(self->buf_)))();
  }

  template <typename D>
  static void InvokeHeap(EventFn* self) {
    D* p = nullptr;
    std::memcpy(&p, self->buf_, sizeof(void*));
    (*p)();
  }

  template <typename D>
  static void DropHeap(EventFn* self) {
    D* p = nullptr;
    std::memcpy(&p, self->buf_, sizeof(void*));
    p->~D();
    internal::EventSlabPool::Free(p, sizeof(D));
  }

  void Reset() {
    if (drop_ != nullptr) {
      drop_(this);
    }
    invoke_ = nullptr;
    drop_ = nullptr;
  }

  void StealFrom(EventFn& other) noexcept {
    // Inline callables are trivially copyable by construction, heap ones are
    // just a pointer — a raw byte copy relocates either kind. The copy is a
    // fixed kInlineBytes regardless of the callable's real size; for small or
    // captureless callables the tail bytes are uninitialized and unused,
    // which GCC's -Wmaybe-uninitialized flags when it inlines deep enough.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
    std::memcpy(buf_, other.buf_, kInlineBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    invoke_ = other.invoke_;
    drop_ = other.drop_;
    other.invoke_ = nullptr;
    other.drop_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void (*invoke_)(EventFn*) = nullptr;
  void (*drop_)(EventFn*) = nullptr;
};

static_assert(sizeof(EventFn) == 48,
              "EventFn must stay 48 bytes so a queue Event (when + seq + fn) "
              "is exactly one 64-byte cache line");

}  // namespace fabacus

#endif  // SRC_SIM_EVENT_FN_H_
