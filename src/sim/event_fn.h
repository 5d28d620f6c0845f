// EventFn: the simulator's event callback.
//
// `std::function<void()>` heap-allocates for any capture larger than its
// small-object buffer (16 bytes on libstdc++), which every modelled NAND
// read, bus beat, and screen dispatch would pay. EventFn instead stores the
// callable inline in a fixed 32-byte buffer whenever it is trivially
// copyable, trivially destructible and not over-aligned (lambdas capturing
// pointers, ids and ticks), so those events are built, moved and destroyed
// without an allocation.
//
// Every other callable (a larger capture, or a non-trivial one such as a
// captured `std::function` continuation) is created with `new` and destroyed
// with `delete`. That fallback is common: over the three gated perfbench
// workloads at seed 1 it serves 63-77% of events. But a workload unit runs
// only 24k-113k events in about a second of wall time, so the heap costs a
// few milliseconds per unit at most (docs/PERFORMANCE.md, "EventFn").
//
// An EventFn may be destroyed on a different thread than the one that built
// it: a partitioned fleet run (src/fleet/fleet.h, Execution::kPartitioned)
// builds each shard's simulator on the caller thread, serves it on a
// SweepRunner worker and destroys it back on the caller, so pending events
// cross threads in both directions. That needs nothing from EventFn: the
// global allocator makes a `delete` on one thread of a `new` from another
// safe, and SweepRunner's thread start and join order each handoff.
//
// The inline budget is deliberately 32 and not larger: together with the two
// dispatch pointers it makes EventFn 48 bytes, so a calendar-queue Event
// (when + seq + EventFn) is exactly one 64-byte cache line. Measured on the
// engine micro-bench, the smaller event beats a 48-byte buffer by ~25% at
// 16k+ live events — one line of traffic per push/pop instead of two.
//
// EventFn is move-only; a moved-from EventFn is empty. Inline callables are
// relocated by memcpy (that is what the trivially-copyable requirement buys),
// and heap ones by copying their pointer, so queue reshuffles
// (calendar-bucket inserts and rebuilds) stay cheap.
#ifndef SRC_SIM_EVENT_FN_H_
#define SRC_SIM_EVENT_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "src/sim/log.h"

namespace fabacus {

class EventFn {
 public:
  // Inline capacity: four pointer-sized captures. Hot-path lambdas across
  // the simulator capture [this, state*, id, tick] and fit; anything bigger
  // or non-trivial goes to the heap.
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
      D* p = new D(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof(void*));
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
    delete p;
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
