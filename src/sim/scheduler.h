// Discrete-event scheduler: a time-ordered queue of callbacks.
//
// Events at equal timestamps fire in scheduling order (FIFO tie-break via a
// monotone sequence number) so runs are deterministic. reserve_seqs() hands
// out a block of those numbers ahead of time; an event scheduled later under
// a reserved number fires exactly where it would have fired had it been
// scheduled at reservation time (sim::event_train builds on this).
//
// The hot path is allocation-lean: callbacks live in a slab of pooled slots
// (recycled through a free list, addressed by generation-counted handles) and
// the priority queue orders small POD entries that point into the slab.
// Scheduling or cancelling an event allocates nothing once the slab and the
// queue have warmed up; callables that fit event_fn's inline buffer never
// touch the allocator at all. The queue is a 4-ary min-heap of
// (when, seq, slot) entries: O(log n) schedule/pop.
//
// at() returns a cancellable handle; post() schedules the same way but
// returns none, which spares the handle's reference-count traffic on timers
// nobody cancels (link serialization and delivery, protocol slot ticks).
#ifndef MCC_SIM_SCHEDULER_H
#define MCC_SIM_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/require.h"

namespace mcc::sim {

/// Move-only type-erased `void()` callable with inline small-buffer storage.
/// Callables up to `inline_size` bytes are stored in place; larger ones fall
/// back to one heap allocation. Simulator-internal events (link timers,
/// protocol slot ticks) capture a pointer and a few scalars and stay inline.
/// Trivially copyable inline callables, and the pointer a heap callable is
/// held by, relocate by memcpy instead of an indirect call.
class event_fn {
 public:
  static constexpr std::size_t inline_size = 48;

  event_fn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, event_fn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  event_fn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= inline_size &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = heap_ops<D>();
    }
  }

  event_fn(event_fn&& other) noexcept { move_from(other); }
  event_fn& operator=(event_fn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  event_fn(const event_fn&) = delete;
  event_fn& operator=(const event_fn&) = delete;
  ~event_fn() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  /// A null relocate means "memcpy the buffer"; a null destroy, "nothing to
  /// destroy".
  struct vtable {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void*);
  };

  template <typename D>
  static const vtable* inline_ops() {
    if constexpr (std::is_trivially_copyable_v<D>) {
      static constexpr vtable t{
          [](void* b) { (*std::launder(reinterpret_cast<D*>(b)))(); }, nullptr,
          nullptr};
      return &t;
    } else {
      static constexpr vtable t{
          [](void* b) { (*std::launder(reinterpret_cast<D*>(b)))(); },
          [](void* dst, void* src) {
            D* s = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
          },
          [](void* b) { std::launder(reinterpret_cast<D*>(b))->~D(); }};
      return &t;
    }
  }

  template <typename D>
  static const vtable* heap_ops() {
    static constexpr vtable t{
        [](void* b) { (**std::launder(reinterpret_cast<D**>(b)))(); }, nullptr,
        [](void* b) { delete *std::launder(reinterpret_cast<D**>(b)); }};
    return &t;
  }

  void move_from(event_fn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate == nullptr) {
        std::memcpy(buf_, other.buf_, inline_size);
      } else {
        ops_->relocate(buf_, other.buf_);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[inline_size];
  const vtable* ops_ = nullptr;
};

namespace detail {

/// One slab slot: the callable plus the generation counter that invalidates
/// stale handles when the slot is recycled.
struct event_slot {
  std::uint32_t gen = 0;
  bool cancelled = false;
  event_fn fn;
};

/// The slab. Handles hold a weak_ptr to it so they stay safe (inert) after
/// the owning scheduler is destroyed; the weak_ptr copy is a refcount bump,
/// not an allocation — the control block is one per scheduler, not per event.
struct event_pool {
  std::vector<event_slot> slots;
  std::vector<std::uint32_t> free_list;
};

}  // namespace detail

/// One tie-break sequence number reserved through scheduler::reserve_seqs().
/// A default-constructed one names no number; scheduling at it throws.
class reserved_seq {
 public:
  reserved_seq() = default;

 private:
  friend class seq_block;
  friend class scheduler;
  explicit reserved_seq(std::uint64_t value) : value_(value) {}

  std::uint64_t value_ = std::numeric_limits<std::uint64_t>::max();
};

/// A run of consecutive tie-break sequence numbers handed out by
/// scheduler::reserve_seqs(). Only the scheduler mints blocks, so no number
/// drawn from one was ever given to an ordinary at() event.
class seq_block {
 public:
  seq_block() = default;

  /// The k-th number of the block.
  [[nodiscard]] reserved_seq operator[](std::size_t k) const {
    util::require(k < size_, "scheduler: sequence number was not reserved");
    return reserved_seq(first_ + k);
  }

 private:
  friend class scheduler;
  seq_block(std::uint64_t first, std::size_t size)
      : first_(first), size_(size) {}

  std::uint64_t first_ = 0;
  std::size_t size_ = 0;
};

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert, and handles may outlive the scheduler.
class event_handle {
 public:
  event_handle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void cancel() {
    if (auto p = pool_.lock()) {
      detail::event_slot& s = p->slots[slot_];
      if (s.gen == gen_) {
        s.cancelled = true;
        // Free the captured state now rather than when the dead entry is
        // eventually popped at its deadline.
        s.fn.reset();
      }
    }
    pool_.reset();
  }

  /// True if the handle still refers to a pending, uncancelled event.
  [[nodiscard]] bool pending() const {
    auto p = pool_.lock();
    if (p == nullptr) return false;
    const detail::event_slot& s = p->slots[slot_];
    return s.gen == gen_ && !s.cancelled;
  }

 private:
  friend class scheduler;
  event_handle(std::weak_ptr<detail::event_pool> pool, std::uint32_t slot,
               std::uint32_t gen)
      : pool_(std::move(pool)), slot_(slot), gen_(gen) {}

  std::weak_ptr<detail::event_pool> pool_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// The event queue. All simulation modules share one scheduler.
class scheduler {
 public:
  scheduler() : pool_(std::make_shared<detail::event_pool>()) {
    pool_->slots.reserve(1024);
    pool_->free_list.reserve(1024);
    heap_.reserve(1024);
  }
  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  [[nodiscard]] time_ns now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (must not be in the past).
  event_handle at(time_ns when, event_fn&& fn) {
    util::require(when >= now_, "scheduler: event scheduled in the past");
    return handle_of(push_event(when, next_seq_++, std::move(fn)));
  }

  /// Schedules `fn` after a relative delay.
  event_handle after(time_ns delay, event_fn&& fn) {
    return at(now_ + delay, std::move(fn));
  }

  /// at() without a handle: the event takes the same sequence number an
  /// at() call would have and cannot be cancelled.
  void post(time_ns when, event_fn&& fn) {
    util::require(when >= now_, "scheduler: event scheduled in the past");
    push_event(when, next_seq_++, std::move(fn));
  }

  /// Hands out the next `n` tie-break sequence numbers — exactly the ones
  /// the next n at() calls would have taken — for events scheduled later
  /// through at(when, reserved_seq, fn).
  seq_block reserve_seqs(std::size_t n) {
    const seq_block block(next_seq_, n);
    next_seq_ += n;
    return block;
  }

  /// Schedules `fn` at `when` under a sequence number reserved earlier. It
  /// fires exactly where an at(when, fn) call made at reservation time would
  /// have fired it: among equal-time events, after those scheduled before
  /// the reservation and before those scheduled after it. Schedule each
  /// reserved number at most once.
  event_handle at(time_ns when, reserved_seq seq, event_fn&& fn) {
    util::require(seq.value_ < next_seq_,
                  "scheduler: sequence number was not reserved");
    util::require(when >= now_, "scheduler: event scheduled in the past");
    return handle_of(push_event(when, seq.value_, std::move(fn)));
  }

  /// Runs events until the queue drains or simulated time would pass `until`.
  /// Leaves now() == until when the horizon is reached.
  void run_until(time_ns until) {
    entry top;
    while (pop_next(until, top)) {
      event_fn fn = release_slot(top.slot);
      if (!fn) continue;  // cancelled
      now_ = top.when;
      executed_++;
      fn();
    }
    if (now_ < until) now_ = until;
  }

  /// Runs until the queue is empty.
  void run() {
    entry top;
    while (pop_next(std::numeric_limits<time_ns>::max(), top)) {
      event_fn fn = release_slot(top.slot);
      if (!fn) continue;  // cancelled
      now_ = top.when;
      executed_++;
      fn();
    }
  }

  /// Pending entries, cancelled-but-not-yet-reaped ones included.
  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// High-watermark of pending_events() over the run (sampled at schedule
  /// time — the only place the count grows).
  [[nodiscard]] std::size_t max_pending_events() const { return max_pending_; }
  /// Slab-pool high-water mark: slots are recycled through a free list and
  /// never shrink, so the slab size is the peak distinct-pending footprint.
  [[nodiscard]] std::size_t slots_high_water() const {
    return pool_->slots.size();
  }

 private:
  struct entry {
    time_ns when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const entry& a, const entry& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  /// Parks `fn` in a slab slot and queues it under (when, seq); returns the
  /// slot.
  std::uint32_t push_event(time_ns when, std::uint64_t seq, event_fn&& fn) {
    std::uint32_t idx;
    if (!pool_->free_list.empty()) {
      idx = pool_->free_list.back();
      pool_->free_list.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(pool_->slots.size());
      pool_->slots.emplace_back();
    }
    detail::event_slot& slot = pool_->slots[idx];
    slot.cancelled = false;
    slot.fn = std::move(fn);
    heap_push(entry{when, seq, idx});
    if (heap_.size() > max_pending_) max_pending_ = heap_.size();
    return idx;
  }

  event_handle handle_of(std::uint32_t idx) {
    return event_handle(pool_, idx, pool_->slots[idx].gen);
  }

  /// Pops the globally least (when, seq) entry with when <= limit into `out`;
  /// false when nothing that early is pending.
  bool pop_next(time_ns limit, entry& out) {
    if (heap_.empty() || heap_.front().when > limit) return false;
    out = heap_pop();
    return true;
  }

  // 4-ary min-heap of small POD entries: half the sift depth of a binary
  // heap and hole-based sifting (no swaps), which is what makes large
  // pending sets cheap.
  void heap_push(entry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  entry heap_pop() {
    const entry top = heap_.front();
    const entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      const std::size_t n = heap_.size();
      std::size_t i = 0;
      for (;;) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= n) break;
        std::size_t best = first_child;
        const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
        for (std::size_t c = first_child + 1; c < end; ++c) {
          if (before(heap_[c], heap_[best])) best = c;
        }
        if (!before(heap_[best], last)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    return top;
  }

  /// Takes the callable out of a popped slot and recycles the slot (bumping
  /// its generation so stale handles go inert). Returns an empty event_fn if
  /// the event was cancelled. The slot is recycled *before* the callable
  /// runs, so callbacks may freely schedule new events.
  event_fn release_slot(std::uint32_t idx) {
    detail::event_slot& slot = pool_->slots[idx];
    event_fn fn;
    if (!slot.cancelled) fn = std::move(slot.fn);
    slot.fn.reset();
    slot.cancelled = false;
    ++slot.gen;
    pool_->free_list.push_back(idx);
    return fn;
  }

  time_ns now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t max_pending_ = 0;  // high-water mark of pending_events()
  std::shared_ptr<detail::event_pool> pool_;
  std::vector<entry> heap_;
};

}  // namespace mcc::sim

#endif  // MCC_SIM_SCHEDULER_H
