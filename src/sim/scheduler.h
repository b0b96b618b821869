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
// touch the allocator at all.
//
// Two queue policies sit behind the same interface (scheduler_config):
//
//   heap   4-ary min-heap of POD entries — O(log n) schedule/pop, the
//          conservative default.
//   wheel  hierarchical timer wheel (calendar queue) — O(1) amortized
//          schedule/cancel into fixed-width buckets, an overflow far wheel
//          that cascades on rollover, and a (when, seq)-ordered due heap that
//          restores exact fire order within one bucket. Both policies fire
//          the identical (when, seq) total order, so traces are bit-for-bit
//          equal; the wheel wins once pending counts are large (>100k).
#ifndef MCC_SIM_SCHEDULER_H
#define MCC_SIM_SCHEDULER_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/require.h"

namespace mcc::sim {

/// Event-queue policy of a scheduler.
enum class sched_policy { heap, wheel };

[[nodiscard]] constexpr const char* sched_policy_name(sched_policy p) {
  return p == sched_policy::heap ? "heap" : "wheel";
}

/// Parses a policy name; nullopt for anything else (callers own the
/// friendly-error UX, like qdisc_from_name).
[[nodiscard]] inline std::optional<sched_policy> sched_policy_from_name(
    const std::string& name) {
  if (name == "heap") return sched_policy::heap;
  if (name == "wheel") return sched_policy::wheel;
  return std::nullopt;
}

struct scheduler_config {
  sched_policy policy = sched_policy::heap;
  /// Level-0 bucket width of the wheel, rounded up to a power of two.
  /// The default (~1 us) is sized from the slot clock of the simulated
  /// protocols: packet serializations are microseconds, FLID slots hundreds
  /// of milliseconds, so level 0 separates per-packet timers while slot
  /// ticks park in the upper levels until they cascade.
  time_ns wheel_granularity = 1024;
};

/// Move-only type-erased `void()` callable with inline small-buffer storage.
/// Callables up to `inline_size` bytes are stored in place; larger ones fall
/// back to one heap allocation. Simulator-internal events (link timers,
/// protocol slot ticks) capture a pointer and a few scalars and stay inline.
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
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct vtable {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void*);
  };

  template <typename D>
  static const vtable* inline_ops() {
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

  template <typename D>
  static const vtable* heap_ops() {
    static constexpr vtable t{
        [](void* b) { (**std::launder(reinterpret_cast<D**>(b)))(); },
        [](void* dst, void* src) {
          ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
        },
        [](void* b) { delete *std::launder(reinterpret_cast<D**>(b)); }};
    return &t;
  }

  void move_from(event_fn& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
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
  explicit scheduler(scheduler_config cfg = {})
      : cfg_(cfg), pool_(std::make_shared<detail::event_pool>()) {
    pool_->slots.reserve(1024);
    pool_->free_list.reserve(1024);
    heap_.reserve(1024);
    if (cfg_.policy == sched_policy::wheel) {
      util::require(cfg_.wheel_granularity > 0,
                    "scheduler: wheel granularity must be positive");
      gran_bits_ = std::bit_width(
          static_cast<std::uint64_t>(cfg_.wheel_granularity) - 1);
      // Cap so the far-wheel span arithmetic cannot overflow time_ns.
      util::require(gran_bits_ + kWheelLevels * kWheelBits <= 60,
                    "scheduler: wheel granularity too coarse");
      wheel_ = std::make_unique<wheel_state>();
    }
  }
  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  [[nodiscard]] time_ns now() const { return now_; }
  [[nodiscard]] sched_policy policy() const { return cfg_.policy; }

  /// Schedules `fn` at absolute time `at` (must not be in the past).
  event_handle at(time_ns when, event_fn fn) {
    util::require(when >= now_, "scheduler: event scheduled in the past");
    return push_event(when, next_seq_++, std::move(fn));
  }

  /// Schedules `fn` after a relative delay.
  event_handle after(time_ns delay, event_fn fn) {
    return at(now_ + delay, std::move(fn));
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
  event_handle at(time_ns when, reserved_seq seq, event_fn fn) {
    util::require(seq.value_ < next_seq_,
                  "scheduler: sequence number was not reserved");
    util::require(when >= now_, "scheduler: event scheduled in the past");
    return push_event(when, seq.value_, std::move(fn));
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

  /// Pending entries, cancelled-but-not-yet-reaped ones included (identical
  /// accounting under both policies).
  [[nodiscard]] std::size_t pending_events() const {
    return heap_.size() + wheel_count_;
  }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// High-watermark of pending_events() over the run (sampled at schedule
  /// time — the only place the count grows).
  [[nodiscard]] std::size_t max_pending_events() const { return max_pending_; }
  /// Slab-pool high-water mark: slots are recycled through a free list and
  /// never shrink, so the slab size is the peak distinct-pending footprint.
  [[nodiscard]] std::size_t slots_high_water() const {
    return pool_->slots.size();
  }

  /// Deterministic self-profiling snapshot (pure reads — never perturbs the
  /// queue). `wheel_occupied[l]` is the number of occupied level-l buckets
  /// (empty vector under the heap policy); `far_entries` counts the overflow
  /// far wheel.
  struct profile {
    std::uint64_t executed = 0;
    std::size_t pending = 0;
    std::size_t max_pending = 0;
    std::size_t slots_high_water = 0;
    std::vector<std::size_t> wheel_occupied;
    std::size_t far_entries = 0;
  };
  [[nodiscard]] profile profile_now() const {
    profile p;
    p.executed = executed_;
    p.pending = pending_events();
    p.max_pending = max_pending_;
    p.slots_high_water = pool_->slots.size();
    if (wheel_ != nullptr) {
      p.wheel_occupied.resize(kWheelLevels, 0);
      for (int l = 0; l < kWheelLevels; ++l) {
        const wheel_level& lv = wheel_->level[static_cast<std::size_t>(l)];
        std::size_t occupied = 0;
        for (const std::uint64_t word : lv.occupied) {
          occupied += static_cast<std::size_t>(std::popcount(word));
        }
        p.wheel_occupied[static_cast<std::size_t>(l)] = occupied;
      }
      p.far_entries = far_.size();
    }
    return p;
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

  /// Parks `fn` in a slab slot and queues it under (when, seq).
  event_handle push_event(time_ns when, std::uint64_t seq, event_fn fn) {
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
    const entry e{when, seq, idx};
    if (wheel_ != nullptr) {
      wheel_push(e);
    } else {
      heap_push(e);
    }
    const std::size_t pending = heap_.size() + wheel_count_;
    if (pending > max_pending_) max_pending_ = pending;
    return event_handle(pool_, idx, slot.gen);
  }

  /// Pops the globally least (when, seq) entry with when <= limit into `out`;
  /// false when nothing that early is pending.
  bool pop_next(time_ns limit, entry& out) {
    if (wheel_ != nullptr && heap_.empty() && !wheel_advance(limit)) {
      return false;
    }
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

  // --- timer wheel -----------------------------------------------------------
  //
  // Hierarchy: kWheelLevels levels of kWheelBuckets fixed-width buckets.
  // Level l buckets are (granularity << l*kWheelBits) wide, so one full
  // rotation of level l covers exactly one bucket of level l+1. Binning is
  // absolute, not delta-based: an entry lives at the lowest level whose
  // current rotation window around horizon_ contains its deadline — the
  // lowest l where `when` and horizon_ agree on every bit above
  // level_shift(l+1). Within a rotation later deadlines have larger bucket
  // indices, so scans never wrap and a bucket never mixes rotations. Events
  // beyond the top level's rotation wait in the far wheel (`far_`) and
  // cascade in once the horizon enters their rotation. `horizon_` (always
  // granularity-aligned) splits the timeline: entries with when < horizon_
  // sit in the due heap (`heap_`, ordered by (when, seq) — the
  // deterministic intra-bucket order), entries with when >= horizon_ sit in
  // a bucket or the far wheel. Draining always picks the earliest bucket
  // window across levels, cascading upper levels before level 0 on ties, so
  // no entry is ever passed over: the pop order equals the heap policy's
  // order exactly. Cascades first advance the horizon to the drained
  // window, after which each entry agrees with the horizon one level
  // deeper — strict descent, so advancing terminates.

  static constexpr int kWheelBits = 8;  // 256 buckets per level
  static constexpr std::size_t kWheelBuckets = std::size_t{1} << kWheelBits;
  static constexpr int kWheelLevels = 4;

  struct wheel_level {
    std::array<std::vector<entry>, kWheelBuckets> bucket;
    std::array<std::uint64_t, kWheelBuckets / 64> occupied{};
  };
  struct wheel_state {
    std::array<wheel_level, kWheelLevels> level;
  };

  [[nodiscard]] int level_shift(int level) const {
    return gran_bits_ + level * kWheelBits;
  }
  [[nodiscard]] time_ns level_width(int level) const {
    return time_ns{1} << level_shift(level);
  }
  void wheel_push(const entry& e) {
    if (e.when < horizon_) {
      // Already inside the drained window: the due heap keeps exact order.
      heap_push(e);
      return;
    }
    const auto when = static_cast<std::uint64_t>(e.when);
    const auto hor = static_cast<std::uint64_t>(horizon_);
    int level = 0;
    while (level < kWheelLevels &&
           (when >> level_shift(level + 1)) !=
               (hor >> level_shift(level + 1))) {
      ++level;
    }
    ++wheel_count_;
    if (level == kWheelLevels) {
      far_.push_back(e);
      if (e.when < far_min_) far_min_ = e.when;
      return;
    }
    const std::size_t idx = (when >> level_shift(level)) & (kWheelBuckets - 1);
    wheel_level& lv = wheel_->level[static_cast<std::size_t>(level)];
    lv.bucket[idx].push_back(e);
    lv.occupied[idx / 64] |= std::uint64_t{1} << (idx % 64);
  }

  /// First occupied bucket of `lv` at index >= `from` (absolute binning
  /// never wraps within a rotation); -1 when none remain this rotation.
  static int next_occupied(const wheel_level& lv, std::size_t from) {
    std::size_t word = from / 64;
    const std::uint64_t bits = lv.occupied[word] >> (from % 64);
    if (bits != 0) return static_cast<int>(from) + std::countr_zero(bits);
    for (++word; word < kWheelBuckets / 64; ++word) {
      if (lv.occupied[word] != 0) {
        return static_cast<int>(word * 64) +
               std::countr_zero(lv.occupied[word]);
      }
    }
    return -1;
  }

  /// Advances the wheel until the due heap holds the next event, draining
  /// buckets in window order (upper levels cascade first on equal windows)
  /// and cascading the far wheel on rollover. Returns false when no pending
  /// event has when <= limit (the due heap stays empty); never advances the
  /// horizon past a still-bucketed entry.
  bool wheel_advance(time_ns limit) {
    const int top_shift = level_shift(kWheelLevels);
    for (;;) {
      // Earliest non-empty bucket window across levels; ties prefer the
      // highest level so its entries cascade down before level 0 fires.
      int best_level = -1;
      std::size_t best_idx = 0;
      time_ns best_ws = 0;
      const auto hor = static_cast<std::uint64_t>(horizon_);
      for (int l = kWheelLevels - 1; l >= 0; --l) {
        const wheel_level& lv = wheel_->level[static_cast<std::size_t>(l)];
        const std::size_t at = (hor >> level_shift(l)) & (kWheelBuckets - 1);
        const int idx = next_occupied(lv, at);
        if (idx < 0) continue;
        const time_ns ws = (horizon_ & ~(level_width(l + 1) - 1)) +
                           static_cast<time_ns>(idx) * level_width(l);
        if (best_level < 0 || ws < best_ws) {
          best_level = l;
          best_idx = static_cast<std::size_t>(idx);
          best_ws = ws;
        }
      }

      if (!far_.empty()) {
        if (best_level < 0) {
          // Wheels empty: jump straight to the earliest far entry's granule
          // and re-bucket whatever shares its top-level rotation.
          horizon_ = std::max(horizon_,
                              far_min_ & ~((time_ns{1} << gran_bits_) - 1));
          cascade_far();
          continue;
        }
        if ((static_cast<std::uint64_t>(far_min_) >> top_shift) ==
            (hor >> top_shift)) {
          // Rollover: the horizon entered the earliest far entry's rotation,
          // so it belongs in the wheels and must compete in window order.
          cascade_far();
          continue;
        }
      }
      if (best_level < 0) return false;
      if (best_ws > limit) return false;

      wheel_level& lv = wheel_->level[static_cast<std::size_t>(best_level)];
      std::vector<entry>& bucket = lv.bucket[best_idx];
      lv.occupied[best_idx / 64] &= ~(std::uint64_t{1} << (best_idx % 64));
      drained_.swap(bucket);  // reuse one scratch vector, keep bucket's slab
      if (best_level == 0) {
        horizon_ = best_ws + level_width(0);
        wheel_count_ -= drained_.size();
        for (const entry& e : drained_) heap_push(e);
        drained_.clear();
        if (!heap_.empty()) return true;
        continue;  // unreachable in practice: an occupied bucket is nonempty
      }
      // Cascade: advance the horizon to the drained window first (it is the
      // earliest pending window, so nothing is skipped); its entries then
      // agree with the horizon one level deeper and strictly descend.
      horizon_ = std::max(horizon_, best_ws);
      wheel_count_ -= drained_.size();
      for (const entry& e : drained_) wheel_push(e);
      drained_.clear();
    }
  }

  /// Moves every far entry whose top-level rotation the horizon has reached
  /// into the wheels and recomputes the far minimum.
  void cascade_far() {
    const int top_shift = level_shift(kWheelLevels);
    const std::uint64_t rotation =
        static_cast<std::uint64_t>(horizon_) >> top_shift;
    std::size_t kept = 0;
    far_min_ = std::numeric_limits<time_ns>::max();
    for (entry& e : far_) {
      if ((static_cast<std::uint64_t>(e.when) >> top_shift) == rotation) {
        --wheel_count_;  // wheel_push re-counts it
        wheel_push(e);
      } else {
        if (e.when < far_min_) far_min_ = e.when;
        far_[kept++] = e;
      }
    }
    far_.resize(kept);
  }

  scheduler_config cfg_;
  time_ns now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t max_pending_ = 0;  // high-water mark of pending_events()
  std::shared_ptr<detail::event_pool> pool_;
  /// Heap policy: the whole queue. Wheel policy: the due heap — entries
  /// with when < horizon_, ordered by (when, seq).
  std::vector<entry> heap_;
  std::unique_ptr<wheel_state> wheel_;  // null under the heap policy
  std::size_t wheel_count_ = 0;         // entries in buckets + far wheel
  time_ns horizon_ = 0;                 // granularity-aligned drain point
  int gran_bits_ = 0;
  std::vector<entry> far_;
  time_ns far_min_ = std::numeric_limits<time_ns>::max();
  std::vector<entry> drained_;  // scratch for bucket drains
};

}  // namespace mcc::sim

#endif  // MCC_SIM_SCHEDULER_H
