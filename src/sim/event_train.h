// Packet trains: a batch of future events from one owner held in the
// scheduler as a single pending entry.
//
// A FLID sender used to pre-schedule its whole slot of packets at the slot
// boundary, so a busy world kept a slot's worth of events per sender in the
// queue. A train takes the same batch, reserves one tie-break sequence
// number per item in issue order (item k gets base + k, the number an at()
// call at that point would have taken), merges the items into (when, seq)
// order, and queues only the head. When the head fires it queues the next
// item, then runs the owner's callback.
//
// The fire order is identical to pre-scheduling every item. Item k+1 is
// queued when item k fires, at time when_k <= when_{k+1}, so it is never in
// the past, and the reserved block holds no other event's sequence number.
// Every item not yet queued sorts after the queued head, so the scheduler's
// global (when, seq) pop order never passes over it. Only the
// queue-occupancy gauges change.
#ifndef MCC_SIM_EVENT_TRAIN_H
#define MCC_SIM_EVENT_TRAIN_H

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "sim/scheduler.h"

namespace mcc::sim {

/// Queued events hold the train's address, so it is neither copyable nor
/// movable; destroying it cancels its queued head.
template <typename Payload>
class event_train {
 public:
  using fire_fn = std::function<void(Payload&)>;

  event_train(scheduler& sched, fire_fn fire)
      : sched_(sched), fire_(std::move(fire)) {}
  event_train(const event_train&) = delete;
  event_train& operator=(const event_train&) = delete;
  ~event_train() { armed_.cancel(); }

  /// Stages one item of the next batch; it takes its sequence number at
  /// launch(), in add() order.
  void add(time_ns when, Payload payload) {
    items_.push_back({when, reserved_seq{}, payloads_.size()});
    payloads_.push_back(std::move(payload));
  }

  /// Reserves the staged batch's sequence numbers and merges it into the
  /// train; the earliest pending item is the one queued.
  void launch() {
    const std::size_t n = items_.size() - staged_;
    if (n == 0) return;
    const seq_block block = sched_.reserve_seqs(n);
    for (std::size_t k = 0; k < n; ++k) items_[staged_ + k].seq = block[k];
    const bool was_armed = head_ < staged_;
    const item old_head = was_armed ? items_[head_] : item{};
    merge_runs();
    staged_ = items_.size();
    if (was_armed && items_[head_].order == old_head.order) return;
    armed_.cancel();
    arm();
  }

 private:
  struct item {
    time_ns when = 0;
    reserved_seq seq;
    std::size_t order = 0;  // index into payloads_: add() order
  };
  /// Fire order. A function object, not a function, so std::merge inlines
  /// it.
  struct item_before {
    bool operator()(const item& a, const item& b) const {
      return a.when < b.when || (a.when == b.when && a.order < b.order);
    }
  };

  /// Sorts [head_, end) by (when, order). The launched items are one sorted
  /// run and an owner usually stages a batch as a few ascending runs (a
  /// FLID sender, one per group), so a natural merge sort of the runs does
  /// O(n log runs) work. (when, order) is a total key, so the result is the
  /// one std::sort gives.
  void merge_runs() {
    const auto first = items_.begin() + static_cast<std::ptrdiff_t>(head_);
    const std::size_t n = items_.size() - head_;
    const item_before before;
    std::vector<std::size_t> bounds{0};  // run starts, then the end
    for (std::size_t k = 1; k < n; ++k) {
      if (before(first[static_cast<std::ptrdiff_t>(k)],
                 first[static_cast<std::ptrdiff_t>(k - 1)])) {
        bounds.push_back(k);
      }
    }
    bounds.push_back(n);
    if (bounds.size() == 2) return;  // already sorted
    // Ping-pong between the items and a scratch buffer, merging adjacent
    // runs pairwise until one remains. The buffer is a local: a member
    // would keep a batch's worth of memory in every train of a farm.
    std::vector<item> scratch(n);
    item* src = &*first;
    item* dst = scratch.data();
    while (bounds.size() > 2) {
      std::size_t kept = 0;
      std::size_t r = 0;
      for (; r + 2 < bounds.size(); r += 2) {
        std::merge(src + bounds[r], src + bounds[r + 1], src + bounds[r + 1],
                   src + bounds[r + 2], dst + bounds[r], before);
        bounds[kept++] = bounds[r];
      }
      if (r + 1 < bounds.size()) {  // an odd run out: carried over as is
        std::copy(src + bounds[r], src + bounds[r + 1], dst + bounds[r]);
        bounds[kept++] = bounds[r];
      }
      bounds[kept++] = n;
      bounds.resize(kept);
      std::swap(src, dst);
    }
    if (src != &*first) std::copy(src, src + n, first);
  }

  void arm() {
    const item& c = items_[head_];
    armed_ = sched_.at(c.when, c.seq, [this] { fire(); });
  }

  void fire() {
    Payload payload = std::move(payloads_[items_[head_].order]);
    ++head_;
    if (head_ < staged_) {
      arm();
    } else if (staged_ == items_.size()) {
      // Drained: recycle the buffers for the next batch.
      items_.clear();
      payloads_.clear();
      head_ = staged_ = 0;
    }
    fire_(payload);
  }

  scheduler& sched_;
  fire_fn fire_;
  std::vector<item> items_;      // [head_, staged_) launched, sorted
  std::vector<Payload> payloads_;
  std::size_t head_ = 0;
  std::size_t staged_ = 0;
  event_handle armed_;
};

}  // namespace mcc::sim

#endif  // MCC_SIM_EVENT_TRAIN_H
