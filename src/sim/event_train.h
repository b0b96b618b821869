// Packet trains: a batch of future events from one owner held in the
// scheduler as a single pending entry.
//
// A FLID sender used to pre-schedule its whole slot of packets at the slot
// boundary, so a busy world kept a slot's worth of events per sender in the
// queue. A train takes the same batch, reserves one tie-break sequence
// number per item in issue order (item k gets base + k, the number an at()
// call at that point would have taken), sorts the items by (when, seq), and
// queues only the head. When the head fires it queues the next item, then
// runs the owner's callback.
//
// The fire order is identical to pre-scheduling every item. Item k+1 is
// queued when item k fires, at time when_k <= when_{k+1}, so it is never in
// the past, and the reserved block holds no other event's sequence number.
// Every item not yet queued sorts after the queued head, so the scheduler's
// global (when, seq) pop order never passes over it — under the heap and
// the wheel alike. Only the queue-occupancy gauges change.
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
    std::sort(items_.begin() + static_cast<std::ptrdiff_t>(head_), items_.end(),
              [](const item& a, const item& b) {
                return a.when < b.when ||
                       (a.when == b.when && a.order < b.order);
              });
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
