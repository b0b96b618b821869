// Unidirectional point-to-point link with serialization delay, propagation
// delay, and a finite queue whose admission/marking/head-drop decisions are
// delegated to a pluggable AQM policy (sim/aqm.h): drop-tail, threshold-ECN,
// RED, or CoDel, selected via link_config::aqm.
//
// The transmit -> propagate chain runs on two per-link timers (one
// serialization timer, one delivery timer) whose callbacks capture only the
// link pointer and are posted without a cancellation handle: packets wait in
// the link's own ring queues (sim/ring_queue.h) instead of being moved
// through per-hop closures, so forwarding a packet allocates nothing once
// the rings have grown to the link's peak occupancy. A packet moves three
// times per hop: into the waiting ring, from its head onto the in-flight
// ring when serialization ends, and from there into the next node.
#ifndef MCC_SIM_LINK_H
#define MCC_SIM_LINK_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/trace.h"
#include "sim/aqm.h"
#include "sim/ring_queue.h"
#include "sim/scheduler.h"
#include "sim/wire.h"

namespace mcc::sim {

class node;

struct link_config {
  double bps = 10e6;                      // line rate, bits/second
  time_ns delay = milliseconds(10);       // propagation delay
  std::int64_t queue_capacity_bytes = 0;  // 0 = pick 2 BDP at 100 ms
  aqm_config aqm;                         // queue discipline + parameters
};

/// Per-link counters. Byte-level drop accounting and the queue-occupancy
/// high-watermark let overload scenarios report loss in bytes and peak
/// buffer pressure, not just packet counts. `aqm_dropped` splits policy
/// decisions (RED early drops, CoDel sojourn drops) out of `dropped`, whose
/// remainder is physical tail overflow.
struct link_stats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;      // total: tail overflow + AQM decisions
  std::uint64_t aqm_dropped = 0;  // subset of dropped decided by the policy
  std::uint64_t delivered = 0;
  std::uint64_t ecn_marked = 0;
  std::int64_t bytes_delivered = 0;
  std::int64_t bytes_dropped = 0;
  std::int64_t max_queued_bytes = 0;  // high-watermark of queued_bytes()
};

/// One direction of a wire. Created in pairs by network::connect().
class link {
 public:
  /// `index` is the link's position in its network's creation order
  /// (network::links()).
  link(scheduler& sched, node* from, node* to, const link_config& cfg,
       std::size_t index);
  link(const link&) = delete;
  link& operator=(const link&) = delete;

  /// Hands a packet to the link for transmission; may drop (queue full or
  /// AQM early drop).
  void transmit(packet&& p);

  /// Position in network::links(): a per-world order that does not depend
  /// on where the allocator put the link.
  [[nodiscard]] std::size_t index() const { return index_; }

  [[nodiscard]] node* from() const { return from_; }
  [[nodiscard]] node* to() const { return to_; }
  [[nodiscard]] link* reverse() const { return reverse_; }
  void set_reverse(link* r) { reverse_ = r; }

  [[nodiscard]] const link_config& config() const { return cfg_; }
  [[nodiscard]] std::int64_t queued_bytes() const { return queued_bytes_; }

  /// The instantiated queue policy (RED's EWMA average lives here).
  [[nodiscard]] const aqm_policy& aqm() const { return *aqm_; }

  /// Time-weighted average of queued_bytes() over [0, now]; the queue-trace
  /// companion of the max_queued_bytes high-watermark.
  [[nodiscard]] double time_avg_queued_bytes(time_ns now) const;

  [[nodiscard]] const link_stats& stats() const { return stats_; }

 private:
  void start_transmission();
  void on_serialized();
  void on_deliver();
  /// Folds the elapsed occupancy into the time-weighted integral; call
  /// immediately before every change of queued_bytes_.
  void account_queue(time_ns now);

  scheduler& sched_;
  node* from_;
  node* to_;
  link* reverse_ = nullptr;
  link_config cfg_;
  std::size_t index_;
  std::unique_ptr<aqm_policy> aqm_;
  /// Waiting packets stamped with their arrival time (CoDel sojourn). While
  /// busy_, the head is the packet being serialized: it has left the queue
  /// as far as queued_bytes() and the AQM are concerned.
  struct queued {
    time_ns enqueued_at;
    packet p;
  };
  ring_queue<queued> queue_;
  /// Packets in flight on the wire, FIFO by arrival time (the propagation
  /// delay is constant per link).
  struct in_flight {
    time_ns arrive_at;
    packet p;
  };
  ring_queue<in_flight> flying_;
  std::int64_t queued_bytes_ = 0;
  bool busy_ = false;
  bool delivery_armed_ = false;
  double queue_byte_ns_ = 0.0;     // integral of queued_bytes over time
  time_ns queue_changed_at_ = 0;   // left edge of the un-integrated interval
  link_stats stats_;
  /// Event-trace sink, captured from obs::current_trace() at construction;
  /// null (every hook one dead branch) unless the world was built inside an
  /// obs::trace_scope.
  obs::trace_buffer* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

}  // namespace mcc::sim

#endif  // MCC_SIM_LINK_H
