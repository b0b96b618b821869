#include "tcp/tcp.h"

#include <algorithm>
#include <cmath>

namespace mcc::tcp {

// ---------------------------------------------------------------------------
// tcp_sink
// ---------------------------------------------------------------------------

tcp_sink::tcp_sink(sim::network& net, sim::node_id host, int flow_id,
                   int ack_bytes)
    : net_(net),
      host_(host),
      flow_id_(flow_id),
      ack_bytes_(ack_bytes),
      monitor_(net.sched()) {
  net_.get(host_)->add_agent(this);
}

bool tcp_sink::handle_packet(const sim::packet& p, sim::link*) {
  const auto* seg = sim::header_as<sim::tcp_segment>(p);
  if (seg == nullptr || seg->is_ack || seg->flow_id != flow_id_) return false;

  if (seg->seq == next_expected_) {
    ++next_expected_;
    monitor_.on_bytes(p.size_bytes);
    // Drain any buffered in-order continuation.
    while (out_of_order_.contains(next_expected_)) {
      out_of_order_.erase(next_expected_);
      ++next_expected_;
      monitor_.on_bytes(p.size_bytes);
    }
  } else if (seg->seq > next_expected_) {
    out_of_order_.insert(seg->seq);
  }
  // Cumulative ACK for every arriving data segment.
  sim::packet ack;
  ack.size_bytes = ack_bytes_;
  ack.dst = sim::dest::to_node(p.src);
  ack.hdr = sim::tcp_segment{flow_id_, 0, next_expected_, /*is_ack=*/true};
  net_.get(host_)->send(std::move(ack));
  return true;
}

// ---------------------------------------------------------------------------
// tcp_sender
// ---------------------------------------------------------------------------

tcp_sender::tcp_sender(sim::network& net, sim::node_id host, sim::node_id peer,
                       const tcp_config& cfg)
    : net_(net),
      host_(host),
      peer_(peer),
      cfg_(cfg),
      cwnd_(cfg.initial_cwnd),
      ssthresh_(cfg.initial_ssthresh) {
  net_.get(host_)->add_agent(this);
  net_.sched().post(cfg_.start_time, [this] { try_send(); });
}

bool tcp_sender::handle_packet(const sim::packet& p, sim::link*) {
  const auto* seg = sim::header_as<sim::tcp_segment>(p);
  if (seg == nullptr || !seg->is_ack || seg->flow_id != cfg_.flow_id) {
    return false;
  }
  ++stats_.acks_received;
  on_ack(seg->ack);
  return true;
}

void tcp_sender::try_send() {
  const auto window = static_cast<std::int64_t>(std::floor(cwnd_));
  while (next_seq_ < snd_una_ + window) {
    send_segment(next_seq_, /*retransmission=*/next_seq_ < recover_);
    ++next_seq_;
  }
}

void tcp_sender::send_segment(std::int64_t seq, bool retransmission) {
  sim::packet p;
  p.size_bytes = cfg_.segment_bytes;
  p.dst = sim::dest::to_node(peer_);
  p.hdr = sim::tcp_segment{cfg_.flow_id, seq, 0, /*is_ack=*/false};
  net_.get(host_)->send(std::move(p));
  ++stats_.segments_sent;
  if (retransmission) {
    ++stats_.retransmits;
    if (seq == timed_seq_) timed_seq_ = -1;  // Karn: never time retransmits
  } else if (timed_seq_ < 0) {
    // Karn's algorithm: time a fresh segment only.
    timed_seq_ = seq;
    timed_sent_at_ = net_.sched().now();
  }
  if (!timer_.pending()) arm_timer();
}

void tcp_sender::on_ack(std::int64_t ack) {
  if (ack > snd_una_) {
    // New data acknowledged.
    if (timed_seq_ >= 0 && ack > timed_seq_) {
      sample_rtt(net_.sched().now() - timed_sent_at_);
      timed_seq_ = -1;
    }
    if (in_recovery_) {
      // Reno deflates and exits recovery on the first new ACK.
      cwnd_ = ssthresh_;
      in_recovery_ = false;
    } else if (cwnd_ < ssthresh_) {
      cwnd_ += 1.0;  // slow start
    } else {
      cwnd_ += 1.0 / cwnd_;  // congestion avoidance
    }
    snd_una_ = ack;
    dup_count_ = 0;
    backoff_ = 1;
    timer_.cancel();
    if (next_seq_ > snd_una_) arm_timer();
    try_send();
    return;
  }
  // Duplicate ACK.
  if (next_seq_ == snd_una_) return;  // nothing in flight; stale ack
  ++dup_count_;
  if (in_recovery_) {
    cwnd_ += 1.0;  // inflate per additional dupack
    try_send();
    return;
  }
  if (dup_count_ == cfg_.dupack_threshold) {
    ++stats_.fast_recoveries;
    const double flight = static_cast<double>(next_seq_ - snd_una_);
    ssthresh_ = std::max(flight / 2.0, 2.0);
    send_segment(snd_una_, /*retransmission=*/true);
    cwnd_ = ssthresh_ + static_cast<double>(cfg_.dupack_threshold);
    in_recovery_ = true;
    recover_ = next_seq_;
    timer_.cancel();
    arm_timer();
  }
}

void tcp_sender::sample_rtt(sim::time_ns sample) {
  const double r = sim::to_seconds(sample);
  if (!rtt_valid_) {
    srtt_s_ = r;
    rttvar_s_ = r / 2.0;
    rtt_valid_ = true;
  } else {
    constexpr double alpha = 0.125;
    constexpr double beta = 0.25;
    rttvar_s_ = (1 - beta) * rttvar_s_ + beta * std::abs(srtt_s_ - r);
    srtt_s_ = (1 - alpha) * srtt_s_ + alpha * r;
  }
}

sim::time_ns tcp_sender::rto() const {
  double base_s = rtt_valid_ ? srtt_s_ + 4.0 * rttvar_s_ : 1.0;
  base_s *= static_cast<double>(backoff_);
  const auto rto_ns = sim::seconds(base_s);
  return std::clamp(rto_ns, cfg_.min_rto, cfg_.max_rto);
}

void tcp_sender::arm_timer() {
  timer_ = net_.sched().after(rto(), [this] { on_timeout(); });
}

void tcp_sender::on_timeout() {
  if (next_seq_ == snd_una_) return;  // nothing outstanding
  ++stats_.timeouts;
  const double flight = static_cast<double>(next_seq_ - snd_una_);
  ssthresh_ = std::max(flight / 2.0, 2.0);
  cwnd_ = 1.0;
  dup_count_ = 0;
  in_recovery_ = false;
  backoff_ = std::min(backoff_ * 2, 64);
  timed_seq_ = -1;  // Karn: do not time retransmissions
  // Go-back-N: rewind and retransmit from the first unacknowledged segment.
  recover_ = next_seq_;
  next_seq_ = snd_una_;
  arm_timer();
  try_send();
}

}  // namespace mcc::tcp
