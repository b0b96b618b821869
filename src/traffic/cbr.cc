#include "traffic/cbr.h"

namespace mcc::traffic {

cbr_sink::cbr_sink(sim::network& net, sim::node_id host, int flow_id)
    : host_(host), flow_id_(flow_id), monitor_(net.sched()) {
  net.get(host_)->add_agent(this);
}

bool cbr_sink::handle_packet(const sim::packet& p, sim::link*) {
  const auto* hdr = sim::header_as<sim::cbr_payload>(p);
  if (hdr == nullptr || hdr->flow_id != flow_id_) return false;
  monitor_.on_bytes(p.size_bytes);
  return true;
}

cbr_source::cbr_source(sim::network& net, sim::node_id host, sim::node_id peer,
                       const cbr_config& cfg)
    : net_(net), host_(host), peer_(peer), cfg_(cfg) {
  util::require(cfg_.rate_bps > 0, "cbr_source: rate must be positive");
  net_.sched().post(cfg_.start_time, [this] { send_next(); });
}

bool cbr_source::on_at(sim::time_ns t) const {
  if (t < cfg_.start_time || t >= cfg_.stop_time) return false;
  if (cfg_.on_duration <= 0) return true;
  const sim::time_ns phase =
      (t - cfg_.start_time) % (cfg_.on_duration + cfg_.off_duration);
  return phase < cfg_.on_duration;
}

sim::time_ns cbr_source::next_on_start(sim::time_ns t) const {
  if (t < cfg_.start_time) return cfg_.start_time;
  if (cfg_.on_duration <= 0) return t;
  const sim::time_ns period = cfg_.on_duration + cfg_.off_duration;
  const sim::time_ns phase = (t - cfg_.start_time) % period;
  if (phase < cfg_.on_duration) return t;
  return t + (period - phase);
}

void cbr_source::send_next() {
  const sim::time_ns now = net_.sched().now();
  if (now >= cfg_.stop_time) return;
  if (!on_at(now)) {
    const sim::time_ns resume = next_on_start(now);
    if (resume >= cfg_.stop_time) return;
    net_.sched().post(resume, [this] { send_next(); });
    return;
  }
  sim::packet p;
  p.size_bytes = cfg_.packet_bytes;
  p.dst = sim::dest::to_node(peer_);
  p.hdr = sim::cbr_payload{cfg_.flow_id, seq_++};
  net_.get(host_)->send(std::move(p));
  ++packets_sent_;
  const sim::time_ns gap =
      sim::transmission_time(cfg_.packet_bytes, cfg_.rate_bps);
  net_.sched().post(net_.sched().now() + gap, [this] { send_next(); });
}

}  // namespace mcc::traffic
