#include "flid/replicated.h"

#include <cmath>

#include "crypto/oneway.h"

namespace mcc::flid {

replicated_sender::replicated_sender(sim::network& net, sim::node_id host,
                                     const flid_config& cfg, std::uint64_t)
    : net_(net),
      host_(host),
      cfg_(cfg),
      train_(net.sched(), [this](slot_packet& s) { send_packet(s); }) {
  util::require(cfg_.num_groups >= 1 && cfg_.num_groups <= 30,
                "replicated_sender: unsupported group count");
}

void replicated_sender::start(sim::time_ns at) {
  util::require(!started_, "replicated_sender: already started");
  started_ = true;
  for (int g = 1; g <= cfg_.num_groups; ++g) {
    net_.register_group_source(cfg_.group(g), host_);
  }
  auto ann = cfg_.announcement();
  ann.sigma_protected = sigma_protected_;
  net_.announce_session(ann);
  const sim::time_ns t = cfg_.slot_duration;
  const std::int64_t first_slot = (at + t - 1) / t;
  net_.sched().at(first_slot * t, [this, first_slot] { begin_slot(first_slot); });
}

std::uint32_t replicated_sender::auth_mask_for_slot(std::int64_t slot) {
  std::uint32_t mask = 0;
  for (int g = 2; g <= cfg_.num_groups; ++g) {
    const std::uint64_t h = crypto::oneway_mix(
        (static_cast<std::uint64_t>(cfg_.session_id) << 48) ^ 0x5a5aULL ^
        (static_cast<std::uint64_t>(slot) * 0x9e3779b97f4a7c15ULL) ^
        static_cast<std::uint64_t>(g));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < cfg_.upgrade_prob_for(g)) mask |= (1u << g);
  }
  return mask;
}

int replicated_sender::packets_in_slot(int g, std::int64_t slot) const {
  // In replicated multicast, group g carries the whole content at the level-g
  // rate (not a differential layer).
  const double rate = cfg_.cumulative_rate_bps(g);
  const double t = sim::to_seconds(cfg_.slot_duration);
  const double per_packet_bits = 8.0 * cfg_.packet_bytes;
  const auto upto = [&](std::int64_t s) {
    return static_cast<std::int64_t>(
        std::floor(rate * t * static_cast<double>(s) / per_packet_bits));
  };
  return static_cast<int>(std::max<std::int64_t>(upto(slot + 1) - upto(slot), 1));
}

void replicated_sender::begin_slot(std::int64_t slot) {
  const std::uint32_t mask = auth_mask_for_slot(slot);
  std::vector<int> counts(static_cast<std::size_t>(cfg_.num_groups) + 1, 0);
  for (int g = 1; g <= cfg_.num_groups; ++g) {
    counts[static_cast<std::size_t>(g)] = packets_in_slot(g, slot);
  }
  if (delta_ != nullptr) delta_->begin_slot(slot, mask, counts);

  const sim::time_ns t = cfg_.slot_duration;
  const sim::time_ns slot_start = slot * t;
  for (int g = 1; g <= cfg_.num_groups; ++g) {
    const int n = counts[static_cast<std::size_t>(g)];
    for (int i = 0; i < n; ++i) {
      const sim::time_ns when =
          slot_start + (2 * static_cast<sim::time_ns>(i) + 1) * t / (2 * n);
      train_.add(when, {slot, g, i, n, mask});
    }
  }
  train_.launch();
  net_.sched().at(slot_start + t, [this, slot] { begin_slot(slot + 1); });
}

void replicated_sender::send_packet(const slot_packet& s) {
  sim::flid_data hdr;
  hdr.session_id = cfg_.session_id;
  hdr.group_index = s.g;
  hdr.slot = s.slot;
  hdr.seq_in_slot = s.seq;
  hdr.packets_in_slot = s.count;
  hdr.last_in_slot = (s.seq == s.count - 1);
  hdr.upgrade_auth_mask = s.auth_mask;
  if (delta_ != nullptr) {
    delta_->fill_fields(s.slot, s.g, s.seq, hdr.last_in_slot, hdr);
  }
  sim::packet p;
  p.size_bytes = cfg_.packet_bytes;
  p.dst = sim::dest::to_group(cfg_.group(s.g));
  p.ecn_capable = true;
  if (sigma_tagging_) p.tag = sim::sigma_tag{cfg_.session_id, s.slot};
  p.hdr = hdr;
  net_.get(host_)->send(std::move(p));
}

// ---------------------------------------------------------------------------
// replicated_receiver
// ---------------------------------------------------------------------------

replicated_receiver::replicated_receiver(sim::network& net, sim::node_id host,
                                         sim::node_id edge_router,
                                         const flid_config& cfg)
    : net_(net),
      host_(host),
      cfg_(cfg),
      membership_(net, host, edge_router),
      monitor_(net.sched()) {
  net_.get(host_)->add_agent(this);
}

replicated_receiver::~replicated_receiver() {
  net_.get(host_)->remove_agent(this);
}

void replicated_receiver::start(sim::time_ns at) {
  net_.sched().at(at, [this] {
    group_ = 1;
    join_time_ = net_.sched().now();
    membership_.join(cfg_.group(1));
    const sim::time_ns t = cfg_.slot_duration;
    const std::int64_t current = net_.sched().now() / t;
    net_.sched().at((current + 1) * t + t / 2, [this, current] {
      evaluate_slot(current);
    });
  });
}

bool replicated_receiver::handle_packet(const sim::packet& p, sim::link*) {
  const auto* hdr = sim::header_as<sim::flid_data>(p);
  if (hdr == nullptr || hdr->session_id != cfg_.session_id) return false;
  monitor_.on_bytes(p.size_bytes);
  auto& rec = records_[hdr->slot];
  if (hdr->group_index == group_) {
    ++rec.received;
    rec.expected = hdr->packets_in_slot;
    rec.xor_components ^= hdr->component;
  }
  if (hdr->group_index == group_ + 1) rec.decrease = hdr->decrease;
  rec.auth_mask |= hdr->upgrade_auth_mask;
  return true;
}

const replicated_receiver::slot_record* replicated_receiver::record_for(
    std::int64_t slot) const {
  auto it = records_.find(slot);
  return it == records_.end() ? nullptr : &it->second;
}

void replicated_receiver::evaluate_slot(std::int64_t slot) {
  const sim::time_ns t = cfg_.slot_duration;
  const bool full_slot = join_time_ >= 0 && join_time_ <= slot * t;
  if (full_slot) {
    auto it = records_.find(slot);
    const bool complete = it != records_.end() &&
                          it->second.expected >= 0 &&
                          it->second.received >= it->second.expected;
    const std::uint32_t mask =
        it != records_.end() ? it->second.auth_mask : 0;
    if (!complete) {
      if (group_ > 1) {
        membership_.leave(cfg_.group(group_));
        --group_;
        membership_.join(cfg_.group(group_));
        join_time_ = net_.sched().now();
      }
    } else if (group_ < cfg_.num_groups && (mask & (1u << (group_ + 1)))) {
      membership_.leave(cfg_.group(group_));
      ++group_;
      membership_.join(cfg_.group(group_));
      join_time_ = net_.sched().now();
    }
  }
  while (!records_.empty() && records_.begin()->first <= slot) {
    records_.erase(records_.begin());
  }
  net_.sched().at((slot + 2) * t + t / 2,
                  [this, slot] { evaluate_slot(slot + 1); });
}

}  // namespace mcc::flid
