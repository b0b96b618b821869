#include "flid/flid_sender.h"

#include <algorithm>
#include <cmath>

#include "crypto/oneway.h"

namespace mcc::flid {

sim::session_announcement flid_config::announcement() const {
  sim::session_announcement ann;
  ann.session_id = session_id;
  ann.slot_duration = slot_duration;
  std::vector<sim::group_addr> groups;
  groups.reserve(static_cast<std::size_t>(num_groups));
  for (int g = 1; g <= num_groups; ++g) groups.push_back(group(g));
  ann.groups = std::move(groups);
  return ann;
}

flid_sender::flid_sender(sim::network& net, sim::node_id host,
                         const flid_config& cfg, std::uint64_t seed)
    : net_(net),
      host_(host),
      cfg_(cfg),
      rng_(seed),
      train_(net.sched(), [this](slot_packet& s) { send_packet(s); }) {
  util::require(cfg_.num_groups >= 1 && cfg_.num_groups <= 30,
                "flid_sender: unsupported group count");
  util::require(cfg_.slot_duration > 0, "flid_sender: bad slot duration");
  stats_.auth_count.assign(static_cast<std::size_t>(cfg_.num_groups) + 1, 0);
}

void flid_sender::start(sim::time_ns at) {
  util::require(!started_, "flid_sender: already started");
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

std::uint32_t flid_sender::auth_mask_for_slot(std::int64_t slot) {
  if (slot == auth_cache_slot_) return auth_cache_mask_;
  // Hash-derived Bernoulli draws: deterministic per (session seed, slot,
  // group) regardless of evaluation order.
  std::uint32_t mask = 0;
  for (int g = 2; g <= cfg_.num_groups; ++g) {
    const std::uint64_t h = crypto::oneway_mix(
        (static_cast<std::uint64_t>(cfg_.session_id) << 48) ^
        (static_cast<std::uint64_t>(slot) * 0x9e3779b97f4a7c15ULL) ^
        static_cast<std::uint64_t>(g));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < cfg_.upgrade_prob_for(g)) mask |= (1u << g);
  }
  auth_cache_slot_ = slot;
  auth_cache_mask_ = mask;
  return mask;
}

int flid_sender::packets_in_slot(int g, std::int64_t slot) const {
  const double rate = cfg_.group_rate_bps(g);
  const double t = sim::to_seconds(cfg_.slot_duration);
  const double per_packet_bits = 8.0 * cfg_.packet_bytes;
  const auto upto = [&](std::int64_t s) {
    return static_cast<std::int64_t>(
        std::floor(rate * t * static_cast<double>(s) / per_packet_bits));
  };
  const std::int64_t n = upto(slot + 1) - upto(slot);
  // At least one packet per group per slot so the last-in-slot marker and the
  // decrease field are always present (DELTA needs one packet from each group
  // 2..g to deliver decrease keys).
  return static_cast<int>(std::max<std::int64_t>(n, 1));
}

void flid_sender::begin_slot(std::int64_t slot) {
  ++stats_.slots;
  const std::uint32_t mask = auth_mask_for_slot(slot);
  for (int g = 2; g <= cfg_.num_groups; ++g) {
    if (mask & (1u << g)) ++stats_.auth_count[static_cast<std::size_t>(g)];
  }

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
      // Even pacing with +-25% jitter: real multicast sources are not
      // phase-locked, and deterministic alignment across sessions would
      // produce pathological drop synchronization at the bottleneck.
      const double jitter = rng_.uniform(-0.25, 0.25);
      const double position = (static_cast<double>(i) + 0.5 + jitter) / n;
      const auto offset = static_cast<sim::time_ns>(
          position * static_cast<double>(t));
      const sim::time_ns when =
          slot_start + std::clamp<sim::time_ns>(offset, 0, t - 1);
      train_.add(when, {slot, g, i, n, mask});
    }
  }
  train_.launch();
  net_.sched().at(slot_start + t, [this, slot] { begin_slot(slot + 1); });
}

void flid_sender::send_packet(const slot_packet& s) {
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
  ++stats_.data_packets;
  stats_.data_bytes += cfg_.packet_bytes;
}

}  // namespace mcc::flid
