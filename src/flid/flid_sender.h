// FLID sender: slotted transmission of N cumulative layers with
// probabilistic per-slot upgrade authorizations (the increase signals of
// FLID-DL / RLC), and a hook through which DELTA injects its in-band key
// material without changing the transmission pattern (paper section 4.1:
// "adopting DELTA does not require from a protocol to change its
// transmission pattern").
#ifndef MCC_FLID_FLID_SENDER_H
#define MCC_FLID_FLID_SENDER_H

#include <cstdint>
#include <vector>

#include "crypto/prng.h"
#include "flid/flid_config.h"
#include "sim/event_train.h"
#include "sim/network.h"

namespace mcc::flid {

/// Implemented by the DELTA sender; called by the FLID sender per slot and
/// per packet to fill the component / decrease fields.
class delta_sender_hook {
 public:
  virtual ~delta_sender_hook() = default;
  /// Announces slot `slot` with its upgrade-authorization mask and the packet
  /// counts per group (index 0 unused; 1..N).
  virtual void begin_slot(std::int64_t slot, std::uint32_t auth_mask,
                          const std::vector<int>& packets_per_group) = 0;
  /// Fills hdr.component / hdr.decrease for one data packet.
  virtual void fill_fields(std::int64_t slot, int group, int seq_in_slot,
                           bool last_in_slot, sim::flid_data& hdr) = 0;
};

/// One data packet of a slot as the slotted senders pace it: group g's
/// seq-th of count packets.
struct slot_packet {
  std::int64_t slot;
  int g;
  int seq;
  int count;
  std::uint32_t auth_mask;
};

class flid_sender {
 public:
  flid_sender(sim::network& net, sim::node_id host, const flid_config& cfg,
              std::uint64_t seed);

  /// Registers groups with the network, publishes the session announcement,
  /// and begins slotted transmission at `at` (slot boundaries are absolute:
  /// slot = now / slot_duration).
  void start(sim::time_ns at = 0);

  void set_delta_hook(delta_sender_hook* hook) { delta_ = hook; }
  /// When enabled, data packets carry the SIGMA shim tag (session, slot).
  void set_sigma_tagging(bool on) { sigma_tagging_ = on; }
  void set_sigma_protected(bool on) { sigma_protected_ = on; }

  [[nodiscard]] const flid_config& config() const { return cfg_; }

  /// Upgrade-authorization mask for a slot (deterministic in the seed);
  /// bit g set = upgrade to group g authorized.
  [[nodiscard]] std::uint32_t auth_mask_for_slot(std::int64_t slot);

  /// Deterministic packet count for group g in a slot (pacing quantization,
  /// minimum one packet per group per slot so last-in-slot markers and
  /// decrease fields always exist).
  [[nodiscard]] int packets_in_slot(int g, std::int64_t slot) const;

  struct counters {
    std::uint64_t data_packets = 0;
    std::int64_t data_bytes = 0;
    /// auth_count[g] = slots that authorized an upgrade to group g (for the
    /// f_g measurement of the overhead model, paper section 5.4).
    std::vector<std::uint64_t> auth_count;
    std::uint64_t slots = 0;
  };
  [[nodiscard]] const counters& stats() const { return stats_; }

 private:
  void begin_slot(std::int64_t slot);
  void send_packet(const slot_packet& s);

  sim::network& net_;
  sim::node_id host_;
  flid_config cfg_;
  crypto::prng rng_;
  delta_sender_hook* delta_ = nullptr;
  bool sigma_tagging_ = false;
  bool sigma_protected_ = false;
  bool started_ = false;
  // Cache of per-slot auth masks (drawn lazily, deterministic per slot).
  std::int64_t auth_cache_slot_ = -1;
  std::uint32_t auth_cache_mask_ = 0;
  counters stats_;
  sim::event_train<slot_packet> train_;  // the current slot's packets
};

}  // namespace mcc::flid

#endif  // MCC_FLID_FLID_SENDER_H
