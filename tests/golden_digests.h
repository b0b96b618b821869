// Shared golden-digest machinery: the FNV-1a fold, the hashing packet sink,
// and the pinned scenario digests (per-qdisc raw engine, pulse attack,
// adaptive pulse, and the sender-side farm and replicated worlds).
// golden_trace_test pins these against checked-in constants;
// cm_test re-runs the same worlds with the shared congestion manager on to
// prove the cm-off path (and the single-session cm-on path) is byte-identical.
//
// The digests are a contract about determinism, not about correctness: when
// an INTENTIONAL engine change shifts them, rerun the tests and copy the
// printed digests into the constants below, and say so in the PR.
#ifndef MCC_TESTS_GOLDEN_DIGESTS_H
#define MCC_TESTS_GOLDEN_DIGESTS_H

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/containment.h"
#include "crypto/prng.h"
#include "exp/testbed.h"
#include "flid/replicated.h"
#include "sim/aqm.h"
#include "sim/link.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "test_util.h"

namespace mcc::testing {

/// FNV-1a 64-bit, folded one 64-bit word at a time.
struct fnv1a {
  std::uint64_t h = 14695981039346656037ULL;
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void fold_double(double v) { fold(std::bit_cast<std::uint64_t>(v)); }
  void fold_text(std::string_view s) {
    fold(s.size());
    for (const char c : s) fold(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

/// Agent that folds every delivered packet into the digest.
class hashing_sink : public sim::agent {
 public:
  hashing_sink(sim::network& net, sim::node_id host, fnv1a& digest)
      : sched_(net.sched()), digest_(digest) {
    net.get(host)->add_agent(this);
  }

  bool handle_packet(const sim::packet& p, sim::link*) override {
    digest_.fold(static_cast<std::uint64_t>(sched_.now()));
    digest_.fold(p.uid);
    digest_.fold(static_cast<std::uint64_t>(p.src));
    digest_.fold(static_cast<std::uint64_t>(p.size_bytes));
    digest_.fold(p.ecn_marked ? 1 : 0);
    return true;
  }

 private:
  sim::scheduler& sched_;
  fnv1a& digest_;
};

/// The raw-engine scenario: two senders blast prng-shaped traffic
/// (exponential gaps, mixed sizes, every other packet ECN-capable) at ~2x
/// the bottleneck rate of a dumbbell whose bottleneck runs the given
/// discipline.
inline std::string run_digest(sim::qdisc d) {
  sim::scheduler sched;
  sim::network net(sched);
  const sim::node_id ha = net.add_host("ha");
  const sim::node_id hb = net.add_host("hb");
  const sim::node_id r1 = net.add_router("r1");
  const sim::node_id r2 = net.add_router("r2");
  const sim::node_id hc = net.add_host("hc");
  const sim::node_id hd = net.add_host("hd");

  sim::link_config access;
  access.bps = 10e6;
  access.delay = sim::milliseconds(1);
  sim::link_config bottleneck;
  bottleneck.bps = 1e6;
  bottleneck.delay = sim::milliseconds(5);
  bottleneck.queue_capacity_bytes = 15'000;
  bottleneck.aqm.discipline = d;
  bottleneck.aqm.seed = 7;
  net.connect(ha, r1, access);
  net.connect(hb, r1, access);
  net.connect(r1, r2, bottleneck);
  net.connect(r2, hc, access);
  net.connect(r2, hd, access);
  net.finalize_routing();

  fnv1a digest;
  hashing_sink sink_c(net, hc, digest);
  hashing_sink sink_d(net, hd, digest);

  crypto::prng rng(42);
  const struct {
    sim::node_id src;
    sim::node_id dst;
    std::uint64_t stream;
  } flows[] = {{ha, hc, 1}, {hb, hd, 2}};
  for (const auto& f : flows) {
    crypto::prng stream = rng.fork(f.stream);
    sim::time_ns t = 0;
    for (int i = 0; i < 1'200; ++i) {
      t += static_cast<sim::time_ns>(stream.uniform(1e6, 8e6));  // 1..8 ms
      const int size = static_cast<int>(stream.uniform_int(200, 1'400));
      const bool ecn = (i % 2) == 0;
      const sim::node_id src = f.src;
      const sim::node_id dst = f.dst;
      sched.at(t, [&net, src, dst, size, ecn] {
        sim::packet p = mcc::testing::make_packet(size, dst);
        p.ecn_capable = ecn;
        net.get(src)->send(std::move(p));
      });
    }
  }
  sched.run();

  // Fold the bottleneck's final counters: drops that never reach a sink must
  // still shift the digest.
  const sim::link_stats& bn = net.next_hop(r1, hc)->stats();
  digest.fold(bn.enqueued);
  digest.fold(bn.dropped);
  digest.fold(bn.aqm_dropped);
  digest.fold(bn.ecn_marked);
  digest.fold(static_cast<std::uint64_t>(bn.bytes_dropped));
  digest.fold(static_cast<std::uint64_t>(bn.max_queued_bytes));
  return digest.hex();
}

/// Checked-in per-qdisc digests. Regenerate by running golden_trace_test and
/// copying the values printed in the failure messages.
inline const char* golden(sim::qdisc d) {
  switch (d) {
    case sim::qdisc::droptail: return "0x4b17afea52a0332c";
    case sim::qdisc::ecn_threshold: return "0xd85981df81dd339c";
    case sim::qdisc::red: return "0xd5968bba4465239e";
    case sim::qdisc::codel: return "0xfd85f351064fd636";
  }
  return "";
}

/// Checked-in FLID-DS attack-timeline digests (scenarios below).
inline constexpr const char* kPulseAttackGolden = "0xfd1bc9bde74fb696";
inline constexpr const char* kAdaptivePulseGolden = "0xa925fe56e16b02de";

/// A pulse_inflate attack on a FLID-DS dumbbell, digesting the full attack
/// timeline — both receivers' subscription level histories, byte totals and
/// slot counters, the SIGMA edge counters, and the bottleneck counters.
/// Everything folded is integral, so the digest is identical in Release and
/// sanitizer builds. `tweak` lets callers flip testbed knobs (cm_test turns
/// the shared congestion manager on) while keeping the world identical.
inline std::string run_pulse_attack_digest(
    const std::function<void(exp::dumbbell_config&)>& tweak = {}) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 5;
  if (tweak) tweak(cfg);
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options attacker;
  attacker.attack = mcc::adversary::pulse_inflate(
      sim::seconds(15.0), sim::seconds(4.0), sim::seconds(4.0));
  auto& rogue = d.add_flid_session(exp::flid_mode::ds, {attacker});
  auto& honest = d.add_flid_session(exp::flid_mode::ds,
                                    {exp::receiver_options{}});
  d.run_until(sim::seconds(60.0));

  fnv1a digest;
  for (flid::flid_receiver* r : {&rogue.receiver(), &honest.receiver()}) {
    digest.fold(static_cast<std::uint64_t>(r->monitor().total_bytes()));
    digest.fold(r->stats().packets);
    digest.fold(r->stats().slots_congested);
    digest.fold(r->stats().upgrades);
    digest.fold(r->stats().downgrades);
    for (const auto& [t, lvl] : r->level_history()) {
      digest.fold(static_cast<std::uint64_t>(t));
      digest.fold(static_cast<std::uint64_t>(lvl));
    }
  }
  const auto& sg = d.sigma().stats();
  digest.fold(sg.subscribe_msgs);
  digest.fold(sg.valid_keys);
  digest.fold(sg.invalid_keys);
  digest.fold(sg.denied);
  digest.fold(sg.grace_forwards);
  digest.fold(sg.session_joins);
  digest.fold(sg.unsubscribes);
  const sim::link_stats& bn = d.bottleneck()->stats();
  digest.fold(bn.enqueued);
  digest.fold(bn.dropped);
  digest.fold(bn.delivered);
  digest.fold(static_cast<std::uint64_t>(bn.bytes_dropped));
  return digest.hex();
}

/// The measurement-driven pulse on the same FLID-DS dumbbell. The closed
/// loop (probe -> measured enforcement lag -> tuned phases) is pure feedback
/// logic, so its whole timeline is pinnable the same way; drift here means
/// the adaptation law changed.
inline std::string run_adaptive_pulse_digest(
    const std::function<void(exp::dumbbell_config&)>& tweak = {}) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 5;
  if (tweak) tweak(cfg);
  exp::testbed d(exp::dumbbell(cfg));
  exp::receiver_options attacker;
  attacker.attack =
      mcc::adversary::adaptive_pulse(sim::seconds(15.0), sim::seconds(5.0));
  auto& rogue = d.add_flid_session(exp::flid_mode::ds, {attacker});
  auto& honest = d.add_flid_session(exp::flid_mode::ds,
                                    {exp::receiver_options{}});
  d.run_until(sim::seconds(60.0));

  fnv1a digest;
  for (flid::flid_receiver* r : {&rogue.receiver(), &honest.receiver()}) {
    digest.fold(static_cast<std::uint64_t>(r->monitor().total_bytes()));
    digest.fold(r->stats().packets);
    digest.fold(r->stats().slots_congested);
    for (const auto& [t, lvl] : r->level_history()) {
      digest.fold(static_cast<std::uint64_t>(t));
      digest.fold(static_cast<std::uint64_t>(lvl));
    }
  }
  const auto& sg = d.sigma().stats();
  digest.fold(sg.subscribe_msgs);
  digest.fold(sg.valid_keys);
  digest.fold(sg.invalid_keys);
  digest.fold(sg.denied);
  digest.fold(sg.grace_forwards);
  digest.fold(sg.session_joins);
  digest.fold(sg.unsubscribes);
  // The attacker's cost counters are part of the pinned contract: the
  // adaptation law's spend must not drift silently either.
  const mcc::adversary::attacker_cost cost =
      mcc::adversary::measure_cost(rogue.receiver());
  digest.fold(cost.ctrl_msgs);
  digest.fold(cost.useless_keys);
  digest.fold(cost.cutoff_slots);
  const sim::link_stats& bn = d.bottleneck()->stats();
  digest.fold(bn.enqueued);
  digest.fold(bn.dropped);
  digest.fold(bn.delivered);
  return digest.hex();
}

/// Checked-in sender-side digests (scenarios below).
inline constexpr const char* kSenderFarmGolden = "0x3dcb01384d41a45c";
inline constexpr const char* kReplicatedGolden = "0x8aebda8dbac71a7b";

/// Folds a testbed's whole metrics snapshot (names and values) plus the
/// scenario's analysis outputs. The scheduler's queue-occupancy gauges
/// (pending count and its high-water marks) are left out: they describe how
/// the event queue holds pending work, not what the world did, so an engine
/// change that keeps every fired event may move them. sched.executed_events
/// stays in.
inline std::string fold_world(
    const exp::testbed& tb,
    const std::vector<std::pair<std::string, double>>& outputs) {
  fnv1a digest;
  for (const auto& [name, v] : tb.metrics().snapshot()) {
    if (name.starts_with("sched.") && name != "sched.executed_events") {
      continue;
    }
    digest.fold_text(name);
    digest.fold_double(v);
  }
  for (const auto& [name, v] : outputs) {
    digest.fold_text(name);
    digest.fold_double(v);
  }
  return digest.hex();
}

/// An 8-session FLID-DS farm sharing one bottleneck with the congestion
/// manager on, session 0 inflating its subscription at 10 s: every FLID
/// sender's slot pacing and every SIGMA control emitter run in one world.
inline std::string run_sender_farm_digest() {
  constexpr int sessions = 8;
  const sim::time_ns attack_at = sim::seconds(10.0);
  const sim::time_ns horizon = sim::seconds(30.0);
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 250e3 * sessions;
  cfg.seed = 11;
  cfg.cm = true;
  exp::testbed tb(exp::dumbbell(cfg));
  exp::receiver_options attacker;
  attacker.at = "r";
  attacker.attack = mcc::adversary::inflate_once(attack_at);
  exp::flid_session& rogue =
      tb.add_flid_session(exp::flid_mode::ds, {attacker});
  exp::receiver_options neighbour;
  neighbour.at = "r";
  const std::vector<exp::flid_session*> honest =
      tb.add_session_array(sessions - 1, exp::flid_mode::ds, {neighbour});
  tb.run_until(horizon);

  std::vector<std::pair<std::string, double>> out;
  const exp::session_rollup post =
      exp::session_rollup_for(honest, attack_at, horizon);
  for (const auto& col : post.sessions) out.emplace_back(col.name, col.rate);
  out.emplace_back("honest_jain", post.jain);
  out.emplace_back("attacker_kbps", rogue.receiver(0).monitor().average_kbps(
                                        attack_at, horizon));
  return fold_world(tb, out);
}

/// A replicated-multicast session (one group at a time) from the left edge
/// to two receivers behind a 400 Kbps bottleneck shared with a TCP flow.
inline std::string run_replicated_digest() {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 400e3;
  cfg.seed = 99;
  exp::testbed tb(exp::dumbbell(cfg));
  flid::flid_config fc;
  fc.session_id = 601;
  fc.group_addr_base = 60'000;
  fc.num_groups = 6;
  fc.base_rate_bps = 100e3;
  fc.rate_multiplier = 1.4;
  fc.slot_duration = sim::milliseconds(500);
  const sim::node_id src = tb.attach_host("rep_src", "l");
  flid::replicated_sender sender(tb.net(), src, fc, cfg.seed);
  sender.start(0);
  const sim::node_id d1 = tb.attach_host("rep_rcv1", "r");
  const sim::node_id d2 = tb.attach_host("rep_rcv2", "r");
  flid::replicated_receiver r1(tb.net(), d1, tb.router("r"), fc);
  flid::replicated_receiver r2(tb.net(), d2, tb.router("r"), fc);
  r1.start(0);
  r2.start(sim::seconds(7.0));
  tb.add_tcp_flow();
  tb.run_until(sim::seconds(40.0));

  std::vector<std::pair<std::string, double>> out;
  for (flid::replicated_receiver* r : {&r1, &r2}) {
    out.emplace_back("group", r->current_group());
    out.emplace_back("bytes",
                     static_cast<double>(r->monitor().total_bytes()));
    out.emplace_back("kbps", r->monitor().average_kbps(sim::seconds(20.0),
                                                       sim::seconds(40.0)));
  }
  return fold_world(tb, out);
}

}  // namespace mcc::testing

#endif  // MCC_TESTS_GOLDEN_DIGESTS_H
