#include "workloads.h"

#include <array>

#include "adversary/adversary.h"
#include "adversary/containment.h"
#include "sim/stats.h"
#include "util/require.h"

namespace e2e {

namespace x = mcc::exp;
namespace adv = mcc::adversary;
namespace sim = mcc::sim;

namespace {

// fig07: the paper's Figure 7 world, built exactly as bench/fig07_protection
// builds it (same seed derivation, so the same world at the same seed).
world fig07(std::size_t /*index*/, std::uint64_t seed) {
  constexpr double inflate_at_s = 100.0;
  world w;
  w.horizon = sim::seconds(200.0);
  x::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = seed;
  w.tb = std::make_unique<x::testbed>(x::dumbbell(cfg));
  x::receiver_options attacker;
  attacker.attack = adv::inflate_once(sim::seconds(inflate_at_s));
  x::flid_session* f1 = &w.tb->add_flid_session(x::flid_mode::ds, {attacker});
  x::flid_session* f2 =
      &w.tb->add_flid_session(x::flid_mode::ds, {x::receiver_options{}});
  x::tcp_flow* t1 = &w.tb->add_tcp_flow();
  x::tcp_flow* t2 = &w.tb->add_tcp_flow();
  const sim::time_ns t0 = sim::seconds(inflate_at_s + 10.0);
  const sim::time_ns t1_end = w.horizon;
  w.analyse = [f1, f2, t1, t2, t0, t1_end] {
    const std::array<double, 4> r = {
        f1->receiver().monitor().average_kbps(t0, t1_end),
        f2->receiver().monitor().average_kbps(t0, t1_end),
        t1->sink->monitor().average_kbps(t0, t1_end),
        t2->sink->monitor().average_kbps(t0, t1_end)};
    return outputs{{"F1_after", r[0]},
                   {"F2_after", r[1]},
                   {"T1_after", r[2]},
                   {"T2_after", r[3]},
                   {"fairness", sim::jain_fairness_index(r)}};
  };
  return w;
}

// farm64: fig_session_farm's n=64 dumbbell/droptail/inflate_once/cm cell.
// One rogue session (session 0) and 63 honest neighbours behind the same
// edge; the bottleneck carries 250 Kbps per session.
world farm64(std::size_t /*index*/, std::uint64_t seed) {
  constexpr int sessions = 64;
  const sim::time_ns attack_at = sim::seconds(40.0);
  world w;
  w.horizon = sim::seconds(120.0);
  x::dumbbell_config cfg;
  cfg.bottleneck_bps = 250e3 * sessions;
  cfg.seed = seed;
  cfg.cm = true;
  w.tb = std::make_unique<x::testbed>(x::dumbbell(cfg));
  x::receiver_options attacker;
  attacker.at = "r";
  attacker.attack = adv::inflate_once(attack_at);
  x::flid_session* rogue =
      &w.tb->add_flid_session(x::flid_mode::ds, {attacker});
  x::receiver_options neighbour;
  neighbour.at = "r";
  std::vector<x::flid_session*> honest =
      w.tb->add_session_array(sessions - 1, x::flid_mode::ds, {neighbour});
  const sim::time_ns post1 = attack_at + sim::seconds(40.0);
  w.analyse = [rogue, honest, attack_at, post1] {
    const x::session_rollup pre =
        x::session_rollup_for(honest, sim::seconds(15.0), attack_at);
    const x::session_rollup post =
        x::session_rollup_for(honest, attack_at, post1);
    const double n = static_cast<double>(honest.size());
    return outputs{
        {"honest_pre_kbps", pre.total_rate / n},
        {"honest_kbps", post.total_rate / n},
        {"honest_jain", post.jain},
        {"attacker_kbps",
         rogue->receiver(0).monitor().average_kbps(attack_at, post1)}};
  };
  return w;
}

// attack_grid: every adversary strategy x {dumbbell, parking_lot, tree}
// with interface keying and probation memory both on, recipe of
// bench/fig_attack_matrix (sites, TCP victim, containment bound).
constexpr std::array<const char*, 3> grid_topos = {"dumbbell", "parking_lot",
                                                   "tree"};

world attack_cell(std::size_t index, std::uint64_t seed) {
  constexpr double path_bps = 1e6;
  constexpr int memory_slots = 8;
  const sim::time_ns attack_at = sim::seconds(40.0);
  const auto& kinds = adv::all_attacks();
  mcc::util::require(index < kinds.size() * grid_topos.size(),
                     "attack_grid: world index out of range");
  const adv::strategy_kind kind = kinds[index / grid_topos.size()];
  const std::string topo = grid_topos[index % grid_topos.size()];

  world w;
  w.horizon = sim::seconds(120.0);
  std::string honest_at;
  std::string attacker_at;
  std::string second_at;
  if (topo == "dumbbell") {
    x::dumbbell_config cfg;
    cfg.bottleneck_bps = path_bps;
    cfg.seed = seed;
    cfg.interface_keying = true;
    cfg.probation_memory_slots = memory_slots;
    w.tb = std::make_unique<x::testbed>(x::dumbbell(cfg));
    honest_at = attacker_at = second_at = "r";
  } else if (topo == "parking_lot") {
    x::parking_lot_config cfg;
    cfg.bottleneck_bps = path_bps;
    cfg.seed = seed;
    cfg.interface_keying = true;
    cfg.probation_memory_slots = memory_slots;
    w.tb = std::make_unique<x::testbed>(x::parking_lot(cfg));
    honest_at = "r1";
    attacker_at = "r2";
    second_at = "r1";
  } else {
    x::tree_config cfg;
    cfg.edge_bps = path_bps;
    cfg.seed = seed;
    cfg.interface_keying = true;
    cfg.probation_memory_slots = memory_slots;
    w.tb = std::make_unique<x::testbed>(x::balanced_tree(cfg));
    honest_at = "t2_0";
    attacker_at = "t2_1";
    second_at = "t2_2";
  }

  adv::profile attack;
  switch (kind) {
    case adv::strategy_kind::inflate_once:
      attack = adv::inflate_once(attack_at);
      break;
    case adv::strategy_kind::pulse_inflate:
      attack = adv::pulse_inflate(attack_at);
      break;
    case adv::strategy_kind::churn_flap:
      attack = adv::churn_flap(attack_at);
      break;
    case adv::strategy_kind::deaf_receiver:
      attack = adv::deaf_receiver(attack_at);
      break;
    case adv::strategy_kind::collusion:
      attack = adv::collusion(attack_at);
      break;
    case adv::strategy_kind::adaptive_pulse:
      attack = adv::adaptive_pulse(attack_at);
      break;
    case adv::strategy_kind::adaptive_churn:
      attack = adv::adaptive_churn(attack_at);
      break;
    default:
      mcc::util::require(false, "attack_grid: unhandled strategy",
                         adv::strategy_name(kind));
  }
  x::receiver_options attacker;
  attacker.at = attacker_at;
  attacker.attack = attack;
  std::vector<x::receiver_options> rogues = {attacker};
  if (kind == adv::strategy_kind::collusion) {
    x::receiver_options partner = attacker;
    partner.at = second_at;
    rogues.push_back(partner);
  }
  x::flid_session* rogue = &w.tb->add_flid_session(x::flid_mode::ds, rogues);
  x::receiver_options honest;
  honest.at = honest_at;
  x::flid_session* peer = &w.tb->add_flid_session(x::flid_mode::ds, {honest});
  x::tcp_flow* tcp = &w.tb->add_tcp_flow();

  const sim::time_ns horizon = w.horizon;
  w.analyse = [rogue, peer, tcp, attack_at, horizon] {
    adv::containment_config ccfg;
    ccfg.attack_start = attack_at;
    ccfg.horizon = horizon;
    // Rogue session, honest session and TCP share the path rate.
    ccfg.floor_kbps = path_bps / 1e3 / 3.0;
    adv::containment_report rep = adv::measure_containment(
        rogue->receiver(0).monitor(),
        {&peer->receiver(0).monitor(), &tcp->sink->monitor()},
        {&peer->receiver(0).monitor()}, ccfg);
    adv::attach_cost(rep, adv::measure_cost(rogue->receiver(0)));
    return outputs{{"attacker_kbps", rep.attacker_kbps},
                   {"attacker_share", rep.attacker_share},
                   {"honest_damage", rep.honest_damage},
                   {"ttc_s", rep.time_to_containment_s},
                   {"contained", rep.contained ? 1.0 : 0.0},
                   {"profit_kbps_per_kb", rep.profit_kbps_per_kb}};
  };
  return w;
}

}  // namespace

const std::vector<workload_spec>& workloads() {
  static const std::vector<workload_spec> all = {
      {"fig07", 7, 1, 1, fig07},
      {"farm64", 21, 1, 1, farm64},
      {"attack_grid", 7, 2, adv::all_attacks().size() * grid_topos.size(),
       attack_cell},
  };
  return all;
}

const workload_spec* find_workload(const std::string& name) {
  for (const workload_spec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace e2e
