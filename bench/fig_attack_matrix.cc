// Attack matrix: every adversary strategy x topology x queue discipline x
// interface keying, with per-cell containment AND attacker-cost metrics.
//
// Not a paper figure — the systematic sweep the adversary subsystem exists
// for. Each cell builds one testbed (dumbbell / parking_lot / tree), attaches
// one FLID session with an honest receiver and one attacker (two colluders
// for the collusion strategy, placed at different edges where the topology
// has them), plus a TCP victim over the full path, and reports
// adversary::containment_report metrics:
//
//   attacker_share   attacker goodput share of everything measured
//   honest_damage    fraction of the honest flows' pre-attack goodput lost
//   ttc_s            time-to-containment (s); -1 = not contained by horizon
//   cost_*           attacker spend: control messages, control-plane wire
//                    bytes, useless key submissions, slots spent cut off
//   profit           attacker goodput per control message (Kbps/msg) and per
//                    control kilobyte (Kbps/KB). The ranking below sorts by
//                    the per-KB metric: messages are not fungible — a
//                    key-stuffed guessing subscribe costs an order of
//                    magnitude more wire than an IGMP join, and byte pricing
//                    is what exposes that.
//
// Under --mode=ds (default) the expectation is containment everywhere: the
// SIGMA edge holds every strategy near the honest share. Under --mode=dl the
// same grid shows the unprotected world: inflation-style strategies take the
// bottleneck. --interface-keying=both (the default in ds mode) additionally
// runs every cell with the section-4.2 countermeasure switched on; the
// headline comparison is the collusion/tree cell, whose cross-edge key pool
// goes from the matrix's worst containment time to pool_hits == 0 and a
// strictly faster claw-back. --probation-memory=both (also the default)
// additionally runs every cell with the router probation memory on; the
// headline comparison is the adaptive_churn cells, whose keyless grace
// throughput collapses once rejoins inherit the probation debt. Strategy timing parameters (pulse phases, flap
// period, adaptive probe) are flag-tunable; collusion always pools keys
// best-effort (the pool IS its key source), the other key-backed strategies
// follow --attack-keys.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/containment.h"
#include "exp/grid.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

namespace {

/// Every topology's contested links run at this rate; the containment
/// bound's fair-share floor is derived from it below.
constexpr double path_bps = 1e6;

struct site_plan {
  std::string honest;    // honest receiver's edge
  std::string attacker;  // attacker's edge
  std::string second;    // second colluder's edge (collusion only)
};

/// Where each party sits: the honest receiver and the attacker share the
/// contested link. On the parking lot the attacker sits behind both
/// bottlenecks and its colluding partner behind only the first; on the tree
/// the attacker is a sibling leaf of the honest receiver (they share the
/// root->t1_0 edge and split below it) and the partner sits in the other
/// subtree. Either way the partner's cleaner congestion state feeds the key
/// pool.
site_plan sites_for(const std::string& topo) {
  if (topo == "parking_lot") return {"r1", "r2", "r1"};
  if (topo == "tree") return {"t2_0", "t2_1", "t2_2"};
  return {"r", "r", "r"};
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags(
      "Attack matrix: adversary strategy x topology x qdisc containment");
  flags.add("duration", "120", "experiment length, seconds");
  flags.add("attack-at", "40", "attack onset, seconds");
  std::vector<std::string> strategy_names;
  for (const adversary::strategy_kind k : adversary::all_attacks()) {
    strategy_names.push_back(adversary::strategy_name(k));
  }
  strategy_names.push_back("all");
  flags.add_enum("strategies", "all", "attack strategies to sweep",
                 strategy_names, /*csv_list=*/true);
  flags.add_enum("topos", "all", "topologies to sweep",
                 {"dumbbell", "parking_lot", "tree", "all"},
                 /*csv_list=*/true);
  exp::add_mode_flag(flags);
  flags.add_enum("attack-keys", "guess",
                 "key mode for the key-backed strategies except collusion",
                 {"best_effort", "replay", "guess"});
  flags.add("pulse-on", "5",
            "pulse_inflate: attack phase; adaptive_pulse: max probe, seconds");
  flags.add("pulse-off", "5", "pulse_inflate: recovery phase, seconds");
  flags.add("flap-period", "1", "churn_flap: slots per phase");
  flags.add("seed", "7", "simulation seed");
  exp::add_interface_keying_flag(flags, "both");
  exp::add_probation_memory_flag(flags, "both");
  // Default off: the matrix is a single-receiver-per-edge study outside the
  // dumbbell, where the manager is provably inert; --cm=both adds the
  // shared-manager twin of every cell for the never-worsens-ttc pin.
  exp::add_cm_flags(flags, "off");
  exp::add_aqm_flags(flags);
  exp::add_sweep_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  exp::check_window_flags(flags, "attack-at", "containment");
  const exp::flid_mode mode = exp::mode_from_flags(flags);
  const adversary::key_mode keys =
      adversary::key_mode_from_name(flags.str("attack-keys")).value();
  const sim::time_ns pulse_on = sim::seconds(flags.f64("pulse-on"));
  const sim::time_ns pulse_off = sim::seconds(flags.f64("pulse-off"));
  if (pulse_on <= 0 || pulse_off <= 0) {
    // Validate here with the friendly flag UX: the strategy constructor
    // also checks, but that invariant_error would surface as an unhandled
    // exception out of run_sweep instead of a flag message.
    std::fprintf(stderr,
                 "bad value for --pulse-on/--pulse-off: %g/%g (expected "
                 "positive seconds)\n",
                 flags.f64("pulse-on"), flags.f64("pulse-off"));
    return 1;
  }
  const int flap_period = static_cast<int>(flags.i64("flap-period"));

  const sim::aqm_config aqm_base = exp::aqm_config_from_flags(flags);
  exp::grid g;
  const auto strategy = g.add(flags.list("strategies"));
  const auto topo = g.add(flags.list("topos"));
  const auto queue = g.add(exp::qdisc_list_from_flags(flags), sim::qdisc_name);
  const auto keying = g.toggle(
      exp::off_under_dl(mode, "interface-keying",
                        exp::interface_keying_axis_from_flags(flags)),
      "keyed");
  const auto memory = g.toggle(
      exp::off_under_dl(mode, "probation-memory",
                        exp::probation_memory_axis_from_flags(flags)),
      "mem");
  // A "/cm" cell simulates the SAME world as its plain twin (the pair
  // comparison isolates the manager), and plain cells keep the exact seeds
  // they had before the cm axis existed, so the rolling bench baseline keeps
  // matching.
  const auto cm = g.toggle(exp::cm_axis_from_flags(flags), "cm",
                           /*twin=*/true);
  const cm::cm_config cm_params = exp::cm_config_from_flags(flags);
  const auto opts = exp::sweep_options_from_flags(flags);

  const sim::time_ns attack_at = sim::seconds(flags.f64("attack-at"));
  const sim::time_ns horizon = sim::seconds(flags.f64("duration"));

  const auto rows = exp::run_grid(g, opts, [&](const exp::sweep_point& pt) {
    const std::size_t i = pt.index;
    const adversary::strategy_kind kind =
        adversary::strategy_from_name(g.value(i, strategy)).value();
    const site_plan sites = sites_for(g.value(i, topo));
    sim::aqm_config aqm = aqm_base;
    aqm.discipline = g.value(i, queue);
    exp::world_options world;
    world.seed = pt.seed;
    world.interface_keying = g.value(i, keying);
    world.probation_memory_slots = g.value(i, memory);
    world.cm = g.value(i, cm);
    world.cm_params = cm_params;
    exp::testbed d(
        exp::named_scenario(g.value(i, topo), path_bps, aqm, world));
    const adversary::profile attack = adversary::make_profile(
        kind, attack_at, keys, pulse_on, pulse_off, flap_period);

    // Two sessions share the path, mirroring Figure 7 and the containment
    // matrix test: the rogue session carries the attacker(s), the honest
    // session a well-behaved receiver, and TCP is the unicast victim.
    const bool colluding = kind == adversary::strategy_kind::collusion;
    std::vector<exp::receiver_options> rogues(colluding ? 2 : 1);
    rogues[0].at = sites.attacker;
    if (colluding) rogues[1].at = sites.second;
    for (exp::receiver_options& r : rogues) r.attack = attack;
    auto& rogue = d.add_flid_session(mode, rogues);
    exp::receiver_options honest;
    honest.at = sites.honest;
    auto& honest_session = d.add_flid_session(mode, {honest});
    auto& tcp = d.add_tcp_flow();
    d.run_until(horizon);

    adversary::containment_config ccfg;
    ccfg.attack_start = attack_at;
    ccfg.horizon = horizon;
    // Three parties (rogue session, honest session, TCP) share the path
    // rate, so the fair share is a third of it. The floor keeps the bound
    // honest even when the honest flows are damaged.
    ccfg.floor_kbps = path_bps / 1e3 / 3.0;
    const std::vector<const sim::throughput_monitor*> honest_monitors = {
        &honest_session.receiver(0).monitor(), &tcp.sink->monitor()};
    // The containment bound tracks the honest session's receiver: its
    // layered rate is the attacker's natural yardstick (TCP still counts
    // toward share and damage).
    const std::vector<const sim::throughput_monitor*> reference = {
        &honest_session.receiver(0).monitor()};

    exp::sweep_row row;
    double attacker_sum = 0.0;
    double honest_sum = 0.0;
    for (const sim::throughput_monitor* m : honest_monitors) {
      honest_sum += m->average_kbps(attack_at + ccfg.settle, horizon);
    }
    adversary::containment_report verdict;
    const int attackers = colluding ? 2 : 1;
    for (int a = 0; a < attackers; ++a) {
      adversary::containment_report rep = adversary::measure_containment(
          rogue.receiver(a).monitor(), honest_monitors, reference, ccfg);
      adversary::attach_cost(rep, adversary::measure_cost(rogue.receiver(a)));
      attacker_sum += rep.attacker_kbps;
      // The cell verdict judges the attacker on the contested path
      // (receiver 0). A colluding partner may sit on an uncontested branch
      // by design — its clean congestion state is what feeds the key pool —
      // so its own high rate is entitlement, not escape; it is still
      // reported as attacker1_*. Damage is the same for every attacker: it
      // is measured on the honest set alone.
      if (a == 0) verdict = rep;
      const std::string p = "attacker" + std::to_string(a) + "_";
      row.value(p + "kbps", rep.attacker_kbps);
      row.value(p + "share", rep.attacker_share);
      row.value(p + "ttc_s", rep.time_to_containment_s);
      row.value(p + "bound_kbps", rep.containment_bound_kbps);
      row.value(p + "cost_msgs", static_cast<double>(rep.cost.ctrl_msgs));
      row.value(p + "cost_bytes", static_cast<double>(rep.cost.ctrl_bytes));
      row.value(p + "cost_useless_keys",
                static_cast<double>(rep.cost.useless_keys));
      row.value(p + "cost_cutoff_slots",
                static_cast<double>(rep.cost.cutoff_slots));
      row.value(p + "profit_kbps_per_msg", rep.profit_kbps_per_msg);
      row.value(p + "profit_kbps_per_kb", rep.profit_kbps_per_kb);
    }
    row.value("attacker_share",
              attacker_sum + honest_sum > 0.0
                  ? attacker_sum / (attacker_sum + honest_sum)
                  : 0.0);
    row.value("honest_damage", verdict.honest_damage);
    row.value("ttc_s", verdict.contained ? verdict.time_to_containment_s : -1.0);
    row.value("contained", verdict.contained ? 1.0 : 0.0);
    row.value("interface_keying", g.value(i, keying) ? 1.0 : 0.0);
    row.value("probation_memory", static_cast<double>(g.value(i, memory)));
    row.value("cm", g.value(i, cm) ? 1.0 : 0.0);
    // Zero bindings across every receiver in the cell ⇒ the manager never
    // changed an auth mask ⇒ the whole run is byte-identical to the plain
    // twin. That is the predicate the cm compatibility pin below keys on.
    std::uint64_t cm_bindings = honest_session.receiver(0).stats().cm_bindings;
    for (int a = 0; a < attackers; ++a) {
      cm_bindings += rogue.receiver(a).stats().cm_bindings;
    }
    row.value("cm_bindings", static_cast<double>(cm_bindings));
    // Sustained late-window rate: everything after the attack's first grace
    // windows and escalation rounds have played out. Under probation memory
    // the churn strategies must collapse to ~0 here.
    const sim::time_ns late_from =
        attack_at + std::min(sim::seconds(20.0), (horizon - attack_at) / 2);
    row.value("attacker_late_kbps",
              rogue.receiver(0).monitor().average_kbps(late_from, horizon));
    row.value("profit_kbps_per_msg", verdict.profit_kbps_per_msg);
    row.value("profit_kbps_per_kb", verdict.profit_kbps_per_kb);
    row.value("honest_kbps",
              honest_session.receiver(0).monitor().average_kbps(
                  attack_at + ccfg.settle, horizon));
    row.value("tcp_kbps",
              tcp.sink->monitor().average_kbps(attack_at + ccfg.settle,
                                               horizon));
    // Control-plane pressure at the attacker's edge: churn shows up here
    // long before it shows up in goodput.
    row.value("edge_igmp_joins",
              static_cast<double>(d.igmp(sites.attacker).stats().joins));
    row.value("edge_igmp_leaves",
              static_cast<double>(d.igmp(sites.attacker).stats().leaves));
    if (mode == exp::flid_mode::ds) {
      const auto& edge = d.sigma(sites.attacker).stats();
      row.value("edge_invalid_keys", static_cast<double>(edge.invalid_keys));
      row.value("edge_memory_refusals",
                static_cast<double>(edge.memory_refusals));
      row.value("edge_memory_inherits",
                static_cast<double>(edge.memory_inherits));
    }
    if (colluding) {
      const auto& pool = d.coordinator(attack.coalition).stats();
      row.value("pool_deposits", static_cast<double>(pool.deposits));
      row.value("pool_hits", static_cast<double>(pool.hits));
      // Cross-edge = the colluders sit at different edge routers (tree,
      // parking lot) — the placement section 4.2's key-sharing attack and
      // its countermeasure are about. Dumbbell colluders share one edge, so
      // keying closes their pool too but containment there is congestion-
      // dominated and need not speed up.
      row.value("cross_edge", sites.attacker != sites.second ? 1.0 : 0.0);
    }
    row.trace("attacker_kbps_series", rogue.receiver(0).monitor().series_kbps());
    row.trace("honest_kbps_series",
              honest_session.receiver(0).monitor().series_kbps());
    return row;
  });

  std::printf("# attack matrix (%s): strategy/topology/qdisc[/keyed]\n",
              flags.str("mode").c_str());
  std::printf("# %-44s %9s %9s %8s %9s %11s\n", "cell", "atk_share", "damage",
              "ttc_s", "contained", "profit");
  for (const auto& row : rows) {
    std::printf("  %-44s %9.3f %9.3f %8.1f %9.0f %11.3f\n", row.label.c_str(),
                row.value_of("attacker_share"), row.value_of("honest_damage"),
                row.value_of("ttc_s"), row.value_of("contained"),
                row.value_of("profit_kbps_per_msg"));
  }

  // Profitability ranking: which strategy extracts the most goodput per
  // control-plane kilobyte. Byte pricing (not message counting) is the fair
  // comparison across strategies: a key-stuffed guessing subscribe carries an
  // order of magnitude more wire than an IGMP join or a sparse replay. High
  // profit + contained = a cheap nuisance; high profit + uncontained = the
  // cell to worry about.
  std::vector<const exp::sweep_row*> ranked;
  ranked.reserve(rows.size());
  for (const auto& row : rows) ranked.push_back(&row);
  std::sort(ranked.begin(), ranked.end(),
            [](const exp::sweep_row* a, const exp::sweep_row* b) {
              const double pa = a->value_of("profit_kbps_per_kb");
              const double pb = b->value_of("profit_kbps_per_kb");
              return pa != pb ? pa > pb : a->label < b->label;
            });
  std::printf("\n# profitability ranking (attacker Kbps per control KB)\n");
  std::printf("# %-44s %11s %11s %10s %11s %13s %13s\n", "cell", "profit_kb",
              "profit_msg", "cost_msgs", "cost_bytes", "useless_keys",
              "cutoff_slots");
  for (const exp::sweep_row* row : ranked) {
    std::printf("  %-44s %11.3f %11.3f %10.0f %11.0f %13.0f %13.0f\n",
                row->label.c_str(), row->value_of("profit_kbps_per_kb"),
                row->value_of("profit_kbps_per_msg"),
                row->value_of("attacker0_cost_msgs"),
                row->value_of("attacker0_cost_bytes"),
                row->value_of("attacker0_cost_useless_keys"),
                row->value_of("attacker0_cost_cutoff_slots"));
  }

  if (mode == exp::flid_mode::ds) {
    int held = 0;
    for (const auto& row : rows) {
      if (row.value_of("contained") > 0.5) ++held;
    }
    exp::print_count_check(std::cout, "cells contained under SIGMA",
                           "all of them", held, static_cast<int>(rows.size()));
    // The countermeasure study: for every collusion cell run both with and
    // without keying, the keyed run must close the key-sharing channel (no
    // pool hits — checked for every placement, same-edge included). The
    // time-to-containment claim is anchored on the tree — the matrix's
    // historical worst cell, where cross-edge colluders split below the
    // contested link exactly as in section 4.2: there, keying must rein the
    // contested colluder in strictly faster. (On other topologies the
    // claw-back is congestion-dominated and the comparison is seed-noisy.)
    // Each pair's unkeyed cell has memory and cm off too.
    int pairs = 0;
    int closed = 0;
    int tree_cells = 0;
    int faster = 0;
    for (const auto& [off, on] : g.pairs(keying)) {
      if (g.value(off, strategy) != "collusion" ||
          g.value(off, memory) != 0 || g.value(off, cm)) {
        continue;
      }
      ++pairs;
      if (rows[on].value_of("pool_hits") == 0.0) ++closed;
      if (g.value(off, topo) != "tree") continue;
      ++tree_cells;
      const double ttc_off = rows[off].value_of("ttc_s");
      const double ttc_on = rows[on].value_of("ttc_s");
      // -1 (uncontained) is worse than any contained time.
      if (ttc_on >= 0.0 && (ttc_off < 0.0 || ttc_on < ttc_off)) ++faster;
    }
    exp::print_count_check(std::cout,
                           "keyed collusion cells with pool_hits == 0",
                           "all of them", closed, pairs);
    exp::print_count_check(std::cout,
                           "keyed collusion/tree contained strictly faster",
                           "all of them", faster, tree_cells);
    // The churn-countermeasure study: for every adaptive_churn cell run both
    // with and without probation memory, the memory run must show the grace
    // free-ride collapsing — no sustained keyless throughput once the first
    // window's debt is remembered — and the strategy dropping down the
    // profitability ranking. Each pair's memory-off cell has cm off too.
    int churn_pairs = 0;
    int collapsed = 0;
    int less_profitable = 0;
    for (const auto& [off, on] : g.pairs(memory)) {
      if (g.value(off, strategy) != "adaptive_churn" || g.value(off, cm)) {
        continue;
      }
      ++churn_pairs;
      if (rows[on].value_of("attacker_late_kbps") < 10.0) ++collapsed;
      if (rows[on].value_of("profit_kbps_per_kb") <
          rows[off].value_of("profit_kbps_per_kb")) {
        ++less_profitable;
      }
    }
    exp::print_count_check(std::cout,
                           "churn cells under memory: late grace Kbps < 10",
                           "all of them", collapsed, churn_pairs);
    exp::print_count_check(
        std::cout, "churn cells strictly less profitable under memory",
        "all of them", less_profitable, churn_pairs);
    // The shared-manager compatibility pin: every "/cm" cell simulates its
    // plain twin's exact world (same seed by construction). Wherever the
    // manager stayed inert — zero cap bindings, which structurally covers
    // every cell whose honest receiver and attacker sit at different edges
    // (one session per path) — the run must be indistinguishable from the
    // twin, so turning cm on must not move time-to-containment at all.
    // Dumbbell cells where the cap actually bound are a different experiment
    // (fig_session_farm's) and are reported, not claimed.
    int inert_pairs = 0;
    int unchanged = 0;
    int bound_pairs = 0;
    for (const auto& [off, on] : g.pairs(cm)) {
      if (rows[on].value_of("cm_bindings") > 0.0) {
        ++bound_pairs;
        continue;
      }
      ++inert_pairs;
      if (rows[on].value_of("ttc_s") == rows[off].value_of("ttc_s")) {
        ++unchanged;
      }
    }
    exp::print_count_check(
        std::cout, "cm-inert cells (zero cap bindings) with ttc unchanged",
        "all of them", unchanged, inert_pairs);
    if (inert_pairs > 0) {
      std::printf("  (cells where the shared cap bound: %d — see "
                  "fig_session_farm for that study)\n",
                  bound_pairs);
    }
  }
  exp::write_outputs(flags, opts, "fig_attack_matrix", rows);
  return 0;
}
