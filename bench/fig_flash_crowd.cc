// Flash crowd at scale: aggregated receiver populations x topology x queue
// discipline x attack, the million-receiver sweep the population subsystem
// exists for.
//
// Each cell builds one testbed and attaches a single FLID session whose
// honest audience is a population::edge_aggregate — up to 10^6 members held
// as a count-per-layer histogram behind one delegate receiver — plus,
// in attack cells, ONE individually simulated adversary hiding at the same
// edge, and a TCP victim over the full path. The population undergoes a
// flash-crowd join storm at --flash-at (a --flash-frac multiple of the base
// size joins in a single slot); the adversary strikes at --attack-at.
//
// Reported per cell:
//
//   population           configured member count (the grid axis)
//   peak_members         members at the churn peak (base + flash crowd)
//   member_kbps          mean per-member goodput after the attack settles —
//                        the honest reference containment is judged against
//   aggregate_state_bytes  memory footprint of ALL member state; the
//                        O(interfaces)-not-O(receivers) claim is the
//                        assertion that this column does not grow with the
//                        population axis
//   events / events_per_sim_sec  scheduler events executed, total and per
//                        simulated second — the work metric, deterministic
//                        (wall-clock never enters rows, so --jobs N and
//                        rolling baselines stay byte-identical)
//   attacker_* / contained / ttc_s  adversary::containment_report for the
//                        hidden adversary, costs byte-priced as in
//                        fig_attack_matrix
//
// Under --mode=ds the expectation is containment even at 10^6: SIGMA holds
// the one misbehaving receiver near the honest per-member share while the
// aggregate rides through the flash crowd untouched. --probation-memory=on
// (or both) additionally prices the router-memory countermeasure's false
// positives: fp_block_rate is the fraction of admissions at the population's
// edge that hit a remembered probation debt, and the CHECK pins it below 2%
// — honest leave/rejoin must ride through the memory window unblocked.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
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
  std::string population;  // edge the aggregate sits behind
  std::string attacker;    // edge the hidden adversary attaches to
};

/// The population and its hidden adversary share the contested path: both
/// sit at the default receiver site, except on the tree, where the adversary
/// hides on a sibling leaf — it shares the contested root->t1_0 edge with
/// the population and splits below it.
site_plan sites_for(const std::string& topo) {
  if (topo == "parking_lot") return {"r2", "r2"};
  if (topo == "star") return {"s1", "s1"};
  if (topo == "tree") return {"t2_0", "t2_1"};
  return {"r", "r"};
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags(
      "Flash crowd at scale: population x topology x qdisc x attack");
  // Timing mirrors fig_attack_matrix: inflate_once on droptail needs ~60 s
  // after onset before the smoothed containment scan settles under the
  // bound, so the attack window must be comfortably longer than that.
  flags.add("duration", "120", "experiment length, seconds");
  flags.add("flash-at", "30", "flash-crowd onset, seconds");
  flags.add("flash-frac", "1.0",
            "flash-crowd size as a fraction of the base population");
  flags.add("attack-at", "40", "attack onset, seconds");
  flags.add_enum("attacks", "none,inflate_once", "attacks to sweep",
                 {"none", "inflate_once", "pulse_inflate", "churn_flap",
                  "deaf_receiver"},
                 /*csv_list=*/true);
  flags.add_enum("topos", "dumbbell,tree", "topologies to sweep",
                 {"dumbbell", "parking_lot", "star", "tree", "all"},
                 /*csv_list=*/true);
  exp::add_mode_flag(flags);
  flags.add_enum("attack-keys", "guess",
                 "key mode for inflate_once/pulse_inflate",
                 {"best_effort", "replay", "guess"});
  flags.add("seed", "11", "simulation seed");
  exp::add_population_flags(flags, "1000,1000000");
  exp::add_probation_memory_flag(flags, "off");
  exp::add_aqm_flags(flags);
  exp::add_sweep_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  exp::check_window_flags(flags, "attack-at", "containment");
  const double duration = flags.f64("duration");
  const double attack_at_s = flags.f64("attack-at");
  const double flash_at_s = flags.f64("flash-at");
  if (flash_at_s < 0.0 || flash_at_s >= duration) {
    std::fprintf(stderr,
                 "bad value for --flash-at: %g (expected within [0, duration))\n",
                 flash_at_s);
    return 1;
  }
  const double flash_frac = exp::f64_in(
      flags, "flash-frac", 0.0, std::numeric_limits<double>::max(), ">= 0");
  const exp::flid_mode mode = exp::mode_from_flags(flags);
  const adversary::key_mode keys =
      adversary::key_mode_from_name(flags.str("attack-keys")).value();
  const sim::aqm_config aqm_base = exp::aqm_config_from_flags(flags);
  exp::grid g;
  const auto members =
      g.add(exp::population_axis_from_flags(flags),
            [](std::int64_t n) { return "pop" + std::to_string(n); });
  const auto topo = g.add(flags.list("topos"));
  const auto queue = g.add(exp::qdisc_list_from_flags(flags), sim::qdisc_name);
  const population::population_config pop_base =
      exp::population_config_from_flags(flags);
  const auto attack = g.add(flags.list("attacks"));
  const auto memory = g.toggle(
      exp::off_under_dl(mode, "probation-memory",
                        exp::probation_memory_axis_from_flags(flags)),
      "mem");
  g.label_order({topo, queue, members, attack, memory});
  const auto opts = exp::sweep_options_from_flags(flags);

  const sim::time_ns attack_at = sim::seconds(attack_at_s);
  const sim::time_ns horizon = sim::seconds(duration);

  const auto rows = exp::run_grid(g, opts, [&](const exp::sweep_point& pt) {
    const std::size_t i = pt.index;
    const std::string& strategy = g.value(i, attack);
    const std::int64_t n = g.value(i, members);
    const site_plan sites = sites_for(g.value(i, topo));
    sim::aqm_config aqm = aqm_base;
    aqm.discipline = g.value(i, queue);
    exp::world_options world;
    world.seed = pt.seed;
    world.probation_memory_slots = g.value(i, memory);
    exp::testbed d(
        exp::named_scenario(g.value(i, topo), path_bps, aqm, world));

    // One session: the aggregated honest audience plus, in attack cells, one
    // individually simulated adversary hiding at the same contested path.
    std::vector<exp::receiver_options> rogues(strategy != "none" ? 1 : 0);
    for (exp::receiver_options& attacker : rogues) {
      attacker.at = sites.attacker;
      attacker.attack = adversary::make_profile(
          adversary::strategy_from_name(strategy).value(), attack_at, keys);
    }
    auto& session = d.add_flid_session(mode, rogues);

    exp::population_options popts;
    popts.at = sites.population;
    popts.population = pop_base;
    popts.population.initial_members = n;
    if (popts.population.churn.flash_at < 0) {
      // --churn didn't script a flash: the bench's own storm, scaled to the
      // cell's population size.
      popts.population.churn.flash_at = sim::seconds(flash_at_s);
      popts.population.churn.flash_members = static_cast<std::int64_t>(
          flash_frac * static_cast<double>(n));
    }
    auto& pop = d.add_population(session, popts);
    auto& tcp = d.add_tcp_flow();
    d.run_until(horizon);

    const auto& agg = *pop.aggregate;
    exp::sweep_row row;
    row.value("population", static_cast<double>(n));
    row.value("probation_memory", static_cast<double>(g.value(i, memory)));
    row.value("attacked", strategy != "none" ? 1.0 : 0.0);
    row.value("peak_members", static_cast<double>(agg.stats().peak_members));
    row.value("flash_arrivals",
              static_cast<double>(agg.stats().flash_arrivals));
    row.value("aggregate_state_bytes",
              static_cast<double>(agg.state_bytes()));
    row.value("events", static_cast<double>(d.sched().executed_events()));
    row.value("events_per_sim_sec",
              static_cast<double>(d.sched().executed_events()) / duration);

    const sim::time_ns settle = sim::seconds(5.0);
    row.value("member_kbps",
              agg.member_monitor().average_kbps(attack_at + settle, horizon));
    row.value("delegate_kbps",
              pop.delegate->monitor().average_kbps(attack_at + settle,
                                                   horizon));
    row.value("delegate_level",
              static_cast<double>(pop.delegate->level()));
    row.value("tcp_kbps",
              tcp.sink->monitor().average_kbps(attack_at + settle, horizon));
    // Edge control-plane pressure where the population sits: O(groups) per
    // slot however many members the aggregate holds.
    row.value("edge_igmp_joins",
              static_cast<double>(d.igmp(sites.population).stats().joins));
    row.value("edge_igmp_leaves",
              static_cast<double>(d.igmp(sites.population).stats().leaves));
    if (mode == exp::flid_mode::ds) {
      // The honest leave/rejoin false-positive price of probation memory at
      // the population's edge (0 while the memory is off).
      const auto& edge = d.sigma(sites.population).stats();
      row.value("fp_block_rate", adversary::memory_block_rate(edge));
      row.value("edge_memory_refusals",
                static_cast<double>(edge.memory_refusals));
      row.value("edge_memory_inherits",
                static_cast<double>(edge.memory_inherits));
    }

    if (strategy != "none") {
      adversary::containment_config ccfg;
      ccfg.attack_start = attack_at;
      ccfg.horizon = horizon;
      // The session, its hidden adversary, and TCP share the path; the
      // fair-share floor keeps the bound honest if members are damaged.
      ccfg.floor_kbps = path_bps / 1e3 / 3.0;
      // The honest reference is the aggregate's mean per-member goodput:
      // exactly what a well-behaved subscriber at this edge receives.
      const std::vector<const sim::throughput_monitor*> honest = {
          &agg.member_monitor(), &tcp.sink->monitor()};
      const std::vector<const sim::throughput_monitor*> reference = {
          &agg.member_monitor()};
      adversary::containment_report rep = adversary::measure_containment(
          session.receiver(0).monitor(), honest, reference, ccfg);
      adversary::attach_cost(rep, adversary::measure_cost(session.receiver(0)));
      row.value("attacker_kbps", rep.attacker_kbps);
      row.value("attacker_share", rep.attacker_share);
      row.value("honest_damage", rep.honest_damage);
      row.value("contained", rep.contained ? 1.0 : 0.0);
      row.value("ttc_s", rep.contained ? rep.time_to_containment_s : -1.0);
      row.value("bound_kbps", rep.containment_bound_kbps);
      row.value("cost_msgs", static_cast<double>(rep.cost.ctrl_msgs));
      row.value("cost_bytes", static_cast<double>(rep.cost.ctrl_bytes));
      row.value("profit_kbps_per_kb", rep.profit_kbps_per_kb);
    }

    row.trace("member_kbps_series", agg.member_monitor().series_kbps());
    row.trace("delegate_kbps_series", pop.delegate->monitor().series_kbps());
    row.metrics = d.metrics().snapshot();
    return row;
  });

  std::printf("# flash crowd (%s): topo/qdisc/pop/attack\n",
              flags.str("mode").c_str());
  std::printf("# %-40s %10s %12s %11s %12s %9s %8s\n", "cell", "peak",
              "state_bytes", "member_kbps", "events/sims", "atk_share",
              "ttc_s");
  for (const auto& row : rows) {
    std::printf("  %-40s %10.0f %12.0f %11.2f %12.0f %9.3f %8.1f\n",
                row.label.c_str(), row.value_of("peak_members"),
                row.value_of("aggregate_state_bytes"),
                row.value_of("member_kbps"),
                row.value_of("events_per_sim_sec"),
                row.value_of("attacker_share"), row.value_of("ttc_s"));
  }

  // O(interfaces) state: across cells that differ only in population size,
  // the aggregate's member-state footprint must not grow.
  bool state_flat = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].value_of("aggregate_state_bytes") !=
        g.twin(rows, i, members, 0)->value_of("aggregate_state_bytes")) {
      state_flat = false;
    }
  }
  exp::print_check(std::cout, "aggregate state independent of population size",
                   "O(interfaces), not O(receivers)", state_flat ? 1.0 : 0.0,
                   "(1 = flat across the population axis)");

  if (mode == exp::flid_mode::ds) {
    int attacked = 0;
    int held = 0;
    for (const auto& row : rows) {
      if (row.value_of("attacked") < 0.5) continue;
      ++attacked;
      if (row.value_of("contained") > 0.5) ++held;
    }
    exp::print_count_check(
        std::cout, "adversary contained among aggregated honest members",
        "all attack cells", held, attacked);
    // Probation memory must not tax the honest crowd: across every
    // memory-on cell the population edge's remembered-debt hit rate stays
    // under 2% of admission attempts.
    int memory_cells = 0;
    int cheap = 0;
    for (const auto& row : rows) {
      if (row.value_of("probation_memory") == 0.0) continue;
      ++memory_cells;
      if (row.value_of("fp_block_rate") < 0.02) ++cheap;
    }
    exp::print_count_check(
        std::cout, "honest leave/rejoin FP block rate < 2% under memory",
        "all memory cells", cheap, memory_cells);
  }
  exp::write_outputs(flags, opts, "fig_flash_crowd", rows);
  return 0;
}
