// Session farm: 2..64 concurrent FLID sessions sharing one set of
// bottlenecks, one adversarial session among honest neighbours, sweeping the
// shared congestion manager x queue discipline x attack.
//
// Not a paper figure — the cross-session question the paper's single-session
// experiments cannot express: when a misbehaving receiver inflates ONE
// session's subscription, how much collateral damage do honest *neighbour
// sessions* take, and does DS containment plus a shared congestion manager
// (src/cm) limit it? Each cell builds one testbed whose bottleneck is sized
// to --per-session-kbps per session, adds the rogue session first (session 0)
// and an add_session_array of honest neighbours behind the same contested
// edge, and reports:
//
//   neighbour_damage   fraction of the honest sessions' pre-attack goodput
//                      lost over the post-attack window (0 = no collateral)
//   honest_jain        Jain fairness index across the honest sessions
//   s<i>_kbps          per-session throughput columns (exp::session_rollup)
//   attacker_kbps      the rogue session's post-attack goodput
//   cm.*               shared-manager metrics (row "metrics" object): cache
//                      occupancy, lookups, and how often the cap bound
//
// The headline CHECK: at >= --check-sessions concurrent sessions, honest-
// neighbour damage under DS+CM must sit strictly below DS-alone — the shared
// fair-rate estimate stops every honest session from probing into the
// attacker's overload at once, so the collateral loss cycle never starts.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "exp/grid.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "util/flags.h"

using namespace mcc;

namespace {

// World seed from the cell's cm-free coordinates (FNV-1a): a "/cm" row and
// its plain twin simulate the SAME world, so their pair comparison isolates
// the manager's effect instead of folding in seed noise. Worker-independent,
// which the --jobs byte-equality contract needs.
std::uint64_t cell_seed(std::uint64_t base, int sessions,
                        const std::string& topo, sim::qdisc queue,
                        const std::string& attack) {
  std::uint64_t h = 1469598103934665603ull ^ (base * 1099511628211ull);
  const auto fold = [&h](const std::string& s) {
    for (const char ch : s) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
  };
  fold(topo);
  fold(attack);
  h ^= static_cast<std::uint64_t>(sessions);
  h *= 1099511628211ull;
  h ^= static_cast<std::uint64_t>(queue);
  h *= 1099511628211ull;
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  util::flag_set flags(
      "Session farm: N concurrent sessions x cm x qdisc x attack collateral");
  flags.add("duration", "120", "experiment length, seconds");
  flags.add("attack-at", "40", "attack onset, seconds");
  flags.add("damage-window", "40",
            "collateral damage is measured over [attack-at, attack-at + "
            "this], seconds");
  flags.add("sessions", "2,8",
            "concurrent session count(s), comma-separated (2..64 each)");
  flags.add_enum("attacks", "none,inflate_once", "attacks to sweep",
                 {"none", "inflate_once", "pulse_inflate", "deaf_receiver"},
                 /*csv_list=*/true);
  flags.add_enum("topos", "dumbbell,parking_lot", "topologies to sweep",
                 {"dumbbell", "parking_lot"}, /*csv_list=*/true);
  exp::add_mode_flag(flags);
  flags.add_enum("attack-keys", "guess",
                 "key mode for inflate_once/pulse_inflate",
                 {"best_effort", "replay", "guess"});
  flags.add("per-session-kbps", "250",
            "bottleneck capacity budgeted per session (link = N x this)");
  flags.add("check-sessions", "8",
            "the collateral-damage CHECK applies at this many sessions or "
            "more");
  flags.add("seed", "21", "simulation seed");
  exp::add_cm_flags(flags, "both");
  exp::add_aqm_flags(flags);
  exp::add_sweep_flags(flags);
  if (!flags.parse(argc, argv)) return 1;

  const double attack_at_s = flags.f64("attack-at");
  const double damage_window_s = exp::f64_in(
      flags, "damage-window", 5.0, std::numeric_limits<double>::max(),
      ">= 5 s");
  exp::check_window_flags(flags, "attack-at", "damage");
  if (attack_at_s <= 15.0) {
    std::fprintf(stderr,
                 "bad value for --attack-at: %g (need > 15 s so the "
                 "pre-attack baseline window is non-empty)\n",
                 attack_at_s);
    return 1;
  }
  const exp::flid_mode mode = exp::mode_from_flags(flags);
  const adversary::key_mode keys =
      adversary::key_mode_from_name(flags.str("attack-keys")).value();
  const double per_session_kbps = exp::f64_in(
      flags, "per-session-kbps", 50.0, 10e3, "a rate in [50, 10000]");
  const int check_sessions = static_cast<int>(flags.i64("check-sessions"));

  exp::grid g;
  const auto sessions =
      g.add(exp::count_axis_from_flags(flags, "sessions", 2, 64),
            [](int n) { return "n" + std::to_string(n); });
  const auto topo = g.add(flags.list("topos"));
  const auto queue = g.add(exp::qdisc_list_from_flags(flags), sim::qdisc_name);
  const sim::aqm_config aqm_base = exp::aqm_config_from_flags(flags);
  const auto attack = g.add(flags.list("attacks"));
  const auto cm = g.toggle(exp::cm_axis_from_flags(flags), "cm");
  g.label_order({topo, queue, sessions, attack, cm});
  const cm::cm_config cm_params = exp::cm_config_from_flags(flags);
  const auto opts = exp::sweep_options_from_flags(flags);

  const sim::time_ns attack_at = sim::seconds(attack_at_s);
  const sim::time_ns horizon = sim::seconds(flags.f64("duration"));

  const auto rows = exp::run_grid(g, opts, [&](const exp::sweep_point& pt) {
    const std::size_t i = pt.index;
    const int n = g.value(i, sessions);
    const std::string& strategy = g.value(i, attack);
    // The bottleneck grows with the farm so the per-session fair share
    // stays put: the sessions axis varies contention structure, not the
    // per-session budget.
    const double path_bps = per_session_kbps * 1e3 * static_cast<double>(n);
    sim::aqm_config aqm = aqm_base;
    aqm.discipline = g.value(i, queue);
    exp::world_options world;
    world.seed = cell_seed(opts.base_seed, n, g.value(i, topo), aqm.discipline,
                           strategy);
    world.cm = g.value(i, cm);
    world.cm_params = cm_params;
    exp::testbed d(
        exp::named_scenario(g.value(i, topo), path_bps, aqm, world));
    // Every session's receivers sit at the contested edge: the far end of
    // the path, the scenario's default receiver site.
    const std::string shared_site = d.config().receiver_site;

    // Session 0 carries the farm's one misbehaving receiver; every other
    // session is an honest neighbour at the same contested edge.
    exp::flid_session* rogue = nullptr;
    if (strategy != "none") {
      exp::receiver_options attacker;
      attacker.at = shared_site;
      attacker.attack = adversary::make_profile(
          adversary::strategy_from_name(strategy).value(), attack_at, keys);
      rogue = &d.add_flid_session(mode, {attacker});
    }
    exp::receiver_options neighbour;
    neighbour.at = shared_site;
    const int honest_count = n - (rogue != nullptr ? 1 : 0);
    const std::vector<exp::flid_session*> honest =
        d.add_session_array(honest_count, mode, {neighbour});
    d.run_until(horizon);

    // Pre-attack baseline vs the attack-transient window. The damage window
    // opens AT the attack and spans its transient plus the recovery: that is
    // where collateral loss lives. Measuring long after containment would
    // mostly re-measure steady state and dilute the effect under study.
    const sim::time_ns pre0 = sim::seconds(15.0);
    const sim::time_ns post0 = attack_at;
    const sim::time_ns post1 =
        std::min(horizon, attack_at + sim::seconds(damage_window_s));
    const exp::session_rollup pre =
        exp::session_rollup_for(honest, pre0, attack_at);
    const exp::session_rollup post =
        exp::session_rollup_for(honest, post0, post1);

    exp::sweep_row row;
    row.value("sessions", static_cast<double>(n));
    row.value("cm", g.value(i, cm) ? 1.0 : 0.0);
    row.value("attacked", strategy != "none" ? 1.0 : 0.0);
    const double n_honest = static_cast<double>(honest.size());
    const double pre_mean = pre.total_rate / n_honest;
    const double post_mean = post.total_rate / n_honest;
    row.value("honest_pre_kbps", pre_mean);
    row.value("honest_kbps", post_mean);
    row.value("neighbour_damage",
              pre_mean > 0.0 ? std::max(0.0, 1.0 - post_mean / pre_mean)
                             : 0.0);
    row.value("honest_jain", post.jain);
    row.value("attacker_kbps",
              rogue != nullptr
                  ? rogue->receiver(0).monitor().average_kbps(post0, post1)
                  : 0.0);
    if (rogue != nullptr) {
      row.value("attacker_level",
                static_cast<double>(rogue->receiver(0).level()));
    }
    // Per-session throughput columns, in session-id order (the roll-up's
    // input order): the cross-session containment picture at full width.
    for (const exp::session_column& s : post.sessions) {
      row.value(s.name + "_kbps", s.rate);
    }
    std::uint64_t bindings = 0;
    for (exp::flid_session* s : honest) {
      bindings += s->receiver(0).stats().cm_bindings;
    }
    row.value("cm_bindings", static_cast<double>(bindings));
    row.value("events", static_cast<double>(d.sched().executed_events()));
    row.trace("honest_session0_kbps_series", post.sessions.front().smoothed);
    row.metrics = d.metrics().snapshot();
    return row;
  });

  std::printf("# session farm (%s): topo/qdisc/nN/attack[/cm]\n",
              flags.str("mode").c_str());
  std::printf("# %-42s %8s %10s %10s %9s %9s %11s\n", "cell", "sessions",
              "honest_kbps", "atk_kbps", "damage", "jain", "cm_bindings");
  for (const auto& row : rows) {
    std::printf("  %-42s %8.0f %10.2f %10.2f %9.3f %9.4f %11.0f\n",
                row.label.c_str(), row.value_of("sessions"),
                row.value_of("honest_kbps"), row.value_of("attacker_kbps"),
                row.value_of("neighbour_damage"), row.value_of("honest_jain"),
                row.value_of("cm_bindings"));
  }

  // The headline collateral-damage study: pair every attacked DS-alone cell
  // with its "/cm" twin (same world seed by construction — cell_seed skips
  // the cm coordinate). At farm sizes >= --check-sessions the shared manager
  // must strictly reduce MEAN honest-neighbour damage across the farm cells.
  // The claim is aggregate rather than per-pair because in some worlds the
  // cap only ever bound at levels the receivers were not about to join —
  // a behavioural no-op, which ties the pair and says nothing either way.
  // Smaller farms are reported but not claimed (two sessions leave the
  // estimate noisy).
  int pairs = 0;
  int worse = 0;
  int bound_cells = 0;
  double dmg_off_sum = 0.0;
  double dmg_on_sum = 0.0;
  for (const auto& [off, on] : g.pairs(cm)) {
    if (rows[off].value_of("attacked") != 1.0 ||
        g.value(off, sessions) < check_sessions) {
      continue;
    }
    ++pairs;
    // Matched-pair damage against a COMMON baseline — the DS-alone cell's
    // own pre-attack goodput. The per-row neighbour_damage column is
    // self-normalised, which is right for reading one cell but wrong for
    // the pair comparison: the manager shifts the pre-attack window too,
    // and that shift would launder into the ratio.
    const double base = rows[off].value_of("honest_pre_kbps");
    const double dmg_off =
        std::max(0.0, 1.0 - rows[off].value_of("honest_kbps") / base);
    const double dmg_on =
        std::max(0.0, 1.0 - rows[on].value_of("honest_kbps") / base);
    dmg_off_sum += dmg_off;
    dmg_on_sum += dmg_on;
    if (dmg_on > dmg_off) ++worse;
    if (rows[on].value_of("cm_bindings") > 0.0) ++bound_cells;
  }
  // A claim only prints when its cells actually ran: "0 of 0" reads as the
  // study passing when nothing was checked.
  if (pairs > 0) {
    const double reduction = (dmg_off_sum - dmg_on_sum) / pairs;
    exp::print_check(
        std::cout,
        "mean honest-neighbour damage reduction, DS+CM vs DS-alone "
        "(n >= " + std::to_string(check_sessions) + ")",
        "strictly > 0", reduction,
        "damage fraction over " + std::to_string(pairs) + " pairs");
    exp::print_count_check(std::cout,
                           "cm farms where the shared cap actually bound",
                           "all of them", bound_cells, pairs);
    std::printf("  (pairs where cm made damage worse: %d of %d)\n", worse,
                pairs);
  }
  exp::write_outputs(flags, opts, "fig_session_farm", rows);
  return 0;
}
