// Tests for the experiment kit itself: topology sizing, paper defaults,
// session bookkeeping, and failure-injection behaviours of the dumbbell.
#include "exp/testbed.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/flags.h"
#include "util/require.h"

namespace mcc::exp {
namespace {

TEST(scenario, paper_defaults_match_section_5_1) {
  dumbbell_config cfg;
  EXPECT_DOUBLE_EQ(cfg.access_bps, 10e6);
  EXPECT_EQ(cfg.access_delay, sim::milliseconds(10));
  EXPECT_EQ(cfg.bottleneck_delay, sim::milliseconds(20));
  EXPECT_DOUBLE_EQ(cfg.buffer_bdp, 2.0);

  testbed d(dumbbell(cfg));
  const auto dl = d.default_flid_config(flid_mode::dl);
  EXPECT_EQ(dl.num_groups, 10);
  EXPECT_DOUBLE_EQ(dl.base_rate_bps, 100e3);
  EXPECT_DOUBLE_EQ(dl.rate_multiplier, 1.5);
  EXPECT_EQ(dl.slot_duration, sim::milliseconds(500));
  EXPECT_EQ(dl.packet_bytes, 576);
  const auto ds = d.default_flid_config(flid_mode::ds);
  EXPECT_EQ(ds.slot_duration, sim::milliseconds(250));
  EXPECT_EQ(ds.key_bits, 16);
}

TEST(scenario, bottleneck_buffer_is_two_bdp) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.base_rtt = sim::milliseconds(80);
  testbed d(dumbbell(cfg));
  // 2 x 1 Mbps x 80 ms / 8 = 20 KB.
  EXPECT_EQ(d.bottleneck()->config().queue_capacity_bytes, 20'000);
}

TEST(scenario, sessions_get_distinct_ids_and_group_ranges) {
  dumbbell_config cfg;
  testbed d(dumbbell(cfg));
  auto& s1 = d.add_flid_session(flid_mode::dl, {receiver_options{}});
  auto& s2 = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  EXPECT_NE(s1.config.session_id, s2.config.session_id);
  EXPECT_NE(s1.config.group_addr_base, s2.config.group_addr_base);
  // Address ranges must not overlap.
  const int end1 = s1.config.group_addr_base + s1.config.num_groups;
  EXPECT_LE(end1, s2.config.group_addr_base);
}

TEST(scenario, ds_sessions_are_protected_dl_sessions_are_not) {
  dumbbell_config cfg;
  testbed d(dumbbell(cfg));
  auto& dl = d.add_flid_session(flid_mode::dl, {receiver_options{}});
  auto& ds = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  EXPECT_FALSE(d.net().is_sigma_protected(dl.config.group(1)));
  EXPECT_TRUE(d.net().is_sigma_protected(ds.config.group(1)));
  EXPECT_EQ(dl.ds.delta, nullptr);
  EXPECT_NE(ds.ds.delta, nullptr);
}

TEST(scenario, adding_after_run_is_rejected) {
  dumbbell_config cfg;
  testbed d(dumbbell(cfg));
  d.add_flid_session(flid_mode::dl, {receiver_options{}});
  d.run_until(sim::seconds(1.0));
  EXPECT_THROW(d.add_tcp_flow(), util::invariant_error);
  EXPECT_THROW(d.add_flid_session(flid_mode::dl, {receiver_options{}}),
               util::invariant_error);
}

TEST(scenario, multi_receiver_sessions_share_one_bottleneck_stream) {
  // 4 receivers of one session: the bottleneck carries the session once.
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  auto& s =
      d.add_flid_session(flid_mode::dl, {receiver_options{}, receiver_options{},
                                         receiver_options{}, receiver_options{}});
  d.run_until(sim::seconds(30.0));
  // All four receivers got roughly the same bytes...
  const double r0 = s.receiver(0).monitor().average_kbps(sim::seconds(10.0),
                                                         sim::seconds(30.0));
  for (int i = 1; i < 4; ++i) {
    const double ri = s.receiver(i).monitor().average_kbps(
        sim::seconds(10.0), sim::seconds(30.0));
    EXPECT_NEAR(ri, r0, 0.15 * r0);
  }
  // ...but the bottleneck carried only ~one copy of the session (not four).
  const double bottleneck_kbps =
      8.0 * static_cast<double>(d.bottleneck()->stats().bytes_delivered) /
      sim::to_seconds(sim::seconds(30.0)) / 1e3;
  EXPECT_LT(bottleneck_kbps, 2.0 * r0);
}

TEST(scenario, average_receiver_kbps_averages_across_receivers) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  testbed d(dumbbell(cfg));
  auto& s = d.add_flid_session(flid_mode::dl,
                               {receiver_options{}, receiver_options{}});
  d.run_until(sim::seconds(20.0));
  const double avg =
      average_receiver_kbps(s, sim::seconds(5.0), sim::seconds(20.0));
  const double r0 =
      s.receiver(0).monitor().average_kbps(sim::seconds(5.0), sim::seconds(20.0));
  const double r1 =
      s.receiver(1).monitor().average_kbps(sim::seconds(5.0), sim::seconds(20.0));
  EXPECT_NEAR(avg, (r0 + r1) / 2.0, 1e-9);
}

TEST(scenario, seeds_change_outcomes_deterministically) {
  const auto run_once = [](std::uint64_t seed) {
    dumbbell_config cfg;
    cfg.bottleneck_bps = 500e3;
    cfg.seed = seed;
    testbed d(dumbbell(cfg));
    auto& s = d.add_flid_session(flid_mode::dl, {receiver_options{}});
    d.add_tcp_flow();
    d.run_until(sim::seconds(30.0));
    return s.receiver().monitor().total_bytes();
  };
  // Same seed -> identical simulation; different seed -> different run.
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(scenario, access_aqm_selects_edge_queue_discipline) {
  // Scenario configs historically applied AQM only to backbone links —
  // access links were silently always drop-tail. access_aqm makes the edge
  // queue selectable per testbed.
  dumbbell_config cfg;
  cfg.access_aqm.discipline = sim::qdisc::red;
  testbed d(dumbbell(cfg));
  const sim::node_id h = d.attach_host("probe", "r");
  d.add_flid_session(flid_mode::dl, {receiver_options{}});
  d.run_until(sim::milliseconds(1));  // finalizes routing
  sim::link* access = d.net().next_hop(h, d.router("r"));
  ASSERT_NE(access, nullptr);
  EXPECT_EQ(access->config().aqm.discipline, sim::qdisc::red);
  // An unset access AQM seed inherited the testbed seed (then mixed with
  // the per-link counter by network::connect), so RED draws are seeded.
  EXPECT_NE(access->config().aqm.seed, 0u);
  // The backbone keeps its own (default drop-tail) discipline.
  EXPECT_EQ(d.bottleneck()->config().aqm.discipline, sim::qdisc::droptail);
}

TEST(scenario, access_links_default_to_droptail) {
  dumbbell_config cfg;
  cfg.aqm.discipline = sim::qdisc::codel;  // backbone only
  testbed d(dumbbell(cfg));
  const sim::node_id h = d.attach_host("probe", "r");
  d.add_flid_session(flid_mode::dl, {receiver_options{}});
  d.run_until(sim::milliseconds(1));
  sim::link* access = d.net().next_hop(h, d.router("r"));
  ASSERT_NE(access, nullptr);
  EXPECT_EQ(access->config().aqm.discipline, sim::qdisc::droptail);
  EXPECT_EQ(d.bottleneck()->config().aqm.discipline, sim::qdisc::codel);
}

TEST(scenario, interface_keying_threads_from_config_to_every_edge) {
  // Off by default; when a scenario config switches it on, every edge agent
  // the testbed creates validates interface-perturbed keys, and the
  // receiver strategies compiled for that testbed submit them — an honest
  // DS session must climb exactly as without the countermeasure.
  EXPECT_FALSE(dumbbell_config{}.interface_keying);
  EXPECT_FALSE(parking_lot_config{}.interface_keying);
  EXPECT_FALSE(star_config{}.interface_keying);
  EXPECT_FALSE(tree_config{}.interface_keying);
  EXPECT_FALSE(testbed_config{}.interface_keying);

  dumbbell_config cfg;
  cfg.bottleneck_bps = 10e6;
  cfg.interface_keying = true;
  testbed d(dumbbell(cfg));
  EXPECT_TRUE(d.config().interface_keying);
  auto& s = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.run_until(sim::seconds(60.0));
  EXPECT_TRUE(d.sigma().interface_keying());
  EXPECT_TRUE(d.sigma("l").interface_keying());  // sender edge too
  EXPECT_GT(d.sigma().stats().valid_keys, 0u);
  EXPECT_EQ(d.sigma().stats().invalid_keys, 0u);
  EXPECT_GE(s.receiver().level(), 5);
}

// Non-default values for every world_options field, set by name: a field
// named_scenario fails to carry shows up as a mismatch against the hand-built
// config.
void fill_world(world_options& w) {
  w.access_bps = 5e6;
  w.access_delay = sim::milliseconds(7);
  w.buffer_bdp = 1.5;
  w.base_rtt = sim::milliseconds(60);
  w.access_aqm.discipline = sim::qdisc::codel;
  w.interface_keying = true;
  w.probation_memory_slots = 6;
  w.cm = true;
  w.cm_params.max_entries = 16;
  w.seed = 99;
}

TEST(scenario, named_scenario_matches_the_hand_built_configs) {
  const double path_bps = 2e6;
  sim::aqm_config aqm;
  aqm.discipline = sim::qdisc::red;  // seed unset: inherits the world seed
  world_options world;
  fill_world(world);

  dumbbell_config db;
  fill_world(db);
  db.bottleneck_bps = path_bps;
  db.aqm = aqm;
  parking_lot_config pl;
  fill_world(pl);
  pl.bottlenecks = 2;
  pl.bottleneck_bps = path_bps;
  pl.aqm = aqm;
  star_config st;
  fill_world(st);
  st.spokes = 4;
  st.spoke_bps = path_bps;
  st.aqm = aqm;
  tree_config tr;
  fill_world(tr);
  tr.depth = 2;
  tr.fanout = 2;
  tr.edge_bps = path_bps;
  tr.aqm = aqm;
  const std::vector<std::pair<std::string, testbed_config>> shapes = {
      {"dumbbell", dumbbell(db)},
      {"parking_lot", parking_lot(pl)},
      {"star", star(st)},
      {"tree", balanced_tree(tr)}};

  for (const auto& [name, hand_cfg] : shapes) {
    SCOPED_TRACE(name);
    testbed named(named_scenario(name, path_bps, aqm, world));
    testbed hand(hand_cfg);
    // Links derive per-link AQM streams from the configured seed, so an
    // inherited seed shows as the same streams as an explicit world seed.
    sim::aqm_config pinned_aqm = aqm;
    pinned_aqm.seed = world.seed;
    testbed pinned(named_scenario(name, path_bps, pinned_aqm, world));
    ASSERT_GT(named.topo().backbone_count(), 0);
    ASSERT_EQ(named.topo().backbone_count(), hand.topo().backbone_count());
    for (int i = 0; i < named.topo().backbone_count(); ++i) {
      const sim::link_config& n = named.bottleneck(i)->config();
      const sim::link_config& h = hand.bottleneck(i)->config();
      EXPECT_DOUBLE_EQ(n.bps, h.bps);
      EXPECT_EQ(n.delay, h.delay);
      EXPECT_EQ(n.queue_capacity_bytes, h.queue_capacity_bytes);
      EXPECT_EQ(n.aqm.discipline, h.aqm.discipline);
      EXPECT_EQ(n.aqm.seed, pinned.bottleneck(i)->config().aqm.seed);
      EXPECT_EQ(n.aqm.seed, h.aqm.seed);
    }
    const testbed_config& n = named.config();
    const testbed_config& h = hand.config();
    EXPECT_EQ(n.sender_site, h.sender_site);
    EXPECT_EQ(n.receiver_site, h.receiver_site);
    EXPECT_DOUBLE_EQ(n.access_bps, h.access_bps);
    EXPECT_EQ(n.access_delay, h.access_delay);
    EXPECT_DOUBLE_EQ(n.buffer_bdp, h.buffer_bdp);
    EXPECT_EQ(n.base_rtt, h.base_rtt);
    EXPECT_EQ(n.access_aqm.discipline, h.access_aqm.discipline);
    EXPECT_EQ(n.interface_keying, h.interface_keying);
    EXPECT_EQ(n.probation_memory_slots, h.probation_memory_slots);
    EXPECT_EQ(n.cm, h.cm);
    EXPECT_EQ(n.cm_params.max_entries, h.cm_params.max_entries);
    EXPECT_EQ(n.seed, h.seed);
  }
  EXPECT_THROW((void)named_scenario("ring", path_bps, aqm, world),
               util::invariant_error);
}

/// Parses `args` into a flag set carrying the three countermeasure switches.
util::flag_set countermeasure_flags(std::vector<const char*> args) {
  util::flag_set flags;
  add_interface_keying_flag(flags);
  add_cm_flags(flags);
  add_probation_memory_flag(flags);
  args.insert(args.begin(), "prog");
  EXPECT_TRUE(flags.parse(static_cast<int>(args.size()), args.data()));
  return flags;
}

TEST(scenario_flags, countermeasure_axes_decode_off_first) {
  const util::flag_set defaults = countermeasure_flags({});
  EXPECT_EQ(interface_keying_axis_from_flags(defaults),
            std::vector<bool>{false});
  EXPECT_EQ(cm_axis_from_flags(defaults), std::vector<bool>{false});
  EXPECT_EQ(probation_memory_axis_from_flags(defaults), std::vector<int>{0});

  const util::flag_set on = countermeasure_flags(
      {"--interface-keying=on", "--cm=on", "--probation-memory=on"});
  EXPECT_EQ(interface_keying_axis_from_flags(on), std::vector<bool>{true});
  EXPECT_EQ(cm_axis_from_flags(on), std::vector<bool>{true});
  EXPECT_EQ(probation_memory_axis_from_flags(on), std::vector<int>{8});

  const util::flag_set both = countermeasure_flags(
      {"--interface-keying=both", "--cm=both", "--probation-memory=both",
       "--probation-memory-slots=12"});
  EXPECT_EQ(interface_keying_axis_from_flags(both),
            (std::vector<bool>{false, true}));
  EXPECT_EQ(cm_axis_from_flags(both), (std::vector<bool>{false, true}));
  EXPECT_EQ(probation_memory_axis_from_flags(both),
            (std::vector<int>{0, 12}));
}

TEST(scenario_flags, out_of_range_counts_exit_with_a_flag_message) {
  const util::flag_set no_slots =
      countermeasure_flags({"--probation-memory-slots=0"});
  EXPECT_EXIT((void)probation_memory_axis_from_flags(no_slots),
              ::testing::ExitedWithCode(1),
              "bad value for --probation-memory-slots: '0'");
  const util::flag_set no_entries = countermeasure_flags({"--cm-entries=0"});
  EXPECT_EXIT((void)cm_config_from_flags(no_entries),
              ::testing::ExitedWithCode(1), "bad value for --cm-entries: '0'");
}

TEST(scenario, negative_access_delay_is_rejected_loudly) {
  // The old API used -1 as a "use the default" sentinel on access_delay; a
  // misconfigured negative delay now fails instead of silently meaning
  // "default".
  dumbbell_config cfg;
  testbed d(dumbbell(cfg));
  receiver_options opt;
  opt.access_delay = sim::milliseconds(-5);
  EXPECT_THROW(d.add_flid_session(flid_mode::dl, {opt}),
               util::invariant_error);
  EXPECT_THROW(d.attach_host("h", "r", 1e6, -1), util::invariant_error);
}

TEST(scenario, bad_session_placement_fails_before_anything_starts) {
  // Placement is validated before the sender attaches: a typo'd site name
  // must not leave a half-built session (started sender, consumed id)
  // behind for callers that catch the error and keep running.
  parking_lot_config cfg;
  testbed d(parking_lot(cfg));
  receiver_options typo;
  typo.at = "r9";
  EXPECT_THROW(d.add_flid_session(flid_mode::ds, {typo}),
               util::invariant_error);
  session_options bad_sender;
  bad_sender.sender_at = "nowhere";
  EXPECT_THROW(
      d.add_flid_session(flid_mode::ds, {receiver_options{}}, bad_sender),
      util::invariant_error);
  EXPECT_EQ(d.next_session_id(), 1);
  const int nodes_before = d.net().node_count();
  // The testbed is still usable: a valid session runs fine afterwards.
  auto& session = d.add_flid_session(flid_mode::ds, {receiver_options{}});
  d.run_until(sim::seconds(20.0));
  EXPECT_GT(d.net().node_count(), nodes_before);
  EXPECT_GT(session.receiver().monitor().total_bytes(), 0);
}

TEST(scenario, receivers_attach_to_named_routers) {
  // A star with receivers on two different spokes: each spoke receiver is
  // limited by its own spoke link, not by the other's.
  star_config cfg;
  cfg.spokes = 3;
  cfg.spoke_bps = 1e6;
  testbed d(star(cfg));
  receiver_options on_s1;
  on_s1.at = "s1";
  receiver_options on_s2;
  on_s2.at = "s2";
  auto& session = d.add_flid_session(flid_mode::dl, {on_s1, on_s2});
  d.run_until(sim::seconds(30.0));
  // Both receivers climb: their spokes are independent 1 Mbps paths.
  const double r0 = session.receiver(0).monitor().average_kbps(
      sim::seconds(10.0), sim::seconds(30.0));
  const double r1 = session.receiver(1).monitor().average_kbps(
      sim::seconds(10.0), sim::seconds(30.0));
  EXPECT_GT(r0, 300.0);
  EXPECT_NEAR(r1, r0, 0.25 * r0);
  // And the unused spoke carried no session traffic.
  EXPECT_EQ(d.topo().between("hub", "s3")->stats().delivered, 0u);
}

TEST(scenario, tree_testbed_runs_a_session_to_a_leaf) {
  tree_config cfg;
  cfg.depth = 2;
  cfg.fanout = 2;
  cfg.edge_bps = 1e6;
  testbed d(balanced_tree(cfg));
  receiver_options left_leaf;   // default receiver site: t2_0
  receiver_options right_leaf;
  right_leaf.at = "t2_3";
  auto& session = d.add_flid_session(flid_mode::ds, {left_leaf, right_leaf});
  d.run_until(sim::seconds(30.0));
  EXPECT_GT(session.receiver(0).monitor().average_kbps(sim::seconds(10.0),
                                                       sim::seconds(30.0)),
            200.0);
  EXPECT_GT(session.receiver(1).monitor().average_kbps(sim::seconds(10.0),
                                                       sim::seconds(30.0)),
            200.0);
  // Each leaf's edge SIGMA agent did its own enforcement.
  EXPECT_GT(d.sigma("t2_0").stats().valid_keys, 0u);
  EXPECT_GT(d.sigma("t2_3").stats().valid_keys, 0u);
}

TEST(scenario, parking_lot_attacker_behind_second_bottleneck_is_contained) {
  // The scenario the dumbbell could not express: a SIGMA-protected session
  // crossing two bottlenecks in series, with the misbehaving receiver behind
  // the second one. Its edge router ("r2") must contain the inflation while
  // an honest receiver of the same session behind the FIRST bottleneck
  // ("r1") keeps its allocation.
  parking_lot_config cfg;
  cfg.bottlenecks = 2;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 9;
  testbed d(parking_lot(cfg));
  receiver_options honest_near;
  honest_near.at = "r1";
  receiver_options attacker_far;
  attacker_far.at = "r2";
  attacker_far.attack = adversary::inflate_once(sim::seconds(30.0));
  auto& session =
      d.add_flid_session(flid_mode::ds, {honest_near, attacker_far});
  flow_options tcp_far;  // competes on both bottlenecks
  auto& t1 = d.add_tcp_flow(tcp_far);
  d.run_until(sim::seconds(90.0));

  const sim::time_ns t0 = sim::seconds(45.0);
  const sim::time_ns te = sim::seconds(90.0);
  const double honest_kbps =
      session.receiver(0).monitor().average_kbps(t0, te);
  const double attacker_kbps =
      session.receiver(1).monitor().average_kbps(t0, te);
  const double tcp_kbps = t1.sink->monitor().average_kbps(t0, te);
  // The attacker's invalid keys landed at its own edge router, not the
  // near one.
  EXPECT_GT(d.sigma("r2").stats().invalid_keys, 0u);
  EXPECT_EQ(d.sigma("r1").stats().invalid_keys, 0u);
  // Containment: no unprotected-style grab of the 1 Mbps bottlenecks.
  EXPECT_LT(attacker_kbps, 750.0);
  EXPECT_GT(honest_kbps, 100.0);
  EXPECT_GT(tcp_kbps, 50.0);
}

// ---------------------------------------------------------------------------
// Cross-session roll-up: per-session columns, Jain fairness, conservation
// ---------------------------------------------------------------------------

TEST(session_rollup_stats, per_session_columns_conserve_delivered_bytes) {
  dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 3;
  testbed d(dumbbell(cfg));
  const auto sessions =
      d.add_session_array(3, flid_mode::ds, {receiver_options{}});
  const sim::time_ns horizon = sim::seconds(30.0);
  d.run_until(horizon);

  const session_rollup r = session_rollup_for(sessions, 0, horizon);
  ASSERT_EQ(r.sessions.size(), 3u);
  EXPECT_EQ(r.sessions[0].name, "session1");
  EXPECT_EQ(r.sessions[1].name, "session2");
  EXPECT_EQ(r.sessions[2].name, "session3");
  // The total is exactly the sum of the per-session columns...
  double column_sum = 0.0;
  for (const auto& c : r.sessions) column_sum += c.rate;
  EXPECT_DOUBLE_EQ(r.total_rate, column_sum);
  // ...each receiver byte lands in exactly one session's column (the rate
  // columns and the byte counters are independent read-outs of the same
  // monitors, so they must reconcile over the full-run window)...
  const double column_bytes =
      r.total_rate * 1e3 / 8.0 * (static_cast<double>(horizon) / 1e9);
  double receiver_bytes = 0.0;
  for (flid_session* s : sessions) {
    for (auto& rcv : s->receivers) {
      receiver_bytes += static_cast<double>(rcv->monitor().total_bytes());
    }
  }
  ASSERT_GT(receiver_bytes, 0.0);
  EXPECT_NEAR(column_bytes / receiver_bytes, 1.0, 0.02);
  // ...and the columns never claim more than the shared link delivered. The
  // link side is larger: it also carries layers a receiver never subscribed
  // to (pruned downstream) and packets still in flight at the horizon.
  const double link_bytes =
      static_cast<double>(d.bottleneck()->stats().bytes_delivered);
  EXPECT_GT(link_bytes, 0.0);
  EXPECT_LE(column_bytes, link_bytes);
  EXPECT_GT(column_bytes / link_bytes, 0.75)
      << "goodput columns should account for most of the link's bytes";
}

TEST(session_rollup_stats, identical_honest_sessions_reach_jain_one) {
  // Exactly equal rates give exactly 1.0 — the index itself is pinned...
  session_sample even;
  even.rate = 250.0;
  const session_rollup unit = roll_up_sessions({even, even, even});
  EXPECT_DOUBLE_EQ(unit.jain, 1.0);

  // ...and end to end, three identical honest sessions on their own star
  // spokes (same ladder, same spoke capacity, no contention between them)
  // converge to equal shares.
  star_config cfg;
  cfg.spokes = 3;
  cfg.seed = 4;
  testbed d(star(cfg));
  std::vector<flid_session*> sessions;
  for (int i = 1; i <= 3; ++i) {
    receiver_options r;
    r.at = "s" + std::to_string(i);
    sessions.push_back(&d.add_flid_session(flid_mode::ds, {r}));
  }
  d.run_until(sim::seconds(40.0));
  // Skip the start-up ramp: fairness is a steady-state claim.
  const session_rollup r =
      session_rollup_for(sessions, sim::seconds(10.0), sim::seconds(40.0));
  EXPECT_NEAR(r.jain, 1.0, 0.01)
      << "identical honest sessions should converge to equal shares";
  for (const auto& c : r.sessions) EXPECT_GT(c.rate, 0.0) << c.name;
}

TEST(session_rollup_stats, three_session_smoke_on_every_topology) {
  const struct {
    const char* name;
    testbed_config config;
  } topos[] = {{"dumbbell", dumbbell({})},
               {"parking_lot", parking_lot({})},
               {"star", star({})},
               {"tree", balanced_tree({})}};
  for (const auto& t : topos) {
    SCOPED_TRACE(t.name);
    testbed d(t.config);
    const auto sessions =
        d.add_session_array(3, flid_mode::ds, {receiver_options{}});
    d.run_until(sim::seconds(20.0));
    const session_rollup r =
        session_rollup_for(sessions, 0, sim::seconds(20.0));
    ASSERT_EQ(r.sessions.size(), 3u);
    EXPECT_GT(r.total_rate, 0.0);
    EXPECT_GT(r.jain, 0.0);
    for (const auto& c : r.sessions) {
      EXPECT_GT(c.rate, 0.0) << c.name;
      EXPECT_FALSE(c.smoothed.empty()) << c.name;
    }
  }
}

TEST(session_rollup_stats, smoothing_state_never_leaks_across_sessions) {
  // Regression: per-session smoothed series must depend only on the
  // session's own samples, never on the order sessions were rolled up in.
  session_sample a;
  a.name = "a";
  a.rate = 100.0;
  a.raw = {{0.0, 100.0}, {1.0, 300.0}, {2.0, 50.0}};
  session_sample b;
  b.name = "b";
  b.rate = 900.0;
  b.raw = {{0.0, 900.0}, {1.0, 900.0}, {2.0, 900.0}};

  const session_rollup ab = roll_up_sessions({a, b});
  const session_rollup ba = roll_up_sessions({b, a});
  ASSERT_EQ(ab.sessions.size(), 2u);
  ASSERT_EQ(ba.sessions.size(), 2u);
  EXPECT_EQ(ab.sessions[0].name, "a");
  EXPECT_EQ(ba.sessions[1].name, "a");
  EXPECT_EQ(ab.sessions[0].smoothed, ba.sessions[1].smoothed)
      << "a's smoothed column changed when b was rolled up first";
  EXPECT_EQ(ab.sessions[1].smoothed, ba.sessions[0].smoothed);
  EXPECT_DOUBLE_EQ(ab.jain, ba.jain);
  EXPECT_DOUBLE_EQ(ab.total_rate, ba.total_rate);
  // And the smoother itself starts fresh per call: first output == first raw.
  ASSERT_FALSE(ab.sessions[0].smoothed.empty());
  EXPECT_DOUBLE_EQ(ab.sessions[0].smoothed.front().second, 100.0);
}

}  // namespace
}  // namespace mcc::exp
