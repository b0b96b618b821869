// Cross-session conformance suite for the shared congestion manager
// (src/cm): the cm-off path must be byte-identical to the legacy engine on
// every checked-in golden digest, cm-on must be provably inert for
// single-session worlds, multi-session worlds may differ ONLY where the cap
// actually bound, and the LRU/aging/EWMA laws of the state table must match
// hand-computed expectations. The sweep integration (mini session farm) must
// stay byte-identical across --jobs 1 / --jobs 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cm/congestion_manager.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "golden_digests.h"

namespace mcc::cm {
namespace {

using mcc::testing::fnv1a;
using mcc::testing::golden;
using mcc::testing::kAdaptivePulseGolden;
using mcc::testing::kPulseAttackGolden;
using mcc::testing::run_adaptive_pulse_digest;
using mcc::testing::run_digest;
using mcc::testing::run_pulse_attack_digest;

// ---------------------------------------------------------------------------
// State-table laws, hand-computed
// ---------------------------------------------------------------------------

path_id path_at(sim::node_id edge, int traffic_class = 0) {
  return path_id{edge, path_direction::downstream, traffic_class};
}

observation obs_at(std::int64_t slot, bool congested, double kbps) {
  observation o;
  o.slot = slot;
  o.congested = congested;
  o.delivered_kbps = kbps;
  return o;
}

TEST(cm_laws, ewma_matches_hand_computation) {
  cm_config cfg;
  cfg.signal_weight = 0.25;
  cfg.rate_weight = 0.5;
  congestion_manager cm(cfg);
  const path_id p = path_at(1);
  // First observation restarts from the sample (the entry starts stale).
  cm.observe(p, obs_at(0, true, 100.0));
  ASSERT_NE(cm.state_of(p), nullptr);
  EXPECT_DOUBLE_EQ(cm.state_of(p)->loss_ewma, 1.0);
  EXPECT_DOUBLE_EQ(cm.state_of(p)->fair_rate_kbps, 100.0);
  // Second: loss = 0.75*1 + 0.25*0, rate = 0.5*100 + 0.5*200.
  cm.observe(p, obs_at(1, false, 200.0));
  EXPECT_DOUBLE_EQ(cm.state_of(p)->loss_ewma, 0.75);
  EXPECT_DOUBLE_EQ(cm.state_of(p)->fair_rate_kbps, 150.0);
  // Third: loss = 0.75*0.75 + 0.25*1 = 0.8125.
  cm.observe(p, obs_at(2, true, 150.0));
  EXPECT_DOUBLE_EQ(cm.state_of(p)->loss_ewma, 0.8125);
  EXPECT_DOUBLE_EQ(cm.state_of(p)->fair_rate_kbps, 150.0);
  EXPECT_EQ(cm.stats().observations, 3u);
  EXPECT_EQ(cm.stats().insertions, 1u);
}

TEST(cm_laws, aging_restarts_the_ewmas_after_an_idle_gap) {
  cm_config cfg;
  cfg.aging_slots = 4;
  congestion_manager cm(cfg);
  const path_id p = path_at(1);
  cm.observe(p, obs_at(0, true, 100.0));
  // Slot 4 is within the window (gap == aging_slots is NOT stale)...
  cm.observe(p, obs_at(4, false, 100.0));
  EXPECT_EQ(cm.stats().aged_resets, 0u);
  EXPECT_DOUBLE_EQ(cm.state_of(p)->loss_ewma, 0.75);
  // ...slot 9 is past it (gap 5 > 4): the EWMAs restart from the sample.
  cm.observe(p, obs_at(9, true, 300.0));
  EXPECT_EQ(cm.stats().aged_resets, 1u);
  EXPECT_DOUBLE_EQ(cm.state_of(p)->loss_ewma, 1.0);
  EXPECT_DOUBLE_EQ(cm.state_of(p)->fair_rate_kbps, 300.0);
}

TEST(cm_laws, lru_evicts_the_least_recently_observed_path) {
  cm_config cfg;
  cfg.max_entries = 2;
  congestion_manager cm(cfg);
  const path_id a = path_at(1);
  const path_id b = path_at(2);
  const path_id c = path_at(3);
  cm.observe(a, obs_at(0, false, 100.0));
  cm.observe(b, obs_at(1, false, 100.0));
  // Touch a so b becomes the LRU entry, then insert c: b must give way.
  cm.observe(a, obs_at(2, false, 100.0));
  cm.observe(c, obs_at(3, false, 100.0));
  EXPECT_EQ(cm.entries(), 2u);
  EXPECT_EQ(cm.stats().evictions, 1u);
  EXPECT_NE(cm.state_of(a), nullptr);
  EXPECT_EQ(cm.state_of(b), nullptr);
  EXPECT_NE(cm.state_of(c), nullptr);
}

TEST(cm_laws, lookups_do_not_promote_lru_recency) {
  // level_cap is read-only on the LRU order: eviction is driven by
  // observations alone, which keeps the eviction law hand-computable.
  cm_config cfg;
  cfg.max_entries = 2;
  congestion_manager cm(cfg);
  const path_id a = path_at(1);
  const path_id b = path_at(2);
  const path_id c = path_at(3);
  cm.register_session(a, 1);
  cm.register_session(a, 2);
  cm.observe(a, obs_at(0, true, 100.0));
  cm.observe(b, obs_at(1, false, 100.0));
  const std::vector<double> cum = {100.0, 150.0};
  // Looking a up does NOT move it to the front...
  (void)cm.level_cap(a, 1, cum);
  // ...so inserting c evicts a, the least recently observed.
  cm.observe(c, obs_at(2, false, 100.0));
  EXPECT_EQ(cm.state_of(a), nullptr);
  EXPECT_NE(cm.state_of(b), nullptr);
}

TEST(cm_laws, level_cap_matches_the_severity_scaled_budget) {
  cm_config cfg;
  cfg.signal_weight = 1.0;  // EWMAs copy the latest sample: exact control
  cfg.rate_weight = 1.0;
  cfg.congestion_threshold = 0.25;
  cfg.headroom = 1.3;
  congestion_manager cm(cfg);
  const path_id p = path_at(1);
  cm.register_session(p, 1);
  cm.register_session(p, 2);
  // Levels at 100 * 1.5^(l-1) Kbps cumulative.
  const std::vector<double> cum = {100.0, 150.0, 225.0, 337.5};
  // Uncongested: severity 0 <= threshold, no cap.
  cm.observe(p, obs_at(0, false, 150.0));
  EXPECT_EQ(cm.level_cap(p, 0, cum), 4);
  EXPECT_EQ(cm.stats().capped_lookups, 0u);
  // Congested at fair rate 150: severity 1.0, budget = 150 * max(0.5,
  // 1.3 - 1.0) = 75 -> below cum[0], and the cap clamps at level 1.
  cm.observe(p, obs_at(1, true, 150.0));
  EXPECT_EQ(cm.level_cap(p, 1, cum), 1);
  EXPECT_EQ(cm.stats().capped_lookups, 1u);
  // Mild severity just over the threshold: with signal_weight 1 the EWMA is
  // all-or-nothing, so rebuild at 0.5 weight for a fractional severity.
  cm_config half = cfg;
  half.signal_weight = 0.5;
  congestion_manager cm2(half);
  cm2.register_session(p, 1);
  cm2.register_session(p, 2);
  cm2.observe(p, obs_at(0, true, 150.0));   // loss_ewma 1.0
  cm2.observe(p, obs_at(1, false, 150.0));  // loss_ewma 0.5
  // budget = 150 * (1.3 - 0.5) = 120 -> cap 1 (cum[1] = 150 > 120).
  EXPECT_EQ(cm2.level_cap(p, 1, cum), 1);
  cm2.observe(p, obs_at(2, false, 150.0));  // loss_ewma 0.25 <= threshold
  EXPECT_EQ(cm2.level_cap(p, 2, cum), 4);
}

TEST(cm_laws, cap_never_binds_for_a_single_session) {
  congestion_manager cm;
  const path_id p = path_at(1);
  cm.register_session(p, 7);
  cm.register_session(p, 7);  // second receiver of the SAME session
  const std::vector<double> cum = {100.0, 150.0};
  cm.observe(p, obs_at(0, true, 100.0));
  cm.observe(p, obs_at(1, true, 100.0));
  EXPECT_EQ(cm.sessions_at(p), 1);
  EXPECT_EQ(cm.level_cap(p, 1, cum), 2) << "one session is entitled to probe";
  EXPECT_EQ(cm.stats().capped_lookups, 0u);
  // A second distinct session arms the cap at the same state.
  cm.register_session(p, 8);
  EXPECT_EQ(cm.sessions_at(p), 2);
  EXPECT_EQ(cm.level_cap(p, 1, cum), 1);
}

TEST(cm_laws, stale_entries_do_not_cap) {
  cm_config cfg;
  cfg.aging_slots = 2;
  congestion_manager cm(cfg);
  const path_id p = path_at(1);
  cm.register_session(p, 1);
  cm.register_session(p, 2);
  const std::vector<double> cum = {100.0, 150.0};
  cm.observe(p, obs_at(0, true, 100.0));
  EXPECT_EQ(cm.level_cap(p, 1, cum), 1);
  EXPECT_EQ(cm.level_cap(p, 5, cum), 2) << "slot 5 is past the aging window";
  EXPECT_EQ(cm.stats().stale_lookups, 1u);
}

TEST(cm_laws, aggregated_key_collides_same_edge_same_class) {
  // Two sessions behind the same edge and class share ONE entry; a distinct
  // traffic class is a distinct path.
  congestion_manager cm;
  const path_id shared = path_at(4, 0);
  cm.register_session(shared, 1);
  cm.register_session(shared, 2);
  cm.observe(shared, obs_at(0, false, 100.0));  // session 1's receiver
  cm.observe(shared, obs_at(0, false, 200.0));  // session 2's receiver
  EXPECT_EQ(cm.entries(), 1u);
  EXPECT_EQ(cm.registered_paths(), 1u);
  EXPECT_EQ(cm.registered_sessions(), 2u);
  cm.observe(path_at(4, 1), obs_at(0, false, 100.0));
  EXPECT_EQ(cm.entries(), 2u);
  // Unregistering one receiver of each session empties the path.
  cm.unregister_session(shared, 1);
  cm.unregister_session(shared, 2);
  EXPECT_EQ(cm.sessions_at(shared), 0);
}

// ---------------------------------------------------------------------------
// Golden-digest conformance: cm off == legacy, byte for byte
// ---------------------------------------------------------------------------

TEST(cm_conformance, all_four_qdisc_digests_unchanged_with_cm_compiled_in) {
  for (const sim::qdisc d : {sim::qdisc::droptail, sim::qdisc::ecn_threshold,
                             sim::qdisc::red, sim::qdisc::codel}) {
    EXPECT_EQ(run_digest(d), golden(d)) << sim::qdisc_name(d);
  }
}

TEST(cm_conformance, attack_timeline_digests_unchanged_with_cm_off) {
  // Explicitly pass the cm-off tweak: this is the "cm off reproduces legacy
  // byte-identically" contract, not just a default-value accident.
  const auto cm_off = [](exp::dumbbell_config& cfg) { cfg.cm = false; };
  EXPECT_EQ(run_pulse_attack_digest(cm_off), kPulseAttackGolden);
  EXPECT_EQ(run_adaptive_pulse_digest(cm_off), kAdaptivePulseGolden);
}

TEST(cm_conformance, never_binding_cap_is_byte_identical_even_when_on) {
  // cm ON, but with a threshold the loss EWMA can never exceed: zero
  // bindings ⇒ the whole attack timeline must still match the checked-in
  // digest bit for bit. This is the "differs ONLY where the cap binds"
  // contract's easy direction.
  const auto cm_inert = [](exp::dumbbell_config& cfg) {
    cfg.cm = true;
    cfg.cm_params.congestion_threshold = 1.0;  // severity is at most 1.0
  };
  EXPECT_EQ(run_pulse_attack_digest(cm_inert), kPulseAttackGolden);
  EXPECT_EQ(run_adaptive_pulse_digest(cm_inert), kAdaptivePulseGolden);
}

/// Digest of a small multi-session honest world: every receiver's byte/slot
/// counters and full level history, plus the bottleneck counters.
std::string run_farm_digest(bool cm, int sessions,
                            double congestion_threshold = 0.25) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 9;
  cfg.cm = cm;
  cfg.cm_params.congestion_threshold = congestion_threshold;
  exp::testbed d(exp::dumbbell(cfg));
  const auto added =
      d.add_session_array(sessions, exp::flid_mode::ds,
                          {exp::receiver_options{}});
  d.run_until(sim::seconds(40.0));
  fnv1a digest;
  for (exp::flid_session* s : added) {
    flid::flid_receiver& r = s->receiver(0);
    digest.fold(static_cast<std::uint64_t>(r.monitor().total_bytes()));
    digest.fold(r.stats().packets);
    digest.fold(r.stats().slots_congested);
    for (const auto& [t, lvl] : r.level_history()) {
      digest.fold(static_cast<std::uint64_t>(t));
      digest.fold(static_cast<std::uint64_t>(lvl));
    }
  }
  const sim::link_stats& bn = d.bottleneck()->stats();
  digest.fold(bn.enqueued);
  digest.fold(bn.dropped);
  digest.fold(bn.delivered);
  return digest.hex();
}

std::uint64_t farm_bindings(int sessions, double congestion_threshold) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 9;
  cfg.cm = true;
  cfg.cm_params.congestion_threshold = congestion_threshold;
  exp::testbed d(exp::dumbbell(cfg));
  const auto added =
      d.add_session_array(sessions, exp::flid_mode::ds,
                          {exp::receiver_options{}});
  d.run_until(sim::seconds(40.0));
  std::uint64_t bindings = 0;
  for (exp::flid_session* s : added) {
    bindings += s->receiver(0).stats().cm_bindings;
  }
  return bindings;
}

TEST(cm_conformance, single_session_world_is_byte_identical_with_cm_on) {
  // One session, even with cm on and an aggressive threshold: sessions_at
  // stays 1, the cap never binds, and the run is bit-identical to cm off.
  EXPECT_EQ(run_farm_digest(true, 1, 0.0), run_farm_digest(false, 1));
  EXPECT_EQ(farm_bindings(1, 0.0), 0u);
}

TEST(cm_conformance, multi_session_world_differs_only_where_the_cap_binds) {
  // Same world, threshold 1.0: zero bindings, equal digests.
  EXPECT_EQ(farm_bindings(3, 1.0), 0u);
  EXPECT_EQ(run_farm_digest(true, 3, 1.0), run_farm_digest(false, 3));
  // Threshold 0.0: every congestion flicker binds the cap — the digest MUST
  // move, and the bindings counter proves the cap (and nothing else) is
  // what moved it.
  EXPECT_GT(farm_bindings(3, 0.0), 0u);
  EXPECT_NE(run_farm_digest(true, 3, 0.0), run_farm_digest(false, 3));
}

TEST(cm_conformance, shared_manager_state_reflects_the_farm) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 1e6;
  cfg.seed = 9;
  cfg.cm = true;
  exp::testbed d(exp::dumbbell(cfg));
  d.add_session_array(3, exp::flid_mode::ds, {exp::receiver_options{}});
  d.run_until(sim::seconds(20.0));
  congestion_manager* cm = d.shared_cm();
  ASSERT_NE(cm, nullptr);
  // Three sessions, one default receiver site: one aggregated path.
  EXPECT_EQ(cm->registered_paths(), 1u);
  EXPECT_EQ(cm->registered_sessions(), 3u);
  EXPECT_EQ(cm->entries(), 1u);
  EXPECT_GT(cm->stats().observations, 0u);
  EXPECT_GT(cm->stats().lookups, 0u);
  EXPECT_EQ(cm->stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Sweep integration: mini session-farm rows are worker-configuration
// invariant, byte for byte
// ---------------------------------------------------------------------------

std::string farm_sweep_json(const exp::sweep_options& opts) {
  const std::vector<double> xs = {2.0, 3.0};
  const auto rows = exp::run_sweep(xs, opts, [](const exp::sweep_point& pt) {
    exp::dumbbell_config cfg;
    cfg.seed = pt.seed;
    cfg.cm = true;
    exp::testbed d(exp::dumbbell(cfg));
    const auto added = d.add_session_array(static_cast<int>(pt.x),
                                           exp::flid_mode::ds,
                                           {exp::receiver_options{}});
    d.run_until(sim::seconds(10.0));
    exp::sweep_row row;
    row.label = "farm/n" + std::to_string(static_cast<int>(pt.x));
    double kbps = 0.0;
    for (exp::flid_session* s : added) {
      kbps += s->receiver(0).monitor().average_kbps(0, sim::seconds(10.0));
    }
    row.value("honest_kbps", kbps);
    row.metrics = d.metrics().snapshot();
    return row;
  });
  std::ostringstream os;
  exp::write_json(os, "cm_farm", rows);
  return os.str();
}

TEST(cm_sweep, session_farm_rows_are_jobs_invariant) {
  exp::sweep_options serial;
  serial.jobs = 1;
  serial.base_seed = 21;
  exp::sweep_options threaded;
  threaded.jobs = 4;
  threaded.base_seed = 21;
  const std::string reference = farm_sweep_json(serial);
  EXPECT_EQ(reference, farm_sweep_json(threaded));
}

}  // namespace
}  // namespace mcc::cm
