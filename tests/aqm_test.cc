// Conformance suite for the pluggable AQM policies (sim/aqm.h).
//
// The policies are exercised directly — synthetic packets, hand-picked queue
// views and clocks — so every expectation is computable by hand from the
// documented laws: RED's EWMA recursion and count-corrected drop
// probability, the gentle-mode ramp, and CoDel's interval-gated entry plus
// interval/sqrt(count) drop spacing. Link-level integration (policies driving
// a real sim::link) and sweep-level determinism (--jobs 1 == --jobs N) are
// covered at the bottom.
#include "sim/aqm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exp/sweep.h"
#include "exp/testbed.h"
#include "sim/link.h"
#include "test_util.h"

namespace mcc::sim {
namespace {

packet data_packet(int size, bool ecn_capable = false) {
  packet p;
  p.size_bytes = size;
  p.ecn_capable = ecn_capable;
  return p;
}

// ---------------------------------------------------------------------------
// Names and factory
// ---------------------------------------------------------------------------

TEST(aqm, qdisc_names_round_trip) {
  for (qdisc d : {qdisc::droptail, qdisc::ecn_threshold, qdisc::red,
                  qdisc::codel}) {
    const auto back = qdisc_from_name(qdisc_name(d));
    ASSERT_TRUE(back.has_value()) << qdisc_name(d);
    EXPECT_EQ(*back, d);
  }
  EXPECT_FALSE(qdisc_from_name("fq_codel").has_value());
}

TEST(aqm, factory_builds_the_selected_policy) {
  aqm_config cfg;
  for (qdisc d : {qdisc::droptail, qdisc::ecn_threshold, qdisc::red,
                  qdisc::codel}) {
    cfg.discipline = d;
    EXPECT_EQ(make_aqm(cfg, 1e6, 25'000)->kind(), d);
  }
}

// ---------------------------------------------------------------------------
// Per-policy ECN handling
// ---------------------------------------------------------------------------

TEST(aqm, droptail_never_marks_or_drops) {
  droptail_aqm dt;
  const aqm_queue_view nearly_full{24'000, 25'000};
  for (bool capable : {false, true}) {
    EXPECT_EQ(dt.on_arrival(data_packet(1000, capable), nearly_full, 0),
              aqm_decision::pass);
  }
}

TEST(aqm, ecn_threshold_marks_capable_packets_above_threshold_only) {
  // ecn_threshold is degenerate RED since the fold: make_aqm lowers it to
  // min_th == max_th == half the capacity.
  aqm_config cfg;
  cfg.discipline = qdisc::ecn_threshold;
  cfg.ecn_threshold_fraction = 0.5;
  const auto ecn = make_aqm(cfg, 1e6, 25'000);
  EXPECT_EQ(ecn->kind(), qdisc::ecn_threshold);
  const aqm_queue_view below{10'000, 25'000};
  const aqm_queue_view above{20'000, 25'000};
  EXPECT_EQ(ecn->on_arrival(data_packet(1000, true), below, 0),
            aqm_decision::pass);
  EXPECT_EQ(ecn->on_arrival(data_packet(1000, true), above, 0),
            aqm_decision::mark);
  // Non-capable packets pass untouched: threshold ECN never drops early.
  EXPECT_EQ(ecn->on_arrival(data_packet(1000, false), above, 0),
            aqm_decision::pass);
  // The threshold sits exactly at the boundary: at-threshold passes.
  const aqm_queue_view at{12'500, 25'000};
  EXPECT_EQ(ecn->on_arrival(data_packet(1000, true), at, 0),
            aqm_decision::pass);
  const aqm_queue_view just_above{12'501, 25'000};
  EXPECT_EQ(ecn->on_arrival(data_packet(1000, true), just_above, 0),
            aqm_decision::mark);
  // A threshold-mode policy built directly as RED with min == max behaves
  // identically and reports the ecn_threshold kind.
  red_config degenerate;
  degenerate.min_bytes = 12'500;
  degenerate.max_bytes = 12'500;
  degenerate.weight = 1.0;
  red_aqm direct(degenerate, 25'000, 1e6, 1);
  EXPECT_EQ(direct.kind(), qdisc::ecn_threshold);
  EXPECT_EQ(direct.on_arrival(data_packet(1000, true), just_above, 0),
            aqm_decision::mark);
  EXPECT_EQ(direct.on_arrival(data_packet(1000, true), at, 0),
            aqm_decision::pass);
}

// ---------------------------------------------------------------------------
// RED
// ---------------------------------------------------------------------------

red_config instant_red() {
  // weight 1 makes avg == instantaneous queue, so the drop law can be probed
  // at an exact operating point.
  red_config cfg;
  cfg.min_bytes = 2'000;
  cfg.max_bytes = 8'000;
  cfg.max_prob = 0.1;
  cfg.weight = 1.0;
  cfg.gentle = true;
  return cfg;
}

TEST(red, below_min_threshold_never_drops) {
  red_aqm red(instant_red(), 20'000, 1e6, 1);
  const aqm_queue_view calm{1'000, 20'000};
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(red.on_arrival(data_packet(576), calm, i), aqm_decision::pass);
  }
  EXPECT_DOUBLE_EQ(red.smoothed_queue_bytes(), 1'000.0);
}

TEST(red, steady_state_drop_rate_matches_the_count_corrected_law) {
  // avg pinned at 5000: pb = max_p * (5000-2000)/(8000-2000) = 0.05. The
  // count correction makes inter-drop gaps uniform on {1..1/pb}, so the
  // steady-state drop rate is 2*pb/(1+pb) ≈ 0.0952.
  red_aqm red(instant_red(), 20'000, 1e6, 99);
  EXPECT_DOUBLE_EQ(red.base_drop_probability(5'000.0), 0.05);
  const aqm_queue_view busy{5'000, 20'000};
  int drops = 0;
  const int arrivals = 50'000;
  for (int i = 0; i < arrivals; ++i) {
    if (red.on_arrival(data_packet(576), busy, i) == aqm_decision::drop) {
      ++drops;
    }
  }
  const double rate = static_cast<double>(drops) / arrivals;
  const double expect = 2.0 * 0.05 / 1.05;
  EXPECT_NEAR(rate, expect, 0.1 * expect) << "drops " << drops;
}

TEST(red, gentle_mode_ramps_between_max_and_twice_max) {
  // The gentle line: pb = max_p + (1-max_p)*(avg-max)/max over [max, 2*max].
  red_aqm gentle(instant_red(), 20'000, 1e6, 7);
  EXPECT_DOUBLE_EQ(gentle.base_drop_probability(8'800.0),
                   0.1 + 0.9 * 800.0 / 8'000.0);  // = 0.19
  EXPECT_DOUBLE_EQ(gentle.base_drop_probability(12'000.0), 0.55);
  EXPECT_DOUBLE_EQ(gentle.base_drop_probability(16'000.0), 1.0);

  // Empirical rate at avg = 8800 (pb = 0.19): the count correction makes the
  // inter-drop gap G satisfy P(G=k) = pb for k = 1..floor(1/pb) with the
  // remaining mass on floor(1/pb)+1, so
  //   E[G] = pb * (1+2+..+5) + 6 * (1 - 5*pb) = 3.15  ->  rate = 1/3.15.
  const aqm_queue_view hot{8'800, 20'000};
  int drops = 0;
  const int arrivals = 20'000;
  for (int i = 0; i < arrivals; ++i) {
    if (gentle.on_arrival(data_packet(576), hot, i) == aqm_decision::drop) {
      ++drops;
    }
  }
  const double rate = static_cast<double>(drops) / arrivals;
  const double expect = 1.0 / 3.15;
  EXPECT_NEAR(rate, expect, 0.1 * expect) << "drops " << drops;

  // Without gentle mode, avg >= max_th is already the forced region: every
  // packet drops, ECN capability notwithstanding.
  red_config hard = instant_red();
  hard.gentle = false;
  red_aqm strict(hard, 20'000, 1e6, 7);
  EXPECT_DOUBLE_EQ(strict.base_drop_probability(12'000.0), 1.0);
  const aqm_queue_view forced{12'000, 20'000};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(strict.on_arrival(data_packet(576, /*ecn=*/true), forced, i),
              aqm_decision::drop);
  }
}

TEST(red, marks_ecn_capable_packets_instead_of_dropping) {
  red_aqm red(instant_red(), 20'000, 1e6, 3);
  const aqm_queue_view busy{6'000, 20'000};
  int marks = 0;
  for (int i = 0; i < 10'000; ++i) {
    const auto d = red.on_arrival(data_packet(576, /*ecn=*/true), busy, i);
    EXPECT_NE(d, aqm_decision::drop);  // probabilistic region never drops ECT
    if (d == aqm_decision::mark) ++marks;
  }
  EXPECT_GT(marks, 0);
}

TEST(red, ewma_tracks_bursts_with_the_documented_recursion) {
  red_config cfg;
  cfg.min_bytes = 50'000;  // keep the drop law out of the way
  cfg.max_bytes = 60'000;
  cfg.weight = 0.25;
  red_aqm red(cfg, 100'000, 1e6, 5);
  const std::vector<std::int64_t> burst = {0, 4'000, 8'000, 8'000, 2'000, 0};
  double avg = 0.0;
  time_ns now = 0;
  for (std::int64_t q : burst) {
    // First arrival decays over the (empty) initial idle period: avg is 0
    // either way; later arrivals use the EWMA recursion.
    ASSERT_EQ(red.on_arrival(data_packet(576), {q, 100'000}, now),
              aqm_decision::pass);
    if (q == 0 && now == 0) {
      avg = 0.0;
    } else {
      avg = (1.0 - cfg.weight) * avg + cfg.weight * static_cast<double>(q);
    }
    EXPECT_DOUBLE_EQ(red.smoothed_queue_bytes(), avg) << "q " << q;
    now += milliseconds(1);
  }
}

TEST(red, idle_period_decays_the_average) {
  red_config cfg;
  cfg.min_bytes = 50'000;
  cfg.max_bytes = 60'000;
  cfg.weight = 0.1;
  const double bps = 1e6;
  red_aqm red(cfg, 100'000, bps, 5);
  // Build up an average.
  time_ns now = 0;
  double avg = 0.0;
  for (int i = 0; i < 20; ++i) {
    (void)red.on_arrival(data_packet(576), {10'000, 100'000}, now);
    avg = (1.0 - cfg.weight) * avg + cfg.weight * 10'000.0;
    now += milliseconds(1);
  }
  // The queue drains at `now`; the next arrival comes after an idle gap of
  // exactly 10 nominal packet times, so avg decays by (1-w)^10.
  (void)red.on_dequeue(data_packet(576), 0, {0, 100'000}, now);
  const time_ns pkt_time = transmission_time(500, bps);
  const time_ns later = now + 10 * pkt_time;
  (void)red.on_arrival(data_packet(576), {0, 100'000}, later);
  avg *= std::pow(1.0 - cfg.weight, 10.0);
  EXPECT_DOUBLE_EQ(red.smoothed_queue_bytes(), avg);
}

TEST(red, overflow_arrivals_still_update_the_average) {
  // The link's capacity backstop bypasses on_arrival, but the Floyd-Jacobson
  // law updates avg on EVERY arrival: on_overflow must keep the average
  // tracking the full queue so RED does not resume with a stale estimate
  // after a saturating burst.
  red_config cfg;
  cfg.min_bytes = 50'000;
  cfg.max_bytes = 60'000;
  cfg.weight = 0.5;
  red_aqm red(cfg, 100'000, 1e6, 1);
  (void)red.on_arrival(data_packet(576), {8'000, 100'000}, 0);
  EXPECT_DOUBLE_EQ(red.smoothed_queue_bytes(), 4'000.0);
  red.on_overflow(data_packet(576), {99'800, 100'000}, milliseconds(1));
  EXPECT_DOUBLE_EQ(red.smoothed_queue_bytes(), 0.5 * 4'000.0 + 0.5 * 99'800.0);
}

TEST(red, thresholds_derive_from_capacity_when_not_given_in_bytes) {
  red_config cfg;  // byte thresholds unset
  cfg.min_fraction = 0.2;
  cfg.max_fraction = 0.6;
  red_aqm red(cfg, 50'000, 1e6, 1);
  EXPECT_EQ(red.min_threshold_bytes(), 10'000);
  EXPECT_EQ(red.max_threshold_bytes(), 30'000);
}

TEST(red, identical_seeds_replay_identical_decision_sequences) {
  red_aqm a(instant_red(), 20'000, 1e6, 1234);
  red_aqm b(instant_red(), 20'000, 1e6, 1234);
  const aqm_queue_view busy{6'500, 20'000};
  for (int i = 0; i < 5'000; ++i) {
    EXPECT_EQ(a.on_arrival(data_packet(576), busy, i),
              b.on_arrival(data_packet(576), busy, i));
  }
}

// ---------------------------------------------------------------------------
// CoDel
// ---------------------------------------------------------------------------

codel_config fast_codel() {
  codel_config cfg;
  cfg.target = milliseconds(5);
  cfg.interval = milliseconds(100);
  cfg.ecn = false;
  return cfg;
}

TEST(codel, sojourn_below_target_never_drops) {
  codel_aqm codel(fast_codel());
  const aqm_queue_view deep{50'000, 100'000};
  for (int i = 0; i < 1'000; ++i) {
    const time_ns now = milliseconds(i);
    EXPECT_EQ(codel.on_dequeue(data_packet(576), now - milliseconds(2), deep,
                               now),
              aqm_decision::pass);
  }
  EXPECT_FALSE(codel.dropping());
}

TEST(codel, drop_spacing_follows_interval_over_sqrt_count) {
  // Every head packet has a 20 ms sojourn (>> 5 ms target) and the queue is
  // deep, so the policy enters the dropping state one interval after the
  // first above-target observation and then spaces drops by
  // interval/sqrt(count). The expected drop times are hand-computed with the
  // same law the policy documents:
  //   enter at t1 = first tick >= interval        (drop #1, count = 1)
  //   drop_next  = t1 + interval/sqrt(1)
  //   drop #k at the first tick >= drop_next, then count -> k and
  //   drop_next += interval/sqrt(k).
  const codel_config cfg = fast_codel();
  codel_aqm codel(cfg);
  const aqm_queue_view deep{100'000, 200'000};
  const time_ns step = microseconds(100);

  std::vector<time_ns> drops;
  for (time_ns now = 0; now <= milliseconds(700); now += step) {
    const auto d =
        codel.on_dequeue(data_packet(576), now - milliseconds(20), deep, now);
    if (d == aqm_decision::drop) drops.push_back(now);
  }
  ASSERT_GE(drops.size(), 6u);

  // Mirror computation.
  auto law = [&](time_ns t, int count) {
    return t + static_cast<time_ns>(static_cast<double>(cfg.interval) /
                                    std::sqrt(static_cast<double>(count)));
  };
  auto next_tick = [&](time_ns t) { return ((t + step - 1) / step) * step; };
  std::vector<time_ns> expect;
  time_ns t1 = next_tick(cfg.interval);  // first tick with now >= first_above
  expect.push_back(t1);
  int count = 1;
  time_ns drop_next = law(t1, 1);
  while (expect.size() < drops.size()) {
    const time_ns at = next_tick(drop_next);
    expect.push_back(at);
    ++count;
    drop_next = law(drop_next, count);
  }
  EXPECT_EQ(drops, expect);
  EXPECT_EQ(codel.drop_count(), static_cast<int>(drops.size()));
}

TEST(codel, exits_dropping_once_sojourn_recovers) {
  codel_aqm codel(fast_codel());
  const aqm_queue_view deep{100'000, 200'000};
  time_ns now = 0;
  // Force it into the dropping state.
  int drops = 0;
  for (; now <= milliseconds(150); now += milliseconds(1)) {
    if (codel.on_dequeue(data_packet(576), now - milliseconds(20), deep, now) ==
        aqm_decision::drop) {
      ++drops;
    }
  }
  ASSERT_GT(drops, 0);
  ASSERT_TRUE(codel.dropping());
  // One below-target sojourn ends the episode.
  EXPECT_EQ(codel.on_dequeue(data_packet(576), now - milliseconds(1), deep, now),
            aqm_decision::pass);
  EXPECT_FALSE(codel.dropping());
}

TEST(codel, queue_below_one_mtu_suppresses_drops) {
  codel_aqm codel(fast_codel());
  const aqm_queue_view shallow{1'000, 200'000};  // < mtu_bytes
  for (int i = 0; i < 3'000; ++i) {
    const time_ns now = milliseconds(i);
    EXPECT_EQ(codel.on_dequeue(data_packet(576), now - milliseconds(50),
                               shallow, now),
              aqm_decision::pass);
  }
}

TEST(codel, marks_ecn_capable_packets_with_the_same_spacing) {
  codel_config cfg = fast_codel();
  cfg.ecn = true;
  codel_aqm marking(cfg);
  codel_aqm dropping(fast_codel());
  const aqm_queue_view deep{100'000, 200'000};
  for (time_ns now = 0; now <= milliseconds(700); now += microseconds(100)) {
    const auto m = marking.on_dequeue(data_packet(576, /*ecn=*/true),
                                      now - milliseconds(20), deep, now);
    const auto d = dropping.on_dequeue(data_packet(576),
                                       now - milliseconds(20), deep, now);
    // Identical control law; only the action differs.
    EXPECT_EQ(m == aqm_decision::mark, d == aqm_decision::drop);
    EXPECT_NE(m, aqm_decision::drop);
  }
  EXPECT_EQ(marking.drop_count(), dropping.drop_count());
}

// ---------------------------------------------------------------------------
// Link integration: the policies steering a real queue
// ---------------------------------------------------------------------------

using mcc::testing::capture_agent;
using mcc::testing::make_packet;

/// Sink that stamps each delivery with its arrival time.
class stamped_sink : public agent {
 public:
  stamped_sink(network& net, node_id host) : sched_(net.sched()) {
    net.get(host)->add_agent(this);
  }
  bool handle_packet(const packet& p, link*) override {
    const auto* hdr = header_as<cbr_payload>(p);
    deliveries.emplace_back(hdr == nullptr ? -1 : hdr->seq, sched_.now());
    return true;
  }
  std::vector<std::pair<std::int64_t, time_ns>> deliveries;  // (seq, when)

 private:
  scheduler& sched_;
};

struct overloaded_link {
  /// 1 Mbps link fed seq-stamped 576-byte packets at ~1.3 Mbps for
  /// `duration`; attach a sink to host b before running.
  overloaded_link(scheduler& s, const aqm_config& aqm, time_ns duration)
      : net(s) {
    a = net.add_host("a");
    b = net.add_host("b");
    link_config cfg;
    cfg.bps = 1e6;
    cfg.delay = 0;
    cfg.queue_capacity_bytes = 25'000;
    cfg.aqm = aqm;
    auto [f, r] = net.connect(a, b, cfg);
    fwd = f;
    (void)r;
    net.finalize_routing();
    const time_ns gap = nanoseconds(3'544'615);  // 576*8/1.3e6 seconds
    std::int64_t seq = 0;
    for (time_ns t = 0; t < duration; t += gap, ++seq) {
      send_times.push_back(t);
      s.at(t, [this, seq] {
        packet p = make_packet(576, b);
        p.hdr = cbr_payload{1, seq};
        net.get(a)->send(std::move(p));
      });
    }
  }

  /// Mean queueing delay (sojourn before serialization) of packets
  /// delivered in [from, to), in milliseconds.
  [[nodiscard]] double mean_sojourn_ms(const stamped_sink& sink, time_ns from,
                                       time_ns to) const {
    const time_ns tx = transmission_time(576, 1e6);
    double sum = 0.0;
    int n = 0;
    for (const auto& [seq, when] : sink.deliveries) {
      if (when < from || when >= to || seq < 0) continue;
      sum += to_millis(when - tx - send_times[static_cast<std::size_t>(seq)]);
      ++n;
    }
    return n == 0 ? 0.0 : sum / n;
  }

  network net;
  node_id a, b;
  link* fwd;
  std::vector<time_ns> send_times;
};

TEST(aqm_link, red_sheds_early_and_keeps_the_queue_below_droptail) {
  scheduler s_dt;
  aqm_config droptail;
  overloaded_link dt(s_dt, droptail, seconds(20.0));
  capture_agent dt_sink(dt.net, dt.b);
  s_dt.run();

  scheduler s_red;
  aqm_config red;
  red.discipline = qdisc::red;
  red.seed = 11;
  overloaded_link rd(s_red, red, seconds(20.0));
  capture_agent rd_sink(rd.net, rd.b);
  s_red.run();

  // Droptail fills the buffer and tail-drops; RED sheds early instead and
  // holds the average occupancy near its thresholds.
  EXPECT_EQ(dt.fwd->stats().aqm_dropped, 0u);
  EXPECT_GT(dt.fwd->stats().dropped, 0u);
  EXPECT_GT(rd.fwd->stats().aqm_dropped, 0u);
  EXPECT_GE(rd.fwd->stats().dropped, rd.fwd->stats().aqm_dropped);
  const double dt_avg = dt.fwd->time_avg_queued_bytes(s_dt.now());
  const double red_avg = rd.fwd->time_avg_queued_bytes(s_red.now());
  EXPECT_GT(dt_avg, 15'000.0);
  EXPECT_LT(red_avg, 0.8 * dt_avg);
}

TEST(aqm_link, codel_converges_to_the_sojourn_target) {
  scheduler s_dt;
  aqm_config droptail;
  overloaded_link dt(s_dt, droptail, seconds(60.0));
  stamped_sink dt_sink(dt.net, dt.b);
  s_dt.run();

  scheduler s;
  aqm_config codel;
  codel.discipline = qdisc::codel;
  codel.codel.ecn = false;
  overloaded_link cl(s, codel, seconds(60.0));
  stamped_sink cl_sink(cl.net, cl.b);
  s.run();

  // 30% open-loop overload against a 25 KB buffer: droptail converges to a
  // full buffer, ~200 ms of standing queue. CoDel saw-tooths — drain to the
  // target, exit dropping, a 100 ms interval of rebuild, re-enter — so the
  // converged sojourn is a small multiple of the 5 ms target, an order of
  // magnitude under droptail. Measure after a 20 s warmup to exclude the
  // initial interval/sqrt(count) ramp.
  EXPECT_GT(cl.fwd->stats().aqm_dropped, 0u);
  const double dt_late = dt.mean_sojourn_ms(dt_sink, seconds(20.0), seconds(60.0));
  const double cl_late = cl.mean_sojourn_ms(cl_sink, seconds(20.0), seconds(60.0));
  EXPECT_GT(dt_late, 150.0);
  EXPECT_LT(cl_late, 40.0) << "droptail reference " << dt_late;
  EXPECT_LT(cl_late, 0.2 * dt_late);
  EXPECT_LT(cl.fwd->stats().max_queued_bytes, 25'000);
}

// ---------------------------------------------------------------------------
// Sweep determinism: AQM decisions must be jobs-invariant
// ---------------------------------------------------------------------------

exp::sweep_row aqm_sweep_point(const exp::sweep_point& pt, qdisc d) {
  exp::dumbbell_config cfg;
  cfg.bottleneck_bps = 500e3;
  cfg.seed = pt.seed;
  cfg.aqm.discipline = d;
  exp::testbed t(exp::dumbbell(cfg));
  t.add_flid_session(exp::flid_mode::ds, {exp::receiver_options{}});
  traffic::cbr_config cbr;
  cbr.rate_bps = 300e3;
  t.add_cbr(cbr);
  t.run_until(seconds(15.0));
  const link_stats& bn = t.bottleneck()->stats();
  exp::sweep_row row;
  row.value("enqueued", static_cast<double>(bn.enqueued));
  row.value("dropped", static_cast<double>(bn.dropped));
  row.value("aqm_dropped", static_cast<double>(bn.aqm_dropped));
  row.value("ecn_marked", static_cast<double>(bn.ecn_marked));
  row.value("avg_queue", t.bottleneck()->time_avg_queued_bytes(t.sched().now()));
  return row;
}

TEST(aqm_determinism, decisions_are_bit_identical_across_jobs_counts) {
  for (qdisc d : {qdisc::red, qdisc::codel}) {
    exp::sweep_options serial;
    serial.jobs = 1;
    serial.base_seed = 17;
    exp::sweep_options parallel = serial;
    parallel.jobs = 4;
    const std::vector<double> grid = {0, 1, 2, 3};
    const auto fn = [&](const exp::sweep_point& pt) {
      return aqm_sweep_point(pt, d);
    };
    const auto rows1 = exp::run_sweep(grid, serial, fn);
    const auto rowsN = exp::run_sweep(grid, parallel, fn);
    ASSERT_EQ(rows1.size(), rowsN.size());
    for (std::size_t i = 0; i < rows1.size(); ++i) {
      ASSERT_EQ(rows1[i].values.size(), rowsN[i].values.size());
      for (std::size_t v = 0; v < rows1[i].values.size(); ++v) {
        EXPECT_EQ(rows1[i].values[v].first, rowsN[i].values[v].first);
        EXPECT_EQ(rows1[i].values[v].second, rowsN[i].values[v].second)
            << qdisc_name(d) << " point " << i << " "
            << rows1[i].values[v].first;
      }
    }
  }
}

}  // namespace
}  // namespace mcc::sim
