#include "sim/link.h"

#include <gtest/gtest.h>

#include <memory>

#include "test_util.h"

namespace mcc::sim {
namespace {

using mcc::testing::capture_agent;
using mcc::testing::make_packet;

struct two_hosts {
  explicit two_hosts(scheduler& s, const link_config& cfg) : net(s) {
    a = net.add_host("a");
    b = net.add_host("b");
    auto [f, r] = net.connect(a, b, cfg);
    fwd = f;
    rev = r;
    net.finalize_routing();
  }
  network net;
  node_id a, b;
  link* fwd;
  link* rev;
};

TEST(link, delivers_after_serialization_plus_propagation) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.delay = milliseconds(20);
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);

  t.net.get(t.a)->send(make_packet(1000, t.b));  // 8 ms serialization
  s.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(s.now(), milliseconds(28));
}

TEST(link, serializes_back_to_back_packets) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.delay = 0;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);

  for (int i = 0; i < 3; ++i) t.net.get(t.a)->send(make_packet(1000, t.b));
  s.run();
  ASSERT_EQ(sink.packets.size(), 3u);
  // Three 8 ms transmissions in series.
  EXPECT_EQ(s.now(), milliseconds(24));
}

TEST(link, drops_when_queue_full) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 2500;  // fits two 1000-byte packets + in-flight
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);

  // First packet starts transmitting immediately (leaves the queue); the
  // queue then holds two more; the rest drop.
  for (int i = 0; i < 6; ++i) t.net.get(t.a)->send(make_packet(1000, t.b));
  s.run();
  EXPECT_EQ(t.fwd->stats().dropped, 3u);
  EXPECT_EQ(sink.packets.size(), 3u);
}

TEST(link, counts_dropped_bytes_and_queue_high_watermark) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 2500;  // fits two 1000-byte packets + in-flight
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);

  // First packet starts serializing immediately; two queue; three drop.
  for (int i = 0; i < 6; ++i) t.net.get(t.a)->send(make_packet(1000, t.b));
  EXPECT_EQ(t.fwd->stats().dropped, 3u);
  EXPECT_EQ(t.fwd->stats().bytes_dropped, 3000);
  // Peak occupancy: two 1000-byte packets waiting behind the in-flight one.
  EXPECT_EQ(t.fwd->stats().max_queued_bytes, 2000);
  s.run();
  // Draining the queue does not lower the recorded high-watermark.
  EXPECT_EQ(t.fwd->queued_bytes(), 0);
  EXPECT_EQ(t.fwd->stats().max_queued_bytes, 2000);
  EXPECT_EQ(sink.packets.size(), 3u);
}

TEST(link, undropped_traffic_reports_zero_dropped_bytes) {
  scheduler s;
  link_config cfg;
  cfg.bps = 10e6;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 4; ++i) t.net.get(t.a)->send(make_packet(500, t.b));
  s.run();
  EXPECT_EQ(t.fwd->stats().dropped, 0u);
  EXPECT_EQ(t.fwd->stats().bytes_dropped, 0);
  EXPECT_GT(t.fwd->stats().max_queued_bytes, 0);
}

TEST(link, counts_delivered_bytes) {
  scheduler s;
  link_config cfg;
  cfg.bps = 10e6;
  cfg.delay = milliseconds(1);
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 4; ++i) t.net.get(t.a)->send(make_packet(500, t.b));
  s.run();
  EXPECT_EQ(t.fwd->stats().delivered, 4u);
  EXPECT_EQ(t.fwd->stats().bytes_delivered, 2000);
  EXPECT_EQ(t.fwd->stats().enqueued, 4u);
}

TEST(link, preserves_fifo_order) {
  scheduler s;
  link_config cfg;
  cfg.bps = 5e6;
  cfg.delay = milliseconds(2);
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 10; ++i) {
    packet p = make_packet(600, t.b);
    p.hdr = cbr_payload{1, i};
    t.net.get(t.a)->send(std::move(p));
  }
  s.run();
  ASSERT_EQ(sink.packets.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(header_as<cbr_payload>(sink.packets[static_cast<std::size_t>(i)])
                  ->seq,
              i);
  }
}

TEST(link, ecn_threshold_marks_capable_packets_only) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e5;  // slow so the queue builds
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 10'000;
  cfg.aqm.discipline = qdisc::ecn_threshold;
  cfg.aqm.ecn_threshold_fraction = 0.3;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);

  for (int i = 0; i < 12; ++i) {
    packet p = make_packet(1000, t.b);
    p.ecn_capable = (i % 2 == 0);
    t.net.get(t.a)->send(std::move(p));
  }
  s.run();
  EXPECT_GT(t.fwd->stats().ecn_marked, 0u);
  int marked = 0;
  for (const auto& p : sink.packets) {
    if (p.ecn_marked) {
      ++marked;
      EXPECT_TRUE(p.ecn_capable);
    }
  }
  EXPECT_EQ(static_cast<std::uint64_t>(marked), t.fwd->stats().ecn_marked);
}

TEST(link, droptail_never_marks) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e5;
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 10'000;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 12; ++i) {
    packet p = make_packet(1000, t.b);
    p.ecn_capable = true;
    t.net.get(t.a)->send(std::move(p));
  }
  s.run();
  EXPECT_EQ(t.fwd->stats().ecn_marked, 0u);
}

TEST(link, default_queue_capacity_is_positive) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.queue_capacity_bytes = 0;  // ask for the default
  two_hosts t(s, cfg);
  EXPECT_GT(t.fwd->config().queue_capacity_bytes, 0);
}

TEST(link, auto_sized_queue_is_exactly_two_bdp_at_100ms) {
  // AQM threshold defaults derive from the capacity, so the 2-BDP auto-size
  // is a contract: 2 * bps * 100 ms / 8 bytes. Pin it at several rates.
  scheduler s;
  const struct {
    double bps;
    std::int64_t expect_bytes;
  } cases[] = {{1e6, 25'000}, {10e6, 250'000}, {500e3, 12'500}};
  for (const auto& c : cases) {
    link_config cfg;
    cfg.bps = c.bps;
    cfg.queue_capacity_bytes = 0;
    two_hosts t(s, cfg);
    EXPECT_EQ(t.fwd->config().queue_capacity_bytes, c.expect_bytes) << c.bps;
  }
}

TEST(link, red_thresholds_derive_from_the_auto_sized_capacity) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;
  cfg.queue_capacity_bytes = 0;  // 2-BDP default: 25000 bytes
  cfg.aqm.discipline = qdisc::red;
  two_hosts t(s, cfg);
  const auto& red = dynamic_cast<const red_aqm&>(t.fwd->aqm());
  EXPECT_EQ(red.min_threshold_bytes(),
            static_cast<std::int64_t>(0.15 * 25'000));
  EXPECT_EQ(red.max_threshold_bytes(),
            static_cast<std::int64_t>(0.5 * 25'000));
}

TEST(link, red_splits_early_drops_out_of_total_drops) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e5;  // slow, so a burst overwhelms it
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 10'000;
  cfg.aqm.discipline = qdisc::red;
  cfg.aqm.red.weight = 0.25;  // react within one burst
  cfg.aqm.seed = 5;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 60; ++i) t.net.get(t.a)->send(make_packet(1000, t.b));
  s.run();
  const link_stats& st = t.fwd->stats();
  EXPECT_GT(st.aqm_dropped, 0u);
  EXPECT_GE(st.dropped, st.aqm_dropped);
  EXPECT_EQ(st.dropped - st.aqm_dropped,
            60u - st.enqueued - st.aqm_dropped);  // remainder is tail overflow
  EXPECT_EQ(sink.packets.size(), st.enqueued);
}

TEST(link, codel_drops_at_dequeue_and_preserves_order) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e5;
  cfg.delay = 0;
  cfg.queue_capacity_bytes = 50'000;
  cfg.aqm.discipline = qdisc::codel;
  cfg.aqm.codel.ecn = false;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  // 2x overload for four seconds: sojourn times blow through the target.
  for (int i = 0; i < 100; ++i) {
    packet p = make_packet(1000, t.b);
    p.hdr = cbr_payload{1, i};
    const time_ns at = milliseconds(40) * i;
    s.at(at, [&t, p = std::move(p)]() mutable {
      t.net.get(t.a)->send(std::move(p));
    });
  }
  s.run();
  const link_stats& st = t.fwd->stats();
  EXPECT_GT(st.aqm_dropped, 0u);
  EXPECT_EQ(st.dropped, st.aqm_dropped);  // buffer never physically filled
  // Survivors arrive in order.
  std::int64_t prev = -1;
  for (const auto& p : sink.packets) {
    const auto* hdr = header_as<cbr_payload>(p);
    ASSERT_NE(hdr, nullptr);
    EXPECT_GT(hdr->seq, prev);
    prev = hdr->seq;
  }
  // delivered counts serialized packets; drops happened before serialization.
  EXPECT_EQ(sink.packets.size(), st.delivered);
}

TEST(link, ring_queue_wraps_and_grows_under_codel_head_drops) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e5;  // 80 ms per 1000-byte packet
  cfg.delay = milliseconds(30);
  cfg.queue_capacity_bytes = 60'000;
  cfg.aqm.discipline = qdisc::codel;
  cfg.aqm.codel.ecn = false;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  // Bursts of twenty every 1.5 s (1.07x the line rate): each burst grows
  // the ring past its initial capacity, the head moves on between bursts so
  // later bursts wrap around the ring, and CoDel drops at the head as the
  // sojourn time builds.
  constexpr int kBursts = 12;
  constexpr int kBurst = 20;
  std::int64_t seq = 0;
  for (int b = 0; b < kBursts; ++b) {
    s.at(milliseconds(1500) * b, [&t, &seq] {
      for (int k = 0; k < kBurst; ++k) {
        packet p = make_packet(1000, t.b);
        p.hdr = cbr_payload{1, seq++};
        t.net.get(t.a)->send(std::move(p));
      }
    });
  }
  // Every packet taken in is serialized, dropped by CoDel at the head, or
  // still waiting; the one being serialized has left queued_bytes().
  int samples = 0;
  for (int k = 1; k < 400; ++k) {
    s.at(milliseconds(47) * k, [&t, &samples] {
      const link_stats& st = t.fwd->stats();
      const std::uint64_t waiting =
          static_cast<std::uint64_t>(t.fwd->queued_bytes() / 1000);
      const std::uint64_t accounted = st.delivered + st.aqm_dropped + waiting;
      EXPECT_TRUE(accounted == st.enqueued || accounted + 1 == st.enqueued)
          << "enqueued " << st.enqueued << " accounted " << accounted;
      ++samples;
    });
  }
  s.run();
  EXPECT_EQ(samples, 399);
  const link_stats& st = t.fwd->stats();
  EXPECT_EQ(st.enqueued, std::uint64_t{kBurst} * kBursts);  // never full
  EXPECT_GT(st.aqm_dropped, 0u);
  EXPECT_EQ(st.dropped, st.aqm_dropped);
  EXPECT_EQ(st.delivered + st.aqm_dropped, st.enqueued);
  EXPECT_EQ(t.fwd->queued_bytes(), 0);
  // More than twice the ring's initial capacity waited at once.
  EXPECT_GT(st.max_queued_bytes, 16 * 1000);
  ASSERT_EQ(sink.packets.size(), st.delivered);
  std::int64_t prev = -1;
  for (const auto& p : sink.packets) {
    const auto* hdr = header_as<cbr_payload>(p);
    ASSERT_NE(hdr, nullptr);
    EXPECT_GT(hdr->seq, prev);
    prev = hdr->seq;
  }
}

TEST(link, time_average_queue_tracks_occupancy) {
  scheduler s;
  link_config cfg;
  cfg.bps = 1e6;  // 8 ms per 1000-byte packet
  cfg.delay = 0;
  two_hosts t(s, cfg);
  capture_agent sink(t.net, t.b);
  for (int i = 0; i < 4; ++i) t.net.get(t.a)->send(make_packet(1000, t.b));
  s.run();
  // Queue occupancy: 3000 bytes for 8 ms, 2000 for 8 ms, 1000 for 8 ms, 0
  // afterwards; at t = 32 ms the time-average is (3+2+1)*8/32 = 1500 bytes.
  EXPECT_EQ(s.now(), milliseconds(32));
  EXPECT_DOUBLE_EQ(t.fwd->time_avg_queued_bytes(s.now()), 1'500.0);
}

TEST(ring_queue, keeps_fifo_order_across_wraps_and_growth) {
  ring_queue<std::shared_ptr<int>> q;
  const auto token = std::make_shared<int>(0);
  int next_in = 0;
  int next_out = 0;
  // Push three, pop two per round: the head keeps moving, so the ring wraps
  // at every capacity it grows through.
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 3; ++k) {
      q.emplace_back(std::make_shared<int>(next_in++));
    }
    for (int k = 0; k < 2; ++k) {
      ASSERT_EQ(*q.front(), next_out++);
      q.pop_front();
    }
    ASSERT_EQ(q.size(), static_cast<std::size_t>(round + 1));
    ASSERT_EQ(*q[q.size() - 1], next_in - 1);
  }
  EXPECT_EQ(q.capacity(), 64u);  // 8 -> 16 -> 32 -> 64, powers of two
  // Popping destroys the element: a held pointer is released at once.
  q.emplace_back(token);
  EXPECT_EQ(token.use_count(), 2);
  while (q.size() > 1) q.pop_front();
  EXPECT_EQ(token.use_count(), 2);
  q.pop_front();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 64u);  // capacity is kept
}

TEST(link, rejects_invalid_config) {
  scheduler s;
  network net(s);
  const node_id a = net.add_host("a");
  const node_id b = net.add_host("b");
  link_config bad;
  bad.bps = 0;
  EXPECT_THROW(net.connect(a, b, bad), util::invariant_error);
}

}  // namespace
}  // namespace mcc::sim
