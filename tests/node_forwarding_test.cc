// Router forwarding edge cases: reverse-path suppression, no-route
// accounting, policy deny/mutate semantics, multi-branch fanout, and the
// multicast table's graft/prune bookkeeping and oif order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "test_util.h"

namespace mcc::sim {
namespace {

using mcc::testing::capture_agent;
using mcc::testing::make_packet;

TEST(node_forwarding, multicast_never_echoes_to_arrival_link) {
  // src -- r -- dst, with r grafted on BOTH its interfaces for the group.
  scheduler s;
  network net(s);
  const auto src = net.add_host("src");
  const auto r = net.add_router("r");
  const auto dst = net.add_host("dst");
  net.connect(src, r, link_config{});
  net.connect(r, dst, link_config{});
  net.finalize_routing();
  const group_addr g{100};
  net.register_group_source(g, src);
  // Graft even the interface pointing back at the source.
  net.get(r)->graft(g, net.next_hop(r, src));
  net.get(r)->graft(g, net.next_hop(r, dst));
  net.get(dst)->host_join(g);
  net.get(src)->host_join(g);
  capture_agent at_src(net, src);
  capture_agent at_dst(net, dst);

  packet p;
  p.size_bytes = 100;
  p.dst = dest::to_group(g);
  net.get(src)->send(std::move(p));
  s.run();
  EXPECT_EQ(at_dst.packets.size(), 1u);
  EXPECT_TRUE(at_src.packets.empty());  // no echo back toward the source
}

TEST(node_forwarding, unicast_without_route_counts_no_route) {
  scheduler s;
  network net(s);
  const auto a = net.add_host("a");
  const auto r = net.add_router("r");
  const auto island = net.add_host("island");  // not connected to anything
  net.connect(a, r, link_config{});
  net.finalize_routing();
  // The host itself refuses to originate toward an unreachable node...
  EXPECT_THROW(net.get(a)->send(make_packet(50, island)),
               util::invariant_error);
  // ...and a router receiving such a packet drops it and counts no_route.
  net.get(r)->receive(make_packet(50, island), nullptr);
  EXPECT_EQ(net.get(r)->stats().no_route, 1u);
}

TEST(node_forwarding, policy_can_mutate_the_branch_copy_only) {
  // Policy scrubs for one host; the other host's copy is untouched.
  scheduler s;
  network net(s);
  const auto src = net.add_host("src");
  const auto r = net.add_router("r");
  const auto ha = net.add_host("a");
  const auto hb = net.add_host("b");
  net.connect(src, r, link_config{});
  net.connect(r, ha, link_config{});
  net.connect(r, hb, link_config{});
  net.finalize_routing();
  const group_addr g{200};
  net.register_group_source(g, src);
  link* oif_a = net.next_hop(r, ha);
  net.get(r)->graft(g, oif_a);
  net.get(r)->graft(g, net.next_hop(r, hb));
  net.get(ha)->host_join(g);
  net.get(hb)->host_join(g);

  struct scrub_for_a : access_policy {
    explicit scrub_for_a(link* a) : a_(a) {}
    bool allow(packet& p, link* oif) override {
      if (oif == a_) {
        if (auto* hdr = header_as<flid_data>(p)) hdr->component_scrubbed = true;
      }
      return true;
    }
    link* a_;
  } policy(oif_a);
  net.get(r)->set_access_policy(&policy);

  capture_agent at_a(net, ha);
  capture_agent at_b(net, hb);
  packet p;
  p.size_bytes = 100;
  p.dst = dest::to_group(g);
  p.hdr = flid_data{};
  net.get(src)->send(std::move(p));
  s.run();
  ASSERT_EQ(at_a.packets.size(), 1u);
  ASSERT_EQ(at_b.packets.size(), 1u);
  EXPECT_TRUE(header_as<flid_data>(at_a.packets[0])->component_scrubbed);
  EXPECT_FALSE(header_as<flid_data>(at_b.packets[0])->component_scrubbed);
}

TEST(node_forwarding, policy_denial_is_counted_and_scoped) {
  scheduler s;
  network net(s);
  const auto src = net.add_host("src");
  const auto r = net.add_router("r");
  const auto ha = net.add_host("a");
  const auto hb = net.add_host("b");
  net.connect(src, r, link_config{});
  net.connect(r, ha, link_config{});
  net.connect(r, hb, link_config{});
  net.finalize_routing();
  const group_addr g{300};
  net.register_group_source(g, src);
  link* oif_a = net.next_hop(r, ha);
  net.get(r)->graft(g, oif_a);
  net.get(r)->graft(g, net.next_hop(r, hb));
  net.get(ha)->host_join(g);
  net.get(hb)->host_join(g);

  struct deny_a : access_policy {
    explicit deny_a(link* a) : a_(a) {}
    bool allow(packet&, link* oif) override { return oif != a_; }
    link* a_;
  } policy(oif_a);
  net.get(r)->set_access_policy(&policy);

  capture_agent at_a(net, ha);
  capture_agent at_b(net, hb);
  for (int i = 0; i < 5; ++i) {
    packet p;
    p.size_bytes = 100;
    p.dst = dest::to_group(g);
    net.get(src)->send(std::move(p));
  }
  s.run();
  EXPECT_TRUE(at_a.packets.empty());
  EXPECT_EQ(at_b.packets.size(), 5u);
  EXPECT_EQ(net.get(r)->stats().policy_denied, 5u);
}

TEST(node_forwarding, policy_not_consulted_for_router_facing_branches) {
  // src -- r1 -- r2 -- dst: a deny-everything policy on r1 must not block
  // the r1 -> r2 branch (policies guard host-facing interfaces only).
  scheduler s;
  network net(s);
  const auto src = net.add_host("src");
  const auto r1 = net.add_router("r1");
  const auto r2 = net.add_router("r2");
  const auto dst = net.add_host("dst");
  net.connect(src, r1, link_config{});
  net.connect(r1, r2, link_config{});
  net.connect(r2, dst, link_config{});
  net.finalize_routing();
  const group_addr g{400};
  net.register_group_source(g, src);
  net.get(r1)->graft(g, net.next_hop(r1, dst));
  net.get(r2)->graft(g, net.next_hop(r2, dst));
  net.get(dst)->host_join(g);

  struct deny_all : access_policy {
    bool allow(packet&, link*) override { return false; }
  } policy;
  net.get(r1)->set_access_policy(&policy);

  capture_agent sink(net, dst);
  packet p;
  p.size_bytes = 100;
  p.dst = dest::to_group(g);
  net.get(src)->send(std::move(p));
  s.run();
  // r1 forwarded to r2 despite its policy; r2 (no policy) delivered.
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(node_forwarding, self_addressed_unicast_delivers_to_router_agents) {
  scheduler s;
  network net(s);
  const auto h = net.add_host("h");
  const auto r = net.add_router("r");
  net.connect(h, r, link_config{});
  net.finalize_routing();
  capture_agent mgmt(net, r);
  net.get(h)->send(make_packet(40, r));
  s.run();
  EXPECT_EQ(mgmt.packets.size(), 1u);
  EXPECT_EQ(net.get(r)->stats().delivered_local, 1u);
}

/// A router with `hosts` hosts hanging off it, connected in order h0, h1, ...
struct star {
  star(scheduler& s, int hosts) : net(s) {
    r = net.add_router("r");
    for (int i = 0; i < hosts; ++i) {
      const node_id h = net.add_host("h" + std::to_string(i));
      host.push_back(h);
      oif.push_back(net.connect(r, h, link_config{}).first);
    }
    net.finalize_routing();
  }
  network net;
  node_id r;
  std::vector<node_id> host;
  std::vector<link*> oif;  // r -> host[i], in creation order
};

TEST(node_forwarding, graft_and_prune_are_idempotent_and_agree_with_queries) {
  scheduler s;
  star t(s, 4);
  node& r = *t.net.get(t.r);
  const group_addr g{500};
  const group_addr other{501};
  const auto expect_consistent = [&] {
    int present = 0;
    for (link* l : t.oif) present += r.has_oif(g, l) ? 1 : 0;
    EXPECT_EQ(present, r.oif_count(g));
    const auto* list = r.oifs(g);
    EXPECT_EQ(list == nullptr ? 0 : static_cast<int>(list->size()),
              r.oif_count(g));
  };

  r.prune(g, t.oif[0]);  // unknown group: a no-op
  EXPECT_EQ(r.oifs(g), nullptr);
  expect_consistent();
  r.graft(g, t.oif[2]);
  r.graft(g, t.oif[2]);  // second graft of the same oif: a no-op
  EXPECT_EQ(r.oif_count(g), 1);
  expect_consistent();
  r.graft(g, t.oif[0]);
  r.prune(g, t.oif[3]);  // absent oif: a no-op
  EXPECT_EQ(r.oif_count(g), 2);
  EXPECT_TRUE(r.has_oif(g, t.oif[0]));
  EXPECT_FALSE(r.has_oif(g, t.oif[3]));
  EXPECT_FALSE(r.has_oif(other, t.oif[0]));
  expect_consistent();
  r.prune(g, t.oif[2]);
  r.prune(g, t.oif[2]);
  EXPECT_EQ(r.oif_count(g), 1);
  expect_consistent();
  r.prune(g, t.oif[0]);  // the last oif: the group's entry goes away
  EXPECT_EQ(r.oifs(g), nullptr);
  EXPECT_EQ(r.oif_count(g), 0);
  expect_consistent();
}

TEST(node_forwarding, fanout_follows_link_creation_order) {
  // Grafted in reverse, the oifs still list (and fan out) in the order the
  // links were created, whatever their addresses.
  scheduler s;
  star t(s, 4);
  node& r = *t.net.get(t.r);
  const group_addr g{600};
  for (int i = 3; i >= 0; --i) r.graft(g, t.oif[static_cast<std::size_t>(i)]);
  ASSERT_NE(r.oifs(g), nullptr);
  EXPECT_EQ(*r.oifs(g), t.oif);

  // Equal links: every branch finishes serializing at the same instant, so
  // deliveries tie and fire in fan-out order.
  struct arrivals : agent {
    explicit arrivals(std::vector<node_id>& log, node_id self)
        : log_(log), self_(self) {}
    bool handle_packet(const packet&, link*) override {
      log_.push_back(self_);
      return true;
    }
    std::vector<node_id>& log_;
    node_id self_;
  };
  std::vector<node_id> log;
  std::vector<std::unique_ptr<arrivals>> sinks;
  for (node_id h : t.host) {
    t.net.get(h)->host_join(g);
    sinks.push_back(std::make_unique<arrivals>(log, h));
    t.net.get(h)->add_agent(sinks.back().get());
  }
  packet p;
  p.size_bytes = 100;
  p.dst = dest::to_group(g);
  r.receive(std::move(p), nullptr);
  s.run();
  EXPECT_EQ(log, t.host);
  EXPECT_EQ(r.stats().forwarded_multicast, 4u);
}

}  // namespace
}  // namespace mcc::sim
