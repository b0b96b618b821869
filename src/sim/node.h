// Nodes: hosts (protocol endpoints) and routers (forwarding + group tables).
//
// Routers forward unicast packets via the network's static next-hop tables
// and multicast packets via their per-group outgoing-interface lists, kept
// in link creation order (link::index()) so fan-out order does not depend on
// heap addresses. Packets travel by rvalue: the last fan-out branch takes
// the arriving packet itself and every other branch an explicit copy. A
// pluggable access policy on host-facing interfaces is the hook SIGMA
// implements; plain IGMP corresponds to "no policy" (always allow).
#ifndef MCC_SIM_NODE_H
#define MCC_SIM_NODE_H

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/link.h"
#include "sim/wire.h"

namespace mcc::sim {

class network;

/// A protocol endpoint or router management component.
class agent {
 public:
  virtual ~agent() = default;
  /// Returns true if the packet was consumed by this agent.
  virtual bool handle_packet(const packet& p, link* arrival) = 0;
};

/// Decides whether a multicast data packet may be forwarded onto a
/// host-facing interface of an edge router (SIGMA implements this). The
/// packet reference is the per-branch copy: the policy may mutate it (the
/// DELTA ECN variant scrubs component fields of marked packets).
class access_policy {
 public:
  virtual ~access_policy() = default;
  virtual bool allow(packet& p, link* oif) = 0;
};

class node {
 public:
  node(network& net, node_id id, std::string name, bool is_router);
  node(const node&) = delete;
  node& operator=(const node&) = delete;

  [[nodiscard]] node_id id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool is_router() const { return router_; }
  [[nodiscard]] bool is_host() const { return !router_; }

  /// Entry point for packets arriving from a link (nullptr = locally injected).
  void receive(packet&& p, link* from);

  /// Hosts: originates a packet (unicast routing or multicast via the access
  /// link). Hosts have exactly one outgoing link.
  void send(packet&& p);

  // --- agents ---------------------------------------------------------------
  void add_agent(agent* a) { agents_.push_back(a); }
  void remove_agent(agent* a);
  /// Router-alert packets are offered to this agent at routers (SIGMA control
  /// interception) before tree forwarding continues.
  void set_alert_interceptor(agent* a) { alert_interceptor_ = a; }
  void set_access_policy(access_policy* p) { policy_ = p; }

  // --- host multicast subscription -------------------------------------------
  void host_join(group_addr g) { local_groups_.insert(g); }
  void host_leave(group_addr g) { local_groups_.erase(g); }
  [[nodiscard]] bool host_subscribed(group_addr g) const {
    return local_groups_.contains(g);
  }

  // --- router multicast forwarding state -------------------------------------
  /// Adds `oif` to the group's list; grafting a present oif is a no-op.
  void graft(group_addr g, link* oif);
  /// Removes `oif` from the group's list; pruning an absent oif is a no-op.
  void prune(group_addr g, link* oif);
  [[nodiscard]] bool has_oif(group_addr g, link* oif) const;
  /// The group's oifs in link creation order, or nullptr if it has none.
  [[nodiscard]] const std::vector<link*>* oifs(group_addr g) const;
  /// Number of outgoing interfaces currently grafted for the group.
  [[nodiscard]] int oif_count(group_addr g) const;

  // --- wiring (used by network) ----------------------------------------------
  void add_out_link(link* l) { out_links_.push_back(l); }
  [[nodiscard]] const std::vector<link*>& out_links() const { return out_links_; }

  struct counters {
    std::uint64_t forwarded_unicast = 0;
    std::uint64_t forwarded_multicast = 0;
    std::uint64_t policy_denied = 0;
    std::uint64_t delivered_local = 0;
    std::uint64_t no_route = 0;
  };
  [[nodiscard]] const counters& stats() const { return stats_; }

 private:
  struct group_hash {
    std::size_t operator()(group_addr g) const {
      return std::hash<int>{}(g.value);
    }
  };

  void deliver_local(const packet& p, link* from);
  void forward(packet&& p, link* from);
  /// One fan-out branch: consults the access policy on host-facing oifs,
  /// then transmits.
  void forward_branch(link* oif, packet&& p);

  network& net_;
  node_id id_;
  std::string name_;
  bool router_;
  std::vector<agent*> agents_;
  agent* alert_interceptor_ = nullptr;
  access_policy* policy_ = nullptr;
  std::set<group_addr> local_groups_;
  std::unordered_map<group_addr, std::vector<link*>, group_hash> mcast_oifs_;
  std::vector<link*> out_links_;
  /// Reused multicast fan-out snapshot of the branches a packet takes
  /// (packet delivery is never synchronous, so forward() cannot re-enter
  /// while the loop runs).
  std::vector<link*> fanout_scratch_;
  counters stats_;
};

}  // namespace mcc::sim

#endif  // MCC_SIM_NODE_H
