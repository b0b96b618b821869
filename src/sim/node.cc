#include "sim/node.h"

#include <algorithm>

#include "sim/network.h"

namespace mcc::sim {

node::node(network& net, node_id id, std::string name, bool is_router)
    : net_(net), id_(id), name_(std::move(name)), router_(is_router) {}

void node::remove_agent(agent* a) {
  agents_.erase(std::remove(agents_.begin(), agents_.end(), a), agents_.end());
}

namespace {
/// Oif order: link creation order, which is fixed per world. A null oif
/// (grafted to hold a router on a tree with no interface to forward on)
/// sorts first.
std::size_t oif_rank(const link* l) {
  return l == nullptr ? 0 : l->index() + 1;
}
bool oif_before(const link* a, const link* b) {
  return oif_rank(a) < oif_rank(b);
}
}  // namespace

void node::graft(group_addr g, link* oif) {
  std::vector<link*>& list = mcast_oifs_[g];
  const auto it = std::lower_bound(list.begin(), list.end(), oif, oif_before);
  if (it == list.end() || *it != oif) list.insert(it, oif);
}

void node::prune(group_addr g, link* oif) {
  auto entry = mcast_oifs_.find(g);
  if (entry == mcast_oifs_.end()) return;
  std::vector<link*>& list = entry->second;
  const auto it = std::lower_bound(list.begin(), list.end(), oif, oif_before);
  if (it == list.end() || *it != oif) return;
  list.erase(it);
  if (list.empty()) mcast_oifs_.erase(entry);
}

bool node::has_oif(group_addr g, link* oif) const {
  const auto* list = oifs(g);
  return list != nullptr &&
         std::binary_search(list->begin(), list->end(), oif, oif_before);
}

const std::vector<link*>* node::oifs(group_addr g) const {
  auto it = mcast_oifs_.find(g);
  return it == mcast_oifs_.end() ? nullptr : &it->second;
}

int node::oif_count(group_addr g) const {
  const auto* list = oifs(g);
  return list == nullptr ? 0 : static_cast<int>(list->size());
}

void node::send(packet&& p) {
  util::require(!out_links_.empty(), "node::send: node has no links");
  p.src = id_;
  if (p.uid == 0) p.uid = net_.new_packet_uid();
  if (p.dst.is_multicast() || p.dst.id == id_) {
    // Multicast packets originate on the access link; hosts are single-homed
    // in all our topologies (routers forward, they do not originate
    // multicast).
    util::require(is_host(), "node::send: only hosts originate multicast");
    out_links_.front()->transmit(std::move(p));
  } else {
    link* l = net_.next_hop(id_, p.dst.id);
    util::require(l != nullptr, "node::send: no route", name_);
    l->transmit(std::move(p));
  }
}

void node::receive(packet&& p, link* from) {
  if (is_host()) {
    const bool for_us =
        (!p.dst.is_multicast() && p.dst.id == id_) ||
        (p.dst.is_multicast() && host_subscribed(p.dst.group()));
    if (!for_us || p.router_alert) return;  // alert packets never reach hosts
    ++stats_.delivered_local;
    deliver_local(p, from);
    return;
  }
  // Router path.
  if (p.router_alert && alert_interceptor_ != nullptr) {
    alert_interceptor_->handle_packet(p, from);
    // Interception does not consume: the special packet continues along the
    // tree so downstream edge routers receive it too.
  }
  if (!p.dst.is_multicast()) {
    if (p.dst.id == id_) {
      ++stats_.delivered_local;
      deliver_local(p, from);
      return;
    }
    link* l = net_.next_hop(id_, p.dst.id);
    if (l == nullptr) {
      ++stats_.no_route;
      return;
    }
    ++stats_.forwarded_unicast;
    l->transmit(std::move(p));
    return;
  }
  forward(std::move(p), from);
}

void node::deliver_local(const packet& p, link* from) {
  for (agent* a : agents_) {
    if (a->handle_packet(p, from)) return;
  }
}

void node::forward(packet&& p, link* from) {
  const auto* out = oifs(p.dst.group());
  if (out == nullptr) return;
  // Snapshot the branches into a reused scratch buffer (no per-packet
  // allocation): policy callbacks may trigger grafts/prunes mid-loop.
  fanout_scratch_.clear();
  for (link* oif : *out) {
    if (oif == nullptr || (from != nullptr && oif == from->reverse())) continue;
    // Special packets never reach hosts.
    if (p.router_alert && oif->to()->is_host()) continue;
    fanout_scratch_.push_back(oif);
  }
  const std::size_t n = fanout_scratch_.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    forward_branch(fanout_scratch_[i], packet(p));
  }
  if (n > 0) forward_branch(fanout_scratch_[n - 1], std::move(p));
}

void node::forward_branch(link* oif, packet&& p) {
  // The policy sees this branch's own packet, so a mutation (DELTA's ECN
  // scrub) stays on this branch.
  if (policy_ != nullptr && oif->to()->is_host() && !policy_->allow(p, oif)) {
    ++stats_.policy_denied;
    return;
  }
  ++stats_.forwarded_multicast;
  oif->transmit(std::move(p));
}

}  // namespace mcc::sim
