#include "mcast/flood_prune.hpp"

#include "topo/network.hpp"
#include "topo/segment.hpp"

namespace pimlib::mcast {

FloodPruneConfig FloodPruneConfig::scaled(double factor) const {
    auto scale = [factor](sim::Time t) {
        return static_cast<sim::Time>(static_cast<double>(t) * factor);
    };
    return {.hello_interval = scale(hello_interval),
            .neighbor_holdtime = scale(neighbor_holdtime),
            .prune_lifetime = scale(prune_lifetime),
            .entry_lifetime = scale(entry_lifetime)};
}

FloodPrune::FloodPrune(topo::Router& router, igmp::RouterAgent& igmp,
                       FloodPruneConfig config, stats::ControlName control)
    : router_(&router),
      igmp_(&igmp),
      config_(config),
      control_(control),
      data_plane_(router, cache_),
      hello_timer_(router.simulator(), [this] { on_hello_timer(); }),
      tick_timer_(router.simulator(), [this] { on_tick(); }) {
    data_plane_.set_delegate(this);
    igmp_->subscribe([this](int ifindex, net::GroupAddress group, bool present) {
        on_membership(ifindex, group, present);
    });
    reboot(); // a fresh router boots like a rebooted one
}

void FloodPrune::reboot() {
    neighbors_.clear();
    prunes_.clear();
    pruned_upstream_.clear();
    last_prune_sent_.clear();
    cache_.clear();
    hello_timer_.start(config_.hello_interval);
    tick_timer_.start(config_.prune_lifetime / 3);
    router_->simulator().schedule(0, [this] { send_hellos(); });
}

std::vector<net::Ipv4Address> FloodPrune::neighbors_on(int ifindex) const {
    std::vector<net::Ipv4Address> out;
    auto it = neighbors_.find(ifindex);
    if (it == neighbors_.end()) return out;
    for (const auto& [addr, deadline] : it->second) out.push_back(addr);
    return out;
}

bool FloodPrune::floods_to(int ifindex, net::GroupAddress group) const {
    auto it = neighbors_.find(ifindex);
    const bool has_neighbors = it != neighbors_.end() && !it->second.empty();
    return has_neighbors || igmp_->has_members(ifindex, group);
}

ForwardingEntry* FloodPrune::build_entry(net::Ipv4Address source, net::GroupAddress group) {
    auto route = router_->route_to(source);
    if (!route) return nullptr;
    const sim::Time now = router_->simulator().now();
    ForwardingEntry& sg = cache_.ensure_sg(source, group);
    sg.set_iif(route->ifindex);
    sg.set_upstream_neighbor(route->next_hop.is_unspecified()
                                 ? std::optional<net::Ipv4Address>{}
                                 : std::optional<net::Ipv4Address>{route->next_hop});
    sg.set_spt_bit(true); // dense-mode entries always do strict RPF checks
    sg.set_delete_at(now + config_.entry_lifetime);
    for (const auto& iface : router_->interfaces()) {
        if (!iface.up || iface.segment == nullptr) continue;
        if (iface.ifindex == sg.iif()) continue;
        if (!floods_to(iface.ifindex, group)) continue; // truncated broadcast
        if (prunes_.contains({{source, group}, iface.ifindex})) continue;
        sg.pin_oif(iface.ifindex); // flood state: stays until pruned
    }
    return &sg;
}

void FloodPrune::on_no_entry(int ifindex, const net::Packet& packet) {
    ForwardingEntry* sg = build_entry(packet.src, net::GroupAddress{packet.dst});
    if (sg == nullptr) {
        data_plane_.record_hop(ifindex, packet, nullptr, provenance::EntryKind::kNone,
                               /*rpf_ok=*/false, provenance::DropReason::kNoState);
        return;
    }
    if (ifindex != sg->iif()) {
        data_plane_.record_hop(ifindex, packet, sg, provenance::EntryKind::kSg,
                               /*rpf_ok=*/false, provenance::DropReason::kRpfFail);
        return;
    }
    const sim::Time now = router_->simulator().now();
    data_plane_.forward_recorded(*sg, ifindex, packet, provenance::EntryKind::kSg);
    sg->note_data(now);
    // A leaf router with nothing downstream prunes itself off (§1.1).
    if (sg->oif_list_empty(now) && sg->upstream_neighbor().has_value()) {
        prune_upstream(*sg);
    }
}

void FloodPrune::on_no_downstream(ForwardingEntry& entry, int /*ifindex*/,
                                  const net::Packet& /*packet*/) {
    if (!entry.upstream_neighbor().has_value()) return;
    const SgKey key{entry.source_or_rp(), entry.group()};
    const sim::Time now = router_->simulator().now();
    auto it = last_prune_sent_.find(key);
    if (it != last_prune_sent_.end() && now - it->second < config_.prune_lifetime / 3) {
        return;
    }
    last_prune_sent_[key] = now;
    prune_upstream(entry);
}

void FloodPrune::on_hello(int ifindex, net::Ipv4Address from, sim::Time holdtime) {
    neighbors_[ifindex][from] = router_->simulator().now() + holdtime;
}

void FloodPrune::on_prune(int ifindex, net::Ipv4Address source, net::GroupAddress group,
                          sim::Time lifetime) {
    ForwardingEntry* sg = cache_.find_sg(source, group);
    if (sg == nullptr || ifindex == sg->iif()) return;
    const sim::Time now = router_->simulator().now();
    prunes_[{{source, group}, ifindex}] = now + lifetime;
    sg->remove_oif(ifindex);
    if (sg->oif_list_empty(now) && sg->upstream_neighbor().has_value() &&
        !pruned_upstream_.contains({source, group})) {
        prune_upstream(*sg);
    }
}

void FloodPrune::on_graft(int ifindex, net::Ipv4Address source, net::GroupAddress group) {
    ForwardingEntry* sg = cache_.find_sg(source, group);
    if (sg == nullptr) return;
    prunes_.erase({{source, group}, ifindex});
    sg->pin_oif(ifindex);
    graft_upstream(*sg);
}

void FloodPrune::on_membership(int ifindex, net::GroupAddress group, bool present) {
    cache_.for_each_sg_of(group, [&](ForwardingEntry& sg) {
        if (present) {
            if (ifindex == sg.iif()) return;
            sg.pin_oif(ifindex);
            prunes_.erase({{sg.source_or_rp(), group}, ifindex});
            graft_upstream(sg);
        } else if (!igmp_->has_members(ifindex, group) &&
                   neighbors_on(ifindex).empty()) {
            sg.remove_oif(ifindex);
        }
    });
}

void FloodPrune::on_hello_timer() {
    const sim::Time now = router_->simulator().now();
    for (auto& [ifindex, nbrs] : neighbors_) {
        std::erase_if(nbrs, [now](const auto& kv) { return kv.second <= now; });
    }
    send_hellos();
}

void FloodPrune::on_tick() {
    const sim::Time now = router_->simulator().now();
    // Prune regrowth: expired prunes come back and data floods again.
    for (auto it = prunes_.begin(); it != prunes_.end();) {
        if (it->second <= now) {
            const auto& [key, ifindex] = it->first;
            if (auto* sg = cache_.find_sg(key.first, key.second)) {
                if (ifindex != sg->iif() && floods_to(ifindex, key.second)) {
                    sg->pin_oif(ifindex);
                    pruned_upstream_.erase(key);
                }
            }
            it = prunes_.erase(it);
        } else {
            ++it;
        }
    }
    // Extend entries that still see data. Pinning an oif (flood, regrowth,
    // graft, a new member) clears an entry's deadline, so one without
    // recent data gets it back here, already due.
    cache_.for_each_sg([&](ForwardingEntry& sg) {
        if (now - sg.last_data_at() < config_.entry_lifetime) {
            sg.set_delete_at(now + config_.entry_lifetime);
        } else if (sg.delete_at() == 0) {
            sg.set_delete_at(now);
        }
    });
    // Entries with no recent data expire.
    for (const auto& key : cache_.reap_expired_entries(now)) {
        pruned_upstream_.erase(key);
    }
}

void FloodPrune::prune_upstream(const ForwardingEntry& entry) {
    send_upstream(entry, /*graft=*/false);
    pruned_upstream_.insert({entry.source_or_rp(), entry.group()});
}

void FloodPrune::graft_upstream(const ForwardingEntry& entry) {
    if (pruned_upstream_.erase({entry.source_or_rp(), entry.group()}) > 0 &&
        entry.upstream_neighbor().has_value()) {
        send_upstream(entry, /*graft=*/true);
    }
}

void FloodPrune::send_hellos() {
    router_->flood_control(net::kAllRouters, net::IpProto::kIgmp, control_, hello_payload());
}

void FloodPrune::send_upstream(const ForwardingEntry& entry, bool graft) {
    router_->network().telemetry().emit(
        {.type = graft ? telemetry::EventType::kGraftSent : telemetry::EventType::kPruneSent,
         .protocol = control_.protocol == stats::ControlProtocol::kDvmrp
                         ? telemetry::Protocol::kDvmrp
                         : telemetry::Protocol::kPimDm,
         .node = router_->id(), .group = entry.group(), .addr = entry.source_or_rp()});
    router_->send_control(entry.iif(), net::kAllRouters, net::IpProto::kIgmp, control_,
                          graft ? graft_payload(entry) : prune_payload(entry));
}

} // namespace pimlib::mcast
