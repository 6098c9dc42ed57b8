#include "pim/pim_dm.hpp"

#include "igmp/messages.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "topo/network.hpp"
#include "topo/segment.hpp"

namespace pimlib::pim {

PimDmConfig PimDmConfig::scaled(double factor) const {
    auto scale = [factor](sim::Time t) {
        return static_cast<sim::Time>(static_cast<double>(t) * factor);
    };
    PimDmConfig out = *this;
    out.prune_lifetime = scale(prune_lifetime);
    out.query_interval = scale(query_interval);
    out.neighbor_holdtime = scale(neighbor_holdtime);
    out.entry_lifetime = scale(entry_lifetime);
    return out;
}

PimDmRouter::PimDmRouter(topo::Router& router, igmp::RouterAgent& igmp,
                         PimDmConfig config)
    : router_(&router),
      igmp_(&igmp),
      config_(config),
      data_plane_(router, cache_),
      query_timer_(router.simulator(), [this] {
          // Expire neighbors, then re-announce ourselves.
          const sim::Time now = router_->simulator().now();
          for (auto& [ifindex, nbrs] : neighbors_) {
              std::erase_if(nbrs, [now](const auto& kv) { return kv.second <= now; });
          }
          const auto holdtime = static_cast<std::uint32_t>(config_.neighbor_holdtime /
                                                           sim::kMillisecond);
          for (const auto& iface : router_->interfaces()) {
              if (!iface.up || iface.segment == nullptr) continue;
              net::Packet packet;
              packet.src = iface.address;
              packet.dst = net::kAllRouters;
              packet.proto = net::IpProto::kIgmp;
              packet.ttl = 1;
              packet.payload = Query{holdtime}.encode();
              router_->network().stats().count_control_message("pim-dm");
              router_->send(iface.ifindex, net::Frame{std::nullopt, std::move(packet)});
          }
      }),
      tick_timer_(router.simulator(), [this] { on_tick(); }) {
    data_plane_.set_delegate(this);
    router_->register_igmp_type(igmp::kTypePim,
                                [this](int ifindex, const net::Packet& packet) {
                                    on_pim_message(ifindex, packet);
                                });
    igmp_->subscribe([this](int ifindex, net::GroupAddress group, bool present) {
        on_membership(ifindex, group, present);
    });
    query_timer_.start(config_.query_interval);
    tick_timer_.start(config_.prune_lifetime / 3);
    router_->simulator().schedule(0, [this] {
        const auto holdtime = static_cast<std::uint32_t>(config_.neighbor_holdtime /
                                                         sim::kMillisecond);
        for (const auto& iface : router_->interfaces()) {
            if (!iface.up || iface.segment == nullptr) continue;
            net::Packet packet;
            packet.src = iface.address;
            packet.dst = net::kAllRouters;
            packet.proto = net::IpProto::kIgmp;
            packet.ttl = 1;
            packet.payload = Query{holdtime}.encode();
            router_->network().stats().count_control_message("pim-dm");
            router_->send(iface.ifindex, net::Frame{std::nullopt, std::move(packet)});
        }
    });
}

std::vector<net::Ipv4Address> PimDmRouter::neighbors_on(int ifindex) const {
    std::vector<net::Ipv4Address> out;
    auto it = neighbors_.find(ifindex);
    if (it == neighbors_.end()) return out;
    for (const auto& [addr, deadline] : it->second) out.push_back(addr);
    return out;
}

bool PimDmRouter::floods_to(int ifindex, net::GroupAddress group) const {
    auto it = neighbors_.find(ifindex);
    const bool has_neighbors = it != neighbors_.end() && !it->second.empty();
    return has_neighbors || igmp_->has_members(ifindex, group);
}

mcast::ForwardingEntry* PimDmRouter::build_entry(net::Ipv4Address source,
                                                 net::GroupAddress group) {
    auto route = router_->route_to(source);
    if (!route) return nullptr;
    const sim::Time now = router_->simulator().now();
    mcast::ForwardingEntry& sg = cache_.ensure_sg(source, group);
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

void PimDmRouter::on_no_entry(int ifindex, const net::Packet& packet) {
    const net::GroupAddress group{packet.dst};
    const net::Ipv4Address source = packet.src;
    mcast::ForwardingEntry* sg = build_entry(source, group);
    if (sg == nullptr) {
        data_plane_.record_hop(ifindex, packet, nullptr, provenance::EntryKind::kNone,
                               /*rpf_ok=*/false, provenance::DropReason::kNoState);
        return;
    }
    if (ifindex != sg->iif()) {
        router_->network().stats().count_data_dropped_iif();
        data_plane_.record_hop(ifindex, packet, sg, provenance::EntryKind::kSg,
                               /*rpf_ok=*/false, provenance::DropReason::kRpfFail);
        return;
    }
    const sim::Time now = router_->simulator().now();
    data_plane_.forward_recorded(*sg, ifindex, packet, provenance::EntryKind::kSg);
    sg->note_data(now);
    // A leaf router with nothing downstream prunes itself off (§1.1).
    if (sg->oif_list_empty(now) && sg->upstream_neighbor().has_value()) {
        send_prune_upstream(*sg);
        pruned_upstream_.insert({source, group});
    }
}

void PimDmRouter::on_no_downstream(mcast::ForwardingEntry& entry, int ifindex,
                                   const net::Packet& packet) {
    (void)ifindex;
    (void)packet;
    if (!entry.upstream_neighbor().has_value()) return;
    const SgKey key{entry.source_or_rp(), entry.group()};
    const sim::Time now = router_->simulator().now();
    auto it = last_prune_sent_.find(key);
    if (it != last_prune_sent_.end() && now - it->second < config_.prune_lifetime / 3) {
        return;
    }
    last_prune_sent_[key] = now;
    send_prune_upstream(entry);
    pruned_upstream_.insert(key);
}

void PimDmRouter::on_pim_message(int ifindex, const net::Packet& packet) {
    PROF_ZONE("control.pim_dm");
    auto code = peek_code(packet.payload);
    if (!code) return;
    if (*code == Code::kQuery) {
        auto msg = Query::decode(packet.payload);
        if (!msg) return;
        neighbors_[ifindex][packet.src] =
            router_->simulator().now() +
            static_cast<sim::Time>(msg->holdtime_ms) * sim::kMillisecond;
        return;
    }
    if (*code != Code::kJoinPrune) return;
    auto msg = JoinPrune::decode(packet.payload);
    if (!msg || !msg->group.is_multicast()) return;
    if (ifindex < 0 ||
        msg->upstream_neighbor != router_->interface(ifindex).address) {
        return;
    }
    const net::GroupAddress group{msg->group};
    for (const AddressEntry& e : msg->prunes) handle_prune(ifindex, group, e.address);
    for (const AddressEntry& e : msg->joins) handle_graft(ifindex, group, e.address);
}

void PimDmRouter::handle_prune(int ifindex, net::GroupAddress group,
                               net::Ipv4Address source) {
    mcast::ForwardingEntry* sg = cache_.find_sg(source, group);
    if (sg == nullptr) return;
    const sim::Time now = router_->simulator().now();
    prunes_[{{source, group}, ifindex}] = now + config_.prune_lifetime;
    sg->remove_oif(ifindex);
    if (sg->oif_list_empty(now) && sg->upstream_neighbor().has_value() &&
        !pruned_upstream_.contains({source, group})) {
        send_prune_upstream(*sg);
        pruned_upstream_.insert({source, group});
    }
}

void PimDmRouter::handle_graft(int ifindex, net::GroupAddress group,
                               net::Ipv4Address source) {
    mcast::ForwardingEntry* sg = cache_.find_sg(source, group);
    if (sg == nullptr) return;
    prunes_.erase({{source, group}, ifindex});
    sg->pin_oif(ifindex);
    if (pruned_upstream_.erase({source, group}) > 0 &&
        sg->upstream_neighbor().has_value()) {
        send_graft_upstream(*sg);
    }
}

void PimDmRouter::on_membership(int ifindex, net::GroupAddress group, bool present) {
    cache_.for_each_sg_of(group, [&](mcast::ForwardingEntry& sg) {
        if (present) {
            if (ifindex == sg.iif()) return;
            sg.pin_oif(ifindex);
            prunes_.erase({{sg.source_or_rp(), group}, ifindex});
            if (pruned_upstream_.erase({sg.source_or_rp(), group}) > 0 &&
                sg.upstream_neighbor().has_value()) {
                send_graft_upstream(sg);
            }
        } else if (!igmp_->has_members(ifindex, group) &&
                   neighbors_on(ifindex).empty()) {
            sg.remove_oif(ifindex);
        }
    });
}

void PimDmRouter::on_tick() {
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
    // Entries with no recent data expire.
    for (const auto& key : cache_.reap_expired_entries(now)) {
        pruned_upstream_.erase(key);
    }
    // Extend entries that still see data.
    cache_.for_each_sg([&](mcast::ForwardingEntry& sg) {
        if (now - sg.last_data_at() < config_.entry_lifetime) {
            sg.set_delete_at(now + config_.entry_lifetime);
        }
    });
}

void PimDmRouter::send_prune_upstream(const mcast::ForwardingEntry& entry) {
    JoinPrune msg;
    msg.upstream_neighbor = entry.upstream_neighbor().value_or(net::Ipv4Address{});
    msg.holdtime_ms =
        static_cast<std::uint32_t>(config_.prune_lifetime / sim::kMillisecond);
    msg.group = entry.group().address();
    msg.prunes.push_back(AddressEntry{entry.source_or_rp(), EntryFlags{}});
    net::Packet packet;
    packet.src = router_->interface(entry.iif()).address;
    packet.dst = net::kAllRouters;
    packet.proto = net::IpProto::kIgmp;
    packet.ttl = 1;
    packet.payload = msg.encode();
    router_->network().stats().count_control_message("pim-dm");
    router_->network().telemetry().emit(
        telemetry::EventType::kPruneSent, router_->name(), "pim-dm",
        entry.group().to_string(), "src=" + entry.source_or_rp().to_string());
    router_->send(entry.iif(), net::Frame{std::nullopt, std::move(packet)});
}

void PimDmRouter::send_graft_upstream(const mcast::ForwardingEntry& entry) {
    JoinPrune msg;
    msg.upstream_neighbor = entry.upstream_neighbor().value_or(net::Ipv4Address{});
    msg.holdtime_ms =
        static_cast<std::uint32_t>(config_.entry_lifetime / sim::kMillisecond);
    msg.group = entry.group().address();
    msg.joins.push_back(AddressEntry{entry.source_or_rp(), EntryFlags{}});
    net::Packet packet;
    packet.src = router_->interface(entry.iif()).address;
    packet.dst = net::kAllRouters;
    packet.proto = net::IpProto::kIgmp;
    packet.ttl = 1;
    packet.payload = msg.encode();
    router_->network().stats().count_control_message("pim-dm");
    router_->network().telemetry().emit(
        telemetry::EventType::kGraftSent, router_->name(), "pim-dm",
        entry.group().to_string(), "src=" + entry.source_or_rp().to_string());
    router_->send(entry.iif(), net::Frame{std::nullopt, std::move(packet)});
}

} // namespace pimlib::pim
