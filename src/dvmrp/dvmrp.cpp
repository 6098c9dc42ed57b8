#include "dvmrp/dvmrp.hpp"

#include "igmp/messages.hpp"
#include "net/buffer.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "topo/network.hpp"
#include "topo/segment.hpp"

namespace pimlib::dvmrp {

namespace {
void put_header(net::BufWriter& w, Code code) {
    w.put_u8(igmp::kTypeDvmrp);
    w.put_u8(static_cast<std::uint8_t>(code));
}

bool check_header(net::BufReader& r, Code code) {
    auto type = r.get_u8();
    auto c = r.get_u8();
    return type && c && *type == igmp::kTypeDvmrp &&
           *c == static_cast<std::uint8_t>(code);
}
} // namespace

std::optional<Code> peek_code(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < 2 || bytes[0] != igmp::kTypeDvmrp) return std::nullopt;
    if (bytes[1] < 1 || bytes[1] > 3) return std::nullopt;
    return static_cast<Code>(bytes[1]);
}

std::vector<std::uint8_t> Probe::encode() const {
    net::BufWriter w(6);
    put_header(w, Code::kProbe);
    w.put_u32(holdtime_ms);
    return w.take();
}

std::optional<Probe> Probe::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kProbe)) return std::nullopt;
    auto holdtime = r.get_u32();
    if (!holdtime || !r.at_end()) return std::nullopt;
    return Probe{*holdtime};
}

std::vector<std::uint8_t> PruneMsg::encode() const {
    net::BufWriter w(14);
    put_header(w, Code::kPrune);
    w.put_addr(source);
    w.put_addr(group);
    w.put_u32(lifetime_ms);
    return w.take();
}

std::optional<PruneMsg> PruneMsg::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kPrune)) return std::nullopt;
    auto source = r.get_addr();
    auto group = r.get_addr();
    auto lifetime = r.get_u32();
    if (!source || !group || !lifetime || !r.at_end()) return std::nullopt;
    return PruneMsg{*source, *group, *lifetime};
}

std::vector<std::uint8_t> GraftMsg::encode() const {
    net::BufWriter w(10);
    put_header(w, Code::kGraft);
    w.put_addr(source);
    w.put_addr(group);
    return w.take();
}

std::optional<GraftMsg> GraftMsg::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kGraft)) return std::nullopt;
    auto source = r.get_addr();
    auto group = r.get_addr();
    if (!source || !group || !r.at_end()) return std::nullopt;
    return GraftMsg{*source, *group};
}

DvmrpConfig DvmrpConfig::scaled(double factor) const {
    auto scale = [factor](sim::Time t) {
        return static_cast<sim::Time>(static_cast<double>(t) * factor);
    };
    DvmrpConfig out = *this;
    out.prune_lifetime = scale(prune_lifetime);
    out.probe_interval = scale(probe_interval);
    out.neighbor_holdtime = scale(neighbor_holdtime);
    out.entry_lifetime = scale(entry_lifetime);
    return out;
}

DvmrpRouter::DvmrpRouter(topo::Router& router, igmp::RouterAgent& igmp,
                         DvmrpConfig config)
    : router_(&router),
      igmp_(&igmp),
      config_(config),
      data_plane_(router, cache_),
      probe_timer_(router.simulator(), [this] {
          const sim::Time now = router_->simulator().now();
          for (auto& [ifindex, nbrs] : neighbors_) {
              std::erase_if(nbrs, [now](const auto& kv) { return kv.second <= now; });
          }
          send_probes();
      }),
      tick_timer_(router.simulator(), [this] { on_tick(); }) {
    data_plane_.set_delegate(this);
    router_->register_igmp_type(igmp::kTypeDvmrp,
                                [this](int ifindex, const net::Packet& packet) {
                                    on_message(ifindex, packet);
                                });
    igmp_->subscribe([this](int ifindex, net::GroupAddress group, bool present) {
        on_membership(ifindex, group, present);
    });
    probe_timer_.start(config_.probe_interval);
    tick_timer_.start(config_.prune_lifetime / 3);
    router_->simulator().schedule(0, [this] { send_probes(); });
}

void DvmrpRouter::send_probes() {
    const auto holdtime =
        static_cast<std::uint32_t>(config_.neighbor_holdtime / sim::kMillisecond);
    for (const auto& iface : router_->interfaces()) {
        if (!iface.up || iface.segment == nullptr) continue;
        net::Packet packet;
        packet.src = iface.address;
        packet.dst = net::kAllRouters;
        packet.proto = net::IpProto::kIgmp;
        packet.ttl = 1;
        packet.payload = Probe{holdtime}.encode();
        router_->network().stats().count_control_message("dvmrp");
        router_->send(iface.ifindex, net::Frame{std::nullopt, std::move(packet)});
    }
}

std::vector<net::Ipv4Address> DvmrpRouter::neighbors_on(int ifindex) const {
    std::vector<net::Ipv4Address> out;
    auto it = neighbors_.find(ifindex);
    if (it == neighbors_.end()) return out;
    for (const auto& [addr, deadline] : it->second) out.push_back(addr);
    return out;
}

bool DvmrpRouter::floods_to(int ifindex, net::GroupAddress group) const {
    auto it = neighbors_.find(ifindex);
    const bool has_neighbors = it != neighbors_.end() && !it->second.empty();
    return has_neighbors || igmp_->has_members(ifindex, group);
}

mcast::ForwardingEntry* DvmrpRouter::build_entry(net::Ipv4Address source,
                                                 net::GroupAddress group) {
    auto route = router_->route_to(source);
    if (!route) return nullptr;
    const sim::Time now = router_->simulator().now();
    mcast::ForwardingEntry& sg = cache_.ensure_sg(source, group);
    sg.set_iif(route->ifindex);
    sg.set_upstream_neighbor(route->next_hop.is_unspecified()
                                 ? std::optional<net::Ipv4Address>{}
                                 : std::optional<net::Ipv4Address>{route->next_hop});
    sg.set_spt_bit(true);
    sg.set_delete_at(now + config_.entry_lifetime);
    for (const auto& iface : router_->interfaces()) {
        if (!iface.up || iface.segment == nullptr) continue;
        if (iface.ifindex == sg.iif()) continue;
        if (!floods_to(iface.ifindex, group)) continue;
        if (prunes_.contains({{source, group}, iface.ifindex})) continue;
        sg.pin_oif(iface.ifindex); // flood state: stays until pruned
    }
    return &sg;
}

void DvmrpRouter::on_no_entry(int ifindex, const net::Packet& packet) {
    const net::GroupAddress group{packet.dst};
    mcast::ForwardingEntry* sg = build_entry(packet.src, group);
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
    if (sg->oif_list_empty(now) && sg->upstream_neighbor().has_value()) {
        send_prune_upstream(*sg);
        pruned_upstream_.insert({packet.src, group});
    }
}

void DvmrpRouter::on_no_downstream(mcast::ForwardingEntry& entry, int ifindex,
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

void DvmrpRouter::on_message(int ifindex, const net::Packet& packet) {
    PROF_ZONE("control.dvmrp");
    auto code = peek_code(packet.payload);
    if (!code) return;
    const sim::Time now = router_->simulator().now();
    switch (*code) {
    case Code::kProbe: {
        auto msg = Probe::decode(packet.payload);
        if (!msg) return;
        neighbors_[ifindex][packet.src] =
            now + static_cast<sim::Time>(msg->holdtime_ms) * sim::kMillisecond;
        break;
    }
    case Code::kPrune: {
        auto msg = PruneMsg::decode(packet.payload);
        if (!msg || !msg->group.is_multicast()) return;
        const net::GroupAddress group{msg->group};
        mcast::ForwardingEntry* sg = cache_.find_sg(msg->source, group);
        if (sg == nullptr || ifindex == sg->iif()) return;
        prunes_[{{msg->source, group}, ifindex}] =
            now + static_cast<sim::Time>(msg->lifetime_ms) * sim::kMillisecond;
        sg->remove_oif(ifindex);
        if (sg->oif_list_empty(now) && sg->upstream_neighbor().has_value() &&
            !pruned_upstream_.contains({msg->source, group})) {
            send_prune_upstream(*sg);
            pruned_upstream_.insert({msg->source, group});
        }
        break;
    }
    case Code::kGraft: {
        auto msg = GraftMsg::decode(packet.payload);
        if (!msg || !msg->group.is_multicast()) return;
        const net::GroupAddress group{msg->group};
        mcast::ForwardingEntry* sg = cache_.find_sg(msg->source, group);
        if (sg == nullptr) return;
        prunes_.erase({{msg->source, group}, ifindex});
        sg->pin_oif(ifindex);
        if (pruned_upstream_.erase({msg->source, group}) > 0 &&
            sg->upstream_neighbor().has_value()) {
            send_graft_upstream(*sg);
        }
        break;
    }
    }
}

void DvmrpRouter::on_membership(int ifindex, net::GroupAddress group, bool present) {
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

void DvmrpRouter::on_tick() {
    const sim::Time now = router_->simulator().now();
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
    for (const auto& key : cache_.reap_expired_entries(now)) {
        pruned_upstream_.erase(key);
    }
    cache_.for_each_sg([&](mcast::ForwardingEntry& sg) {
        if (now - sg.last_data_at() < config_.entry_lifetime) {
            sg.set_delete_at(now + config_.entry_lifetime);
        }
    });
}

void DvmrpRouter::send_prune_upstream(const mcast::ForwardingEntry& entry) {
    PruneMsg msg{entry.source_or_rp(), entry.group().address(),
                 static_cast<std::uint32_t>(config_.prune_lifetime / sim::kMillisecond)};
    net::Packet packet;
    packet.src = router_->interface(entry.iif()).address;
    packet.dst = net::kAllRouters;
    packet.proto = net::IpProto::kIgmp;
    packet.ttl = 1;
    packet.payload = msg.encode();
    router_->network().stats().count_control_message("dvmrp");
    router_->network().telemetry().emit(
        telemetry::EventType::kPruneSent, router_->name(), "dvmrp",
        entry.group().to_string(), "src=" + entry.source_or_rp().to_string());
    router_->send(entry.iif(), net::Frame{std::nullopt, std::move(packet)});
}

void DvmrpRouter::send_graft_upstream(const mcast::ForwardingEntry& entry) {
    GraftMsg msg{entry.source_or_rp(), entry.group().address()};
    net::Packet packet;
    packet.src = router_->interface(entry.iif()).address;
    packet.dst = net::kAllRouters;
    packet.proto = net::IpProto::kIgmp;
    packet.ttl = 1;
    packet.payload = msg.encode();
    router_->network().stats().count_control_message("dvmrp");
    router_->network().telemetry().emit(
        telemetry::EventType::kGraftSent, router_->name(), "dvmrp",
        entry.group().to_string(), "src=" + entry.source_or_rp().to_string());
    router_->send(entry.iif(), net::Frame{std::nullopt, std::move(packet)});
}

} // namespace pimlib::dvmrp
