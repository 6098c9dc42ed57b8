#include "igmp/router_agent.hpp"

#include <algorithm>

#include "telemetry/profiler/profiler.hpp"
#include "topo/network.hpp"
#include "topo/segment.hpp"

namespace pimlib::igmp {

RouterAgent::RouterAgent(topo::Router& router, RouterConfig config)
    : router_(&router), config_(config), tick_(router.simulator(), [this] { on_tick(); }) {
    auto handler = [this](int ifindex, const net::Packet& packet) {
        on_message(ifindex, packet);
    };
    router_->register_protocol(net::IpProto::kIgmp, kTypeQuery, handler);
    router_->register_protocol(net::IpProto::kIgmp, kTypeReport, handler);
    router_->register_protocol(net::IpProto::kIgmp, kTypeRpMap, handler);
    tick_.start(config_.query_interval);
    router_->simulator().schedule(0, [this] { on_tick(); });
}

void RouterAgent::on_tick() {
    const sim::Time now = router_->simulator().now();

    // Age out memberships, (ifindex, group) ascending. Each callback runs
    // after its own entry is erased and before the next is examined; indices,
    // not iterators, so a callback may call back into this agent.
    for (std::size_t ifindex = 0; ifindex < interfaces_.size(); ++ifindex) {
        for (std::size_t i = 0; i < interfaces_[ifindex].members.size();) {
            std::vector<Member>& members = interfaces_[ifindex].members;
            if (now < members[i].expires) {
                ++i;
                continue;
            }
            const net::GroupAddress group = members[i].group;
            members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
            for (const auto& cb : callbacks_) cb(static_cast<int>(ifindex), group, false);
        }
    }

    // Send general queries where we are (still) the querier.
    for (const auto& iface : router_->interfaces()) {
        if (!iface.up || iface.segment == nullptr) continue;
        const Interface* state = interface_at(iface.ifindex);
        if (state != nullptr && now < state->other_querier_until) continue;
        send_query(iface.ifindex);
    }
}

void RouterAgent::reboot() {
    interfaces_.clear();
    tick_.start(config_.query_interval); // restart phase from the reboot instant
    // Query right away (as a fresh querier would) so host reports repopulate
    // the membership database within one report round-trip.
    router_->simulator().schedule(0, [this] { on_tick(); });
}

void RouterAgent::send_query(int ifindex) {
    router_->send_control(ifindex, net::kAllSystems, net::IpProto::kIgmp, "igmp",
                          Query{net::Ipv4Address{}}.encode());
}

RouterAgent::Interface& RouterAgent::interface_state(int ifindex) {
    const auto index = static_cast<std::size_t>(ifindex);
    if (index >= interfaces_.size()) interfaces_.resize(index + 1);
    return interfaces_[index];
}

void RouterAgent::note_member(int ifindex, net::GroupAddress group) {
    std::vector<Member>& members = interface_state(ifindex).members;
    const sim::Time expires = router_->simulator().now() + config_.membership_timeout;
    auto it = std::lower_bound(members.begin(), members.end(), group);
    if (it != members.end() && it->group == group) {
        it->expires = expires;
        return;
    }
    members.insert(it, Member{group, expires});
    for (const auto& cb : callbacks_) cb(ifindex, group, true);
}

void RouterAgent::on_message(int ifindex, const net::Packet& packet) {
    PROF_ZONE("control.igmp");
    if (packet.payload.empty()) return;
    switch (packet.payload.front()) {
    case kTypeReport: {
        auto report = Report::decode(packet.payload);
        if (ifindex < 0 || !report || !report->group.is_multicast()) return;
        note_member(ifindex, net::GroupAddress{report->group});
        break;
    }
    case kTypeQuery: {
        // Querier election: a query from a lower address silences us.
        if (ifindex >= 0 && packet.src < router_->interface(ifindex).address) {
            interface_state(ifindex).other_querier_until =
                router_->simulator().now() + config_.other_querier_timeout;
        }
        break;
    }
    case kTypeRpMap: {
        auto map = RpMapReport::decode(packet.payload);
        if (!map || !map->group.is_multicast()) return;
        if (rp_map_cb_) rp_map_cb_(net::GroupAddress{map->group}, map->rps);
        break;
    }
    default:
        break;
    }
}

const RouterAgent::Interface* RouterAgent::interface_at(int ifindex) const {
    if (ifindex < 0 || static_cast<std::size_t>(ifindex) >= interfaces_.size()) return nullptr;
    return &interfaces_[ifindex];
}

const RouterAgent::Member* RouterAgent::find_member(int ifindex,
                                                    net::GroupAddress group) const {
    const Interface* state = interface_at(ifindex);
    if (state == nullptr) return nullptr;
    const std::vector<Member>& members = state->members;
    auto it = std::lower_bound(members.begin(), members.end(), group);
    return it != members.end() && it->group == group ? &*it : nullptr;
}

bool RouterAgent::has_members(int ifindex, net::GroupAddress group) const {
    return find_member(ifindex, group) != nullptr;
}

std::vector<net::GroupAddress> RouterAgent::groups_on(int ifindex) const {
    std::vector<net::GroupAddress> out;
    if (const Interface* state = interface_at(ifindex)) {
        for (const Member& member : state->members) out.push_back(member.group);
    }
    return out;
}

std::vector<int> RouterAgent::member_interfaces(net::GroupAddress group) const {
    std::vector<int> out;
    for (std::size_t ifindex = 0; ifindex < interfaces_.size(); ++ifindex) {
        if (find_member(static_cast<int>(ifindex), group) != nullptr) {
            out.push_back(static_cast<int>(ifindex));
        }
    }
    return out;
}

} // namespace pimlib::igmp
