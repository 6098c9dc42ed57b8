#include "pim/pim_dm.hpp"

#include "igmp/messages.hpp"
#include "pim/messages.hpp"
#include "telemetry/profiler/profiler.hpp"

namespace pimlib::pim {

namespace {
/// A one-record Join/Prune to the entry's upstream neighbor: a prune of
/// (S,G), or with `graft` a join that grafts the branch back on.
std::vector<std::uint8_t> join_prune(const mcast::ForwardingEntry& entry, bool graft,
                                     sim::Time holdtime) {
    JoinPruneBundle::GroupRecord rec{entry.group().address(), {}, {}};
    (graft ? rec.joins : rec.prunes).push_back(AddressEntry{entry.source_or_rp(), {}});
    JoinPruneBundle msg;
    msg.upstream_neighbor = entry.upstream_neighbor().value_or(net::Ipv4Address{});
    msg.holdtime_ms = mcast::wire_ms(holdtime);
    msg.groups.push_back(std::move(rec));
    return msg.encode();
}
} // namespace

PimDmRouter::PimDmRouter(topo::Router& router, igmp::RouterAgent& igmp,
                         mcast::FloodPruneConfig config)
    : FloodPrune(router, igmp, config, "pim-dm") {
    router.register_protocol(net::IpProto::kIgmp, igmp::kTypePim,
                             [this](int ifindex, const net::Packet& packet) {
                                 on_pim_message(ifindex, packet);
                             });
}

void PimDmRouter::on_pim_message(int ifindex, const net::Packet& packet) {
    PROF_ZONE("control.pim_dm");
    if (ifindex < 0) return;
    auto code = peek_code(packet.payload);
    if (!code) return;
    if (*code == Code::kQuery) {
        if (auto msg = Query::decode(packet.payload)) {
            on_hello(ifindex, packet.src, mcast::from_wire_ms(msg->holdtime_ms));
        }
        return;
    }
    if (*code != Code::kJoinPruneBundle) return;
    auto msg = JoinPruneBundle::decode(packet.payload);
    if (!msg || msg->upstream_neighbor != router().interface(ifindex).address) return;
    for (const JoinPruneBundle::GroupRecord& rec : msg->groups) {
        if (!rec.group.is_multicast()) continue;
        const net::GroupAddress group{rec.group};
        for (const AddressEntry& e : rec.prunes) {
            on_prune(ifindex, e.address, group, config().prune_lifetime);
        }
        for (const AddressEntry& e : rec.joins) on_graft(ifindex, e.address, group);
    }
}

std::vector<std::uint8_t> PimDmRouter::hello_payload() const {
    return Query{mcast::wire_ms(config().neighbor_holdtime)}.encode();
}

std::vector<std::uint8_t> PimDmRouter::prune_payload(const mcast::ForwardingEntry& entry) const {
    return join_prune(entry, /*graft=*/false, config().prune_lifetime);
}

std::vector<std::uint8_t> PimDmRouter::graft_payload(const mcast::ForwardingEntry& entry) const {
    return join_prune(entry, /*graft=*/true, config().entry_lifetime);
}

} // namespace pimlib::pim
