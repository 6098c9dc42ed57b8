#include "mospf/mospf.hpp"

#include <limits>
#include <queue>

#include "net/buffer.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "topo/segment.hpp"

namespace pimlib::mospf {

namespace {
constexpr std::uint8_t kTypeMembershipLsa = 3; // within IpProto::kOspf
constexpr int kInf = std::numeric_limits<int>::max() / 4;
} // namespace

std::vector<std::uint8_t> MembershipLsa::encode() const {
    net::BufWriter w(11 + groups.size() * 4);
    w.put_u8(kTypeMembershipLsa);
    w.put_addr(origin);
    w.put_u32(seq);
    w.put_u16(static_cast<std::uint16_t>(groups.size()));
    for (net::Ipv4Address g : groups) w.put_addr(g);
    return w.take();
}

std::optional<MembershipLsa> MembershipLsa::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    auto type = r.get_u8();
    if (!type || *type != kTypeMembershipLsa) return std::nullopt;
    MembershipLsa lsa;
    auto origin = r.get_addr();
    auto seq = r.get_u32();
    auto count = r.get_u16();
    if (!origin || !seq || !count) return std::nullopt;
    lsa.origin = *origin;
    lsa.seq = *seq;
    for (std::uint16_t i = 0; i < *count; ++i) {
        auto g = r.get_addr();
        if (!g) return std::nullopt;
        lsa.groups.push_back(*g);
    }
    if (!r.at_end()) return std::nullopt;
    return lsa;
}

MospfRouter::MospfRouter(topo::Router& router, igmp::RouterAgent& igmp,
                         MospfConfig config)
    : router_(&router),
      igmp_(&igmp),
      config_(config),
      data_plane_(router, cache_),
      refresh_timer_(router.simulator(), [this] { originate_lsa(); }) {
    data_plane_.set_delegate(this);
    router_->register_protocol(net::IpProto::kOspf,
                               [this](int ifindex, const net::Packet& packet) {
                                   on_message(ifindex, packet);
                               });
    igmp_->subscribe([this](int ifindex, net::GroupAddress group, bool present) {
        on_membership(ifindex, group, present);
    });
    refresh_timer_.start(config_.lsa_refresh);
    router_->simulator().schedule(0, [this] { originate_lsa(); });
}

std::set<net::Ipv4Address> MospfRouter::member_routers(net::GroupAddress group) const {
    std::set<net::Ipv4Address> out;
    for (const auto& [rid, entry] : lsdb_) {
        if (entry.second.contains(group.address())) out.insert(rid);
    }
    return out;
}

void MospfRouter::on_membership(int ifindex, net::GroupAddress group, bool present) {
    (void)ifindex;
    (void)present;
    // Membership changed: re-advertise and invalidate cached trees for the
    // group (MOSPF recomputes on membership change).
    cache_.for_each_sg_of(group, [&](mcast::ForwardingEntry& e) {
        e.set_delete_at(1); // reaped below
    });
    (void)cache_.reap_expired_entries(router_->simulator().now() + 1);
    originate_lsa();
}

void MospfRouter::originate_lsa() {
    MembershipLsa lsa;
    lsa.origin = router_->router_id();
    lsa.seq = ++own_seq_;
    std::set<net::Ipv4Address> groups;
    for (const auto& iface : router_->interfaces()) {
        for (net::GroupAddress g : igmp_->groups_on(iface.ifindex)) {
            groups.insert(g.address());
        }
    }
    lsa.groups.assign(groups.begin(), groups.end());
    lsdb_[lsa.origin] = {lsa.seq, groups};
    (void)cache_.reap_expired_entries(router_->simulator().now());
    flood(lsa, /*except_ifindex=*/-1);
}

void MospfRouter::flood(const MembershipLsa& lsa, int except_ifindex) {
    if (except_ifindex < 0) {
        // Origination (not re-flooding a neighbor's copy).
        router_->network().telemetry().emit(
            telemetry::EventType::kLsaOriginated, router_->name(), "mospf", "",
            "seq=" + std::to_string(lsa.seq) +
                " groups=" + std::to_string(lsa.groups.size()));
    }
    for (const auto& iface : router_->interfaces()) {
        if (!iface.up || iface.segment == nullptr) continue;
        if (iface.ifindex == except_ifindex) continue;
        net::Packet packet;
        packet.src = iface.address;
        packet.dst = net::kAllRouters;
        packet.proto = net::IpProto::kOspf;
        packet.ttl = 1;
        packet.payload = lsa.encode();
        router_->network().stats().count_control_message("mospf-lsa");
        router_->send(iface.ifindex, net::Frame{std::nullopt, std::move(packet)});
    }
}

void MospfRouter::on_message(int ifindex, const net::Packet& packet) {
    PROF_ZONE("control.mospf");
    auto lsa = MembershipLsa::decode(packet.payload);
    if (!lsa) return;
    if (lsa->origin == router_->router_id()) return;
    auto it = lsdb_.find(lsa->origin);
    if (it != lsdb_.end() && it->second.first >= lsa->seq) return;
    const std::set<net::Ipv4Address> groups(lsa->groups.begin(), lsa->groups.end());
    // Invalidate cached trees only for groups whose membership actually
    // changed (periodic refresh LSAs carry identical content and must not
    // flush the forwarding cache).
    std::set<net::Ipv4Address> affected;
    const std::set<net::Ipv4Address> old_groups =
        it != lsdb_.end() ? it->second.second : std::set<net::Ipv4Address>{};
    for (net::Ipv4Address g : groups) {
        if (!old_groups.contains(g)) affected.insert(g);
    }
    for (net::Ipv4Address g : old_groups) {
        if (!groups.contains(g)) affected.insert(g);
    }
    lsdb_[lsa->origin] = {lsa->seq, groups};
    for (net::Ipv4Address g : affected) {
        if (!g.is_multicast()) continue;
        cache_.for_each_sg_of(net::GroupAddress{g},
                              [&](mcast::ForwardingEntry& e) { e.set_delete_at(1); });
    }
    if (!affected.empty()) {
        (void)cache_.reap_expired_entries(router_->simulator().now() + 1);
    }
    flood(*lsa, ifindex);
}

mcast::ForwardingEntry* MospfRouter::compute_entry(net::Ipv4Address source,
                                                   net::GroupAddress group) {
    ++spf_runs_;
    topo::Network& network = router_->network();

    // Locate the source's segment.
    const topo::Segment* source_segment = nullptr;
    for (const auto& segment : network.segments()) {
        if (segment->prefix().contains(source)) {
            source_segment = segment.get();
            break;
        }
    }
    if (source_segment == nullptr) return nullptr;

    // Deterministic Dijkstra over the router graph, identical at every
    // router (tie-break on node id), seeded from the source segment.
    std::map<const topo::Router*, int> dist;
    std::map<const topo::Router*, const topo::Router*> parent;
    std::map<const topo::Router*, const topo::Segment*> parent_segment;
    using Item = std::tuple<int, int, const topo::Router*>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;

    for (const auto& att : source_segment->attachments()) {
        auto* r = dynamic_cast<const topo::Router*>(att.node);
        if (r == nullptr || !r->interface(att.ifindex).up) continue;
        dist[r] = source_segment->metric();
        parent[r] = nullptr;
        parent_segment[r] = source_segment;
        queue.emplace(dist[r], r->id(), r);
    }

    while (!queue.empty()) {
        auto [d, id, r] = queue.top();
        queue.pop();
        if (d > dist[r]) continue;
        for (const auto& iface : r->interfaces()) {
            if (!iface.up || iface.segment == nullptr || !iface.segment->is_up()) continue;
            for (const auto& att : iface.segment->attachments()) {
                auto* peer = dynamic_cast<const topo::Router*>(att.node);
                if (peer == nullptr || peer == r) continue;
                if (!peer->interface(att.ifindex).up) continue;
                const int nd = d + iface.segment->metric();
                auto dit = dist.find(peer);
                const bool better =
                    dit == dist.end() || nd < dit->second ||
                    (nd == dit->second && parent[peer] != nullptr &&
                     r->id() < parent[peer]->id());
                if (!better) continue;
                dist[peer] = nd;
                parent[peer] = r;
                parent_segment[peer] = iface.segment;
                queue.emplace(nd, peer->id(), peer);
            }
        }
    }

    if (!dist.contains(router_)) return nullptr;

    // Member routers (from flooded LSAs) resolved to nodes.
    std::set<const topo::Router*> members;
    for (const auto& r : network.routers()) {
        auto it = lsdb_.find(r->router_id());
        if (it != lsdb_.end() && it->second.second.contains(group.address())) {
            members.insert(r.get());
        }
    }
    if (igmp_->member_interfaces(group).empty() && members.empty()) return nullptr;

    // Child segments of this router on the pruned SPT: a child c is on the
    // tree iff its subtree contains a member router.
    std::set<const topo::Router*> on_tree;
    for (const topo::Router* m : members) {
        const topo::Router* walk = m;
        while (walk != nullptr && !on_tree.contains(walk)) {
            if (!dist.contains(walk)) break;
            on_tree.insert(walk);
            walk = parent.at(walk);
        }
    }
    if (!on_tree.contains(router_) && igmp_->member_interfaces(group).empty()) {
        return nullptr;
    }

    const sim::Time now = router_->simulator().now();
    mcast::ForwardingEntry& sg = cache_.ensure_sg(source, group);
    sg.set_spt_bit(true);
    auto iif = router_->ifindex_on(*parent_segment.at(router_));
    if (!iif.has_value()) return nullptr;
    sg.set_iif(*iif);
    // Children whose parent edge runs through us.
    for (const auto& r : network.routers()) {
        if (!on_tree.contains(r.get())) continue;
        auto pit = parent.find(r.get());
        if (pit == parent.end() || pit->second != router_) continue;
        auto oif = router_->ifindex_on(*parent_segment.at(r.get()));
        if (oif.has_value() && *oif != sg.iif()) sg.pin_oif(*oif);
    }
    for (int m : igmp_->member_interfaces(group)) {
        if (m != sg.iif()) sg.pin_oif(m);
    }
    if (sg.oifs().empty()) {
        // Not actually on the pruned tree; remember the negative result as a
        // no-oif entry so we do not recompute per packet.
        sg.set_delete_at(now + config_.lsa_refresh);
    }
    return &sg;
}

void MospfRouter::on_no_entry(int ifindex, const net::Packet& packet) {
    const net::GroupAddress group{packet.dst};
    mcast::ForwardingEntry* sg = compute_entry(packet.src, group);
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
    data_plane_.forward_recorded(*sg, ifindex, packet, provenance::EntryKind::kSg);
}

} // namespace pimlib::mospf
