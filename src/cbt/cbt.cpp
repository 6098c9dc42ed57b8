#include "cbt/cbt.hpp"

#include "provenance/provenance.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "topo/network.hpp"
#include "topo/segment.hpp"

namespace pimlib::cbt {

namespace {
constexpr std::uint8_t kCbtVersion = 1;

void put_header(net::BufWriter& w, Code code) {
    w.put_u8(kCbtVersion);
    w.put_u8(static_cast<std::uint8_t>(code));
}

bool check_header(net::BufReader& r, Code code) {
    auto v = r.get_u8();
    auto c = r.get_u8();
    return v && c && *v == kCbtVersion && *c == static_cast<std::uint8_t>(code);
}
} // namespace

std::optional<Code> peek_code(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < 2 || bytes[0] != kCbtVersion) return std::nullopt;
    if (bytes[1] < 1 || bytes[1] > 6) return std::nullopt;
    return static_cast<Code>(bytes[1]);
}

std::vector<std::uint8_t> JoinRequest::encode() const {
    net::BufWriter w(10);
    put_header(w, Code::kJoinRequest);
    w.put_addr(group);
    w.put_addr(core);
    return w.take();
}

std::optional<JoinRequest> JoinRequest::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kJoinRequest)) return std::nullopt;
    auto group = r.get_addr();
    auto core = r.get_addr();
    if (!group || !core || !r.at_end()) return std::nullopt;
    return JoinRequest{*group, *core};
}

std::vector<std::uint8_t> JoinAck::encode() const {
    net::BufWriter w(10);
    put_header(w, Code::kJoinAck);
    w.put_addr(group);
    w.put_addr(core);
    return w.take();
}

std::optional<JoinAck> JoinAck::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kJoinAck)) return std::nullopt;
    auto group = r.get_addr();
    auto core = r.get_addr();
    if (!group || !core || !r.at_end()) return std::nullopt;
    return JoinAck{*group, *core};
}

std::vector<std::uint8_t> GroupOnly::encode() const {
    net::BufWriter w(6);
    put_header(w, code);
    w.put_addr(group);
    return w.take();
}

std::optional<GroupOnly> GroupOnly::decode(std::span<const std::uint8_t> bytes) {
    auto code = peek_code(bytes);
    if (!code) return std::nullopt;
    net::BufReader r(bytes);
    (void)r.get_u8();
    (void)r.get_u8();
    auto group = r.get_addr();
    if (!group || !r.at_end()) return std::nullopt;
    return GroupOnly{*code, *group};
}

std::vector<std::uint8_t> DataEncap::encode() const {
    net::BufWriter w(19 + inner_payload.size());
    w.put_addr(group);
    w.put_addr(inner_src);
    w.put_u8(inner_ttl);
    w.put_u64(inner_seq);
    w.put_u16(static_cast<std::uint16_t>(inner_payload.size()));
    w.put_bytes(inner_payload);
    return w.take();
}

std::optional<DataEncap> DataEncap::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    DataEncap out;
    auto group = r.get_addr();
    auto src = r.get_addr();
    auto ttl = r.get_u8();
    auto seq = r.get_u64();
    auto len = r.get_u16();
    if (!group || !src || !ttl || !seq || !len) return std::nullopt;
    auto payload = r.get_bytes(*len);
    if (!payload || !r.at_end()) return std::nullopt;
    out.group = *group;
    out.inner_src = *src;
    out.inner_ttl = *ttl;
    out.inner_seq = *seq;
    out.inner_payload = *payload;
    return out;
}

CbtConfig CbtConfig::scaled(double factor) const {
    auto scale = [factor](sim::Time t) {
        return static_cast<sim::Time>(static_cast<double>(t) * factor);
    };
    CbtConfig out = *this;
    out.echo_interval = scale(echo_interval);
    out.echo_timeout = scale(echo_timeout);
    out.child_timeout = scale(child_timeout);
    out.join_retry = scale(join_retry);
    return out;
}

CbtRouter::CbtRouter(topo::Router& router, igmp::RouterAgent& igmp, CbtConfig config)
    : router_(&router),
      igmp_(&igmp),
      config_(config),
      data_plane_(router, cache_),
      tick_timer_(router.simulator(), [this] { on_tick(); }) {
    data_plane_.set_delegate(this);
    router_->register_protocol(net::IpProto::kCbt,
                               [this](int ifindex, const net::Packet& packet) {
                                   on_control(ifindex, packet);
                               });
    // Encapsulated sender-to-core data arrives as unicast UDP addressed to us.
    router_->register_protocol(net::IpProto::kUdp,
                               [this](int ifindex, const net::Packet& packet) {
                                   (void)ifindex;
                                   on_data_encap(packet);
                               });
    igmp_->subscribe([this](int ifindex, net::GroupAddress group, bool present) {
        on_membership(ifindex, group, present);
    });
    reboot(); // a fresh router boots like a rebooted one
}

void CbtRouter::reboot() {
    trees_.clear();
    cache_.clear();
    tick_timer_.start(config_.echo_interval);
}

void CbtRouter::set_core(net::GroupAddress group, net::Ipv4Address core) {
    cores_[group] = core;
}

std::optional<net::Ipv4Address> CbtRouter::core_of(net::GroupAddress group) const {
    auto it = cores_.find(group);
    if (it == cores_.end()) return std::nullopt;
    return it->second;
}

bool CbtRouter::is_core(net::GroupAddress group) const {
    auto core = core_of(group);
    return core.has_value() && *core == router_->router_id();
}

const CbtRouter::TreeState* CbtRouter::tree_state(net::GroupAddress group) const {
    auto it = trees_.find(group);
    return it == trees_.end() ? nullptr : &it->second;
}

bool CbtRouter::on_tree(net::GroupAddress group) const {
    const TreeState* state = tree_state(group);
    return state != nullptr && state->status == TreeState::Status::kOnTree;
}

void CbtRouter::on_membership(int ifindex, net::GroupAddress group, bool present) {
    if (present) {
        auto core = core_of(group);
        if (!core.has_value()) return;
        TreeState& state = trees_[group];
        state.core = *core;
        state.member_ifaces.insert(ifindex);
        if (is_core(group)) {
            state.status = TreeState::Status::kOnTree;
        } else if (state.status != TreeState::Status::kOnTree) {
            start_join(group);
        }
        sync_entry(group);
        return;
    }
    auto it = trees_.find(group);
    if (it == trees_.end()) return;
    it->second.member_ifaces.erase(ifindex);
    sync_entry(group);
    maybe_quit(group);
}

void CbtRouter::start_join(net::GroupAddress group) {
    TreeState& state = trees_[group];
    state.status = TreeState::Status::kPending;
    send_join_request(group, state);
}

void CbtRouter::send_join_request(net::GroupAddress group, TreeState& state) {
    auto route = router_->route_to(state.core);
    if (!route || route->next_hop.is_unspecified()) return;
    router_->network().telemetry().emit({.type = telemetry::EventType::kJoinSent,
                                         .protocol = telemetry::Protocol::kCbt,
                                         .node = router_->id(), .group = group,
                                         .addr = state.core});
    // Hop-by-hop: processed at each CBT router.
    router_->send_control(route->ifindex, route->next_hop, net::IpProto::kCbt, "cbt",
                          JoinRequest{group.address(), state.core}.encode());
}

void CbtRouter::ack_pending_children(net::GroupAddress group, TreeState& state) {
    const sim::Time now = router_->simulator().now();
    for (const auto& [ifindex, addr] : state.pending_children) {
        state.children[ifindex].insert(addr);
        state.child_expiry[addr] = now + config_.child_timeout;
        router_->send_control(ifindex, addr, net::IpProto::kCbt, "cbt",
                              JoinAck{group.address(), state.core}.encode());
    }
    state.pending_children.clear();
    sync_entry(group);
}

void CbtRouter::sync_entry(net::GroupAddress group) {
    cache_.remove_wc(group);
    auto it = trees_.find(group);
    if (it == trees_.end() || it->second.status != TreeState::Status::kOnTree) return;
    const TreeState& state = it->second;
    mcast::ForwardingEntry& entry = cache_.ensure_wc(state.core, group);
    entry.set_rp_bit(false); // the core is no RP: no §3.3 negative caches
    entry.set_bidirectional(true);
    entry.set_iif(state.parent_ifindex);
    // Branches are hard state: pinned until a Quit, the echo sweep or a
    // Flush takes them out of the TreeState.
    for (const auto& [ifindex, addrs] : state.children) entry.pin_oif(ifindex);
    for (const int ifindex : state.member_ifaces) entry.pin_oif(ifindex);
}

void CbtRouter::on_control(int ifindex, const net::Packet& packet) {
    PROF_ZONE("control.cbt");
    auto code = peek_code(packet.payload);
    if (!code) return;
    const sim::Time now = router_->simulator().now();

    switch (*code) {
    case Code::kJoinRequest: {
        auto msg = JoinRequest::decode(packet.payload);
        if (!msg || !msg->group.is_multicast()) return;
        const net::GroupAddress group{msg->group};
        TreeState& state = trees_[group];
        state.core = msg->core;
        state.pending_children.emplace_back(ifindex, packet.src);
        if (state.status == TreeState::Status::kOnTree ||
            msg->core == router_->router_id()) {
            state.status = TreeState::Status::kOnTree;
            ack_pending_children(group, state);
        } else {
            send_join_request(group, state); // forward toward the core
        }
        break;
    }
    case Code::kJoinAck: {
        auto msg = JoinAck::decode(packet.payload);
        if (!msg || !msg->group.is_multicast()) return;
        const net::GroupAddress group{msg->group};
        auto it = trees_.find(group);
        if (it == trees_.end()) return;
        TreeState& state = it->second;
        state.status = TreeState::Status::kOnTree;
        state.parent_ifindex = ifindex;
        state.parent_address = packet.src;
        state.parent_last_echo = now;
        ack_pending_children(group, state);
        break;
    }
    case Code::kQuit: {
        auto msg = GroupOnly::decode(packet.payload);
        if (!msg || !msg->group.is_multicast()) return;
        const net::GroupAddress group{msg->group};
        auto it = trees_.find(group);
        if (it == trees_.end()) return;
        TreeState& state = it->second;
        auto cit = state.children.find(ifindex);
        if (cit != state.children.end()) {
            cit->second.erase(packet.src);
            if (cit->second.empty()) state.children.erase(cit);
        }
        state.child_expiry.erase(packet.src);
        sync_entry(group);
        maybe_quit(group);
        break;
    }
    case Code::kEchoRequest: {
        auto msg = GroupOnly::decode(packet.payload);
        if (!msg || !msg->group.is_multicast()) return;
        const net::GroupAddress group{msg->group};
        auto it = trees_.find(group);
        if (it == trees_.end()) return;
        it->second.child_expiry[packet.src] = now + config_.child_timeout;
        router_->send_control(ifindex, packet.src, net::IpProto::kCbt, "cbt",
                              GroupOnly{Code::kEchoReply, msg->group}.encode());
        break;
    }
    case Code::kEchoReply: {
        auto msg = GroupOnly::decode(packet.payload);
        if (!msg || !msg->group.is_multicast()) return;
        auto it = trees_.find(net::GroupAddress{msg->group});
        if (it != trees_.end()) it->second.parent_last_echo = now;
        break;
    }
    case Code::kFlush: {
        auto msg = GroupOnly::decode(packet.payload);
        if (!msg || !msg->group.is_multicast()) return;
        const net::GroupAddress group{msg->group};
        auto it = trees_.find(group);
        if (it == trees_.end()) return;
        if (it->second.parent_ifindex != ifindex) return;
        flush_subtree(group, it->second);
        break;
    }
    }
}

void CbtRouter::flush_subtree(net::GroupAddress group, TreeState& state) {
    for (const auto& [ifindex, addrs] : state.children) {
        for (net::Ipv4Address addr : addrs) {
            router_->send_control(ifindex, addr, net::IpProto::kCbt, "cbt",
                                  GroupOnly{Code::kFlush, group.address()}.encode());
        }
    }
    const auto member_ifaces = state.member_ifaces;
    trees_.erase(group);
    // Rebuild: members rejoin toward the core.
    if (auto core = core_of(group); core.has_value() && !member_ifaces.empty()) {
        TreeState& fresh = trees_[group];
        fresh.core = *core;
        fresh.member_ifaces = member_ifaces;
        if (is_core(group)) {
            fresh.status = TreeState::Status::kOnTree;
        } else {
            start_join(group);
        }
    }
    sync_entry(group);
}

void CbtRouter::maybe_quit(net::GroupAddress group) {
    auto it = trees_.find(group);
    if (it == trees_.end()) return;
    TreeState& state = it->second;
    if (!state.member_ifaces.empty() || !state.children.empty() || is_core(group)) {
        return;
    }
    if (state.status == TreeState::Status::kOnTree && state.parent_ifindex >= 0) {
        router_->send_control(state.parent_ifindex, state.parent_address, net::IpProto::kCbt,
                              "cbt", GroupOnly{Code::kQuit, group.address()}.encode());
    }
    trees_.erase(it);
    sync_entry(group);
}

void CbtRouter::on_tick() {
    const sim::Time now = router_->simulator().now();
    std::vector<net::GroupAddress> to_flush;
    for (auto& [group, state] : trees_) {
        if (state.status != TreeState::Status::kOnTree) {
            // Pending join: retry.
            if (!is_core(group)) send_join_request(group, state);
            continue;
        }
        // Child liveness.
        bool expired = false;
        for (auto it = state.child_expiry.begin(); it != state.child_expiry.end();) {
            if (it->second <= now) {
                for (auto cit = state.children.begin(); cit != state.children.end();) {
                    cit->second.erase(it->first);
                    cit = cit->second.empty() ? state.children.erase(cit) : std::next(cit);
                }
                it = state.child_expiry.erase(it);
                expired = true;
            } else {
                ++it;
            }
        }
        if (expired) sync_entry(group);
        // Parent keepalive.
        if (!is_core(group) && state.parent_ifindex >= 0) {
            if (state.parent_last_echo != 0 &&
                now - state.parent_last_echo > config_.echo_timeout) {
                to_flush.push_back(group);
                continue;
            }
            router_->send_control(state.parent_ifindex, state.parent_address,
                                  net::IpProto::kCbt, "cbt",
                                  GroupOnly{Code::kEchoRequest, group.address()}.encode());
        }
    }
    for (net::GroupAddress group : to_flush) {
        auto it = trees_.find(group);
        if (it != trees_.end()) flush_subtree(group, it->second);
    }
    // Empty branches quit lazily.
    std::vector<net::GroupAddress> candidates;
    for (const auto& [group, state] : trees_) candidates.push_back(group);
    for (net::GroupAddress group : candidates) maybe_quit(group);
}

void CbtRouter::on_no_entry(int ifindex, const net::Packet& packet) {
    const net::GroupAddress group{packet.dst};
    auto core = core_of(group);
    if (!core.has_value()) {
        data_plane_.record_hop(ifindex, packet, nullptr, provenance::EntryKind::kNone,
                               /*rpf_ok=*/true, provenance::DropReason::kNoState);
        return;
    }
    if (ifindex < 0 || ifindex >= router_->interface_count()) return;
    const auto& iface = router_->interface(ifindex);
    if (iface.segment == nullptr || !iface.segment->prefix().contains(packet.src)) {
        data_plane_.record_hop(ifindex, packet, nullptr, provenance::EntryKind::kNone,
                               /*rpf_ok=*/false, provenance::DropReason::kRpfFail);
        return;
    }
    data_plane_.record_hop(ifindex, packet, nullptr, provenance::EntryKind::kRegister,
                           /*rpf_ok=*/true, provenance::DropReason::kNone);
    DataEncap encap;
    encap.group = packet.dst;
    encap.inner_src = packet.src;
    encap.inner_ttl = packet.ttl;
    encap.inner_seq = packet.seq;
    encap.inner_payload = packet.payload;
    net::Packet out;
    out.dst = *core;
    out.proto = net::IpProto::kUdp; // accounted as data on every link crossed
    out.ttl = 64;
    out.payload = encap.encode();
    out.pid = packet.pid; // tunnel leg inherits the payload's trace id
    router_->originate_unicast(std::move(out));
}

void CbtRouter::on_data_encap(const net::Packet& packet) {
    auto encap = DataEncap::decode(packet.payload);
    if (!encap || !encap->group.is_multicast()) return;
    const net::GroupAddress group{encap->group};
    const mcast::ForwardingEntry* entry = cache_.find_wc(group); // on-tree groups only
    if (entry == nullptr) return;
    net::Packet inner;
    inner.src = encap->inner_src;
    inner.dst = encap->group;
    inner.proto = net::IpProto::kUdp;
    inner.ttl = encap->inner_ttl;
    inner.seq = encap->inner_seq;
    inner.payload = std::move(encap->inner_payload);
    // pid is a pure function of (src, dst, seq): decapsulation restamps the
    // same id the sender's DR stamped, keeping the trace one packet.
    inner.pid = provenance::packet_id(inner.src, inner.dst, inner.seq);
    data_plane_.forward_recorded(*entry, /*ifindex=*/-1, inner, provenance::EntryKind::kTree);
}

} // namespace pimlib::cbt
