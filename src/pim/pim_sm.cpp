#include "pim/pim_sm.hpp"

#include <algorithm>

#include "igmp/messages.hpp"
#include "provenance/provenance.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "topo/network.hpp"
#include "topo/segment.hpp"

namespace pimlib::pim {

namespace {
constexpr sim::Time ms_to_time(std::uint32_t ms) {
    return static_cast<sim::Time>(ms) * sim::kMillisecond;
}

telemetry::Hub& hub_of(topo::Router& router) { return router.network().telemetry(); }

/// Span key for the shared-tree → SPT switch: opened and closed on the same
/// router, so the router name disambiguates concurrent switches.
std::string spt_span_key(const topo::Router& router, net::Ipv4Address source,
                         net::GroupAddress group) {
    return router.name() + "|" + source.to_string() + "|" + group.to_string();
}
} // namespace

PimConfig PimConfig::scaled(double factor) const {
    auto scale = [factor](sim::Time t) {
        return static_cast<sim::Time>(static_cast<double>(t) * factor);
    };
    PimConfig out = *this;
    out.join_prune_interval = scale(join_prune_interval);
    out.holdtime = scale(holdtime);
    out.query_interval = scale(query_interval);
    out.neighbor_holdtime = scale(neighbor_holdtime);
    out.rp_reachability_interval = scale(rp_reachability_interval);
    out.rp_timeout = scale(rp_timeout);
    out.join_suppression = scale(join_suppression);
    out.override_delay = scale(override_delay);
    out.assert_holdtime = scale(assert_holdtime);
    return out;
}

PimSmRouter::PimSmRouter(topo::Router& router, igmp::RouterAgent& igmp, PimConfig config)
    : router_(&router),
      igmp_(&igmp),
      config_(config),
      data_plane_(router, cache_),
      rng_(static_cast<std::uint32_t>(router.id()) * 2246822519u + 3),
      refresh_timer_(router.simulator(), [this] { on_refresh_tick(); }),
      query_timer_(router.simulator(), [this] { on_query_tick(); }),
      rp_reach_timer_(router.simulator(), [this] { on_rp_reachability_tick(); }) {
    data_plane_.set_delegate(this);
    router_->register_igmp_type(igmp::kTypePim,
                                [this](int ifindex, const net::Packet& packet) {
                                    on_pim_message(ifindex, packet);
                                });
    igmp_->subscribe([this](int ifindex, net::GroupAddress group, bool present) {
        on_membership(ifindex, group, present);
    });
    igmp_->set_rp_map_callback(
        [this](net::GroupAddress group, const std::vector<net::Ipv4Address>& rps) {
            rp_set_.learn(group, rps);
        });
    if (router_->unicast() != nullptr) {
        rib_token_ = router_->unicast()->subscribe_changes([this] { on_route_change(); });
    }
    refresh_timer_.start(config_.join_prune_interval);
    query_timer_.start(config_.query_interval);
    rp_reach_timer_.start(config_.rp_reachability_interval);
    router_->simulator().schedule(0, [this] { send_queries(); });
}

PimSmRouter::~PimSmRouter() {
    if (rib_token_ != 0 && router_->unicast() != nullptr) {
        router_->unicast()->unsubscribe_changes(rib_token_);
    }
}

void PimSmRouter::reboot() {
    ++epoch_;
    for (const auto& [key, event] : pending_prunes_) {
        router_->simulator().cancel(event);
    }
    pending_prunes_.clear();
    override_scheduled_.clear();
    suppress_until_.clear();
    neighbors_.clear();
    spt_counters_.clear();
    rp_source_active_.clear();
    registering_.clear();
    asserts_.clear();
    cache_.clear();
    // Restart the periodic machinery from the reboot instant and introduce
    // ourselves immediately; state then rebuilds from IGMP reports, incoming
    // joins, and the refresh-tick retry path.
    refresh_timer_.start(config_.join_prune_interval);
    query_timer_.start(config_.query_interval);
    rp_reach_timer_.start(config_.rp_reachability_interval);
    const std::uint64_t epoch = epoch_;
    router_->simulator().schedule(0, [this, epoch] {
        if (epoch != epoch_) return;
        send_queries();
    });
}

std::uint32_t PimSmRouter::holdtime_ms() const {
    return static_cast<std::uint32_t>(config_.holdtime / sim::kMillisecond);
}

bool PimSmRouter::is_rp_for(net::GroupAddress group) const {
    const auto rps = rp_set_.rps_for(group);
    return std::find(rps.begin(), rps.end(), router_->router_id()) != rps.end();
}

net::Ipv4Address PimSmRouter::primary_reachable_rp(net::GroupAddress group) const {
    for (net::Ipv4Address rp : rp_set_.rps_for(group)) {
        if (rp == router_->router_id() || router_->route_to(rp).has_value()) return rp;
    }
    return net::Ipv4Address{};
}

// ---------------------------------------------------------------------------
// Neighbor discovery and DR election (§3.7, footnote 14)
// ---------------------------------------------------------------------------

std::vector<net::Ipv4Address> PimSmRouter::neighbors_on(int ifindex) const {
    std::vector<net::Ipv4Address> out;
    auto it = neighbors_.find(ifindex);
    if (it == neighbors_.end()) return out;
    const sim::Time now = const_cast<topo::Router*>(router_)->simulator().now();
    for (const auto& [addr, deadline] : it->second) {
        if (deadline > now) out.push_back(addr);
    }
    return out;
}

int PimSmRouter::pim_neighbor_count(int ifindex) const {
    return static_cast<int>(neighbors_on(ifindex).size());
}

net::Ipv4Address PimSmRouter::dr_address_on(int ifindex) const {
    net::Ipv4Address best = router_->interface(ifindex).address;
    for (net::Ipv4Address addr : neighbors_on(ifindex)) best = std::max(best, addr);
    return best;
}

bool PimSmRouter::is_dr_on(int ifindex) const {
    return dr_address_on(ifindex) == router_->interface(ifindex).address;
}

void PimSmRouter::on_query_tick() {
    const sim::Time now = router_->simulator().now();
    // Capture DR status per interface before expiring neighbors, so we can
    // detect a DR change and take over stranded local memberships.
    std::map<int, bool> was_dr;
    for (const auto& iface : router_->interfaces()) {
        was_dr[iface.ifindex] = is_dr_on(iface.ifindex);
    }
    for (auto& [ifindex, nbrs] : neighbors_) {
        for (auto it = nbrs.begin(); it != nbrs.end();) {
            if (it->second <= now) {
                it = nbrs.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto& iface : router_->interfaces()) {
        if (!was_dr[iface.ifindex] && is_dr_on(iface.ifindex)) {
            hub_of(*router_).emit(telemetry::EventType::kDrElected, router_->name(),
                                  "pim", "",
                                  "became DR on if=" + std::to_string(iface.ifindex) +
                                      " (neighbor expired)");
            for (net::GroupAddress group : igmp_->groups_on(iface.ifindex)) {
                on_membership(iface.ifindex, group, true);
            }
        }
    }
    send_queries();
}

void PimSmRouter::send_queries() {
    const auto holdtime =
        static_cast<std::uint32_t>(config_.neighbor_holdtime / sim::kMillisecond);
    for (const auto& iface : router_->interfaces()) {
        if (!iface.up || iface.segment == nullptr) continue;
        net::Packet packet;
        packet.src = iface.address;
        packet.dst = net::kAllRouters;
        packet.proto = net::IpProto::kIgmp;
        packet.ttl = 1;
        packet.payload = Query{holdtime}.encode();
        router_->network().stats().count_control_message("pim");
        router_->send(iface.ifindex, net::Frame{std::nullopt, std::move(packet)});
    }
}

void PimSmRouter::handle_query(int ifindex, const net::Packet& packet, const Query& query) {
    if (ifindex < 0) return;
    const bool was_dr = is_dr_on(ifindex);
    neighbors_[ifindex][packet.src] =
        router_->simulator().now() + ms_to_time(query.holdtime_ms);
    if (was_dr && !is_dr_on(ifindex)) {
        hub_of(*router_).emit(telemetry::EventType::kDrElected, router_->name(),
                              "pim", "",
                              "ceded DR on if=" + std::to_string(ifindex) + " to " +
                                  dr_address_on(ifindex).to_string());
        // A higher-addressed neighbor appeared: it is now the DR. Unpin our
        // local-member oifs on this interface; the new DR re-creates them,
        // and our redundant state ages out (avoids LAN duplicates — the '94
        // architecture has no Assert mechanism).
        cache_.for_each_wc([&](mcast::ForwardingEntry& e) { e.unpin_oif(ifindex); });
        cache_.for_each_sg([&](mcast::ForwardingEntry& e) { e.unpin_oif(ifindex); });
    }
}

// ---------------------------------------------------------------------------
// Local membership → shared tree (§3.1, §3.2)
// ---------------------------------------------------------------------------

void PimSmRouter::set_interface_dense(int ifindex, bool dense) {
    if (dense) {
        dense_ifaces_.insert(ifindex);
    } else {
        dense_ifaces_.erase(ifindex);
    }
}

void PimSmRouter::set_dense_membership(int ifindex, net::GroupAddress group,
                                       bool present) {
    if (!present) {
        dense_members_[ifindex].erase(group);
        if (auto* wc = cache_.find_wc(group)) wc->unpin_oif(ifindex);
        cache_.for_each_sg_of(group,
                              [&](mcast::ForwardingEntry& e) { e.unpin_oif(ifindex); });
        return;
    }
    dense_members_[ifindex].insert(group);
    if (!rp_set_.has_mapping(group)) return;
    // Same machinery as an IGMP member, minus the DR check: the border
    // router is by definition responsible for its region.
    join_group_as_dr(ifindex, group);
}

void PimSmRouter::on_membership(int ifindex, net::GroupAddress group, bool present) {
    if (!present) {
        if (auto* wc = cache_.find_wc(group)) wc->unpin_oif(ifindex);
        cache_.for_each_sg_of(group,
                              [&](mcast::ForwardingEntry& e) { e.unpin_oif(ifindex); });
        return;
    }
    // "A DR will identify a new group as needing PIM sparse mode support by
    // checking if there exists an RP mapping" (§3.1).
    if (!rp_set_.has_mapping(group)) return;
    if (!is_dr_on(ifindex)) return;
    join_group_as_dr(ifindex, group);
}

void PimSmRouter::join_group_as_dr(int ifindex, net::GroupAddress group) {
    const net::Ipv4Address rp = primary_reachable_rp(group);
    if (rp.is_unspecified()) return; // no reachable RP yet; retried on refresh
    mcast::ForwardingEntry* wc = establish_wc(group, rp);
    if (wc == nullptr) return;
    wc->pin_oif(ifindex);
    // Local members receive sources already on shortest-path trees too.
    cache_.for_each_sg_of(group, [&](mcast::ForwardingEntry& e) {
        if (e.iif() == ifindex) return;
        if (e.rp_bit()) e.clear_pruned(ifindex);
        e.pin_oif(ifindex);
    });
}

mcast::ForwardingEntry* PimSmRouter::establish_wc(net::GroupAddress group,
                                                  net::Ipv4Address rp) {
    if (auto* existing = cache_.find_wc(group)) return existing;
    const sim::Time now = router_->simulator().now();
    if (rp == router_->router_id()) {
        // We are the RP: the incoming interface is null (§3.2).
        mcast::ForwardingEntry& wc = cache_.ensure_wc(rp, group);
        hub_of(*router_).emit(telemetry::EventType::kEntryCreated, router_->name(),
                              "pim", group.to_string(), "(*,G) at RP");
        wc.set_iif(-1);
        wc.set_rp_timer_deadline(0);
        // Attach sources already registering with us so the new shared tree
        // carries them (§3.10).
        for (const auto& [key, active_at] : rp_source_active_) {
            if (key.second != group) continue;
            if (now - active_at > config_.holdtime) continue;
            mcast::ForwardingEntry& sg = establish_sg(key.first, group);
            send_triggered_join(sg);
        }
        return &wc;
    }
    auto route = router_->route_to(rp);
    if (!route) return nullptr;
    mcast::ForwardingEntry& wc = cache_.ensure_wc(rp, group);
    hub_of(*router_).emit(telemetry::EventType::kEntryCreated, router_->name(),
                          "pim", group.to_string(), "(*,G) rp=" + rp.to_string());
    wc.set_iif(route->ifindex);
    wc.set_upstream_neighbor(route->next_hop.is_unspecified()
                                 ? std::optional<net::Ipv4Address>{}
                                 : std::optional<net::Ipv4Address>{route->next_hop});
    wc.set_rp_timer_deadline(now + config_.rp_timeout);
    send_triggered_join(wc);
    return &wc;
}

mcast::ForwardingEntry& PimSmRouter::establish_sg(net::Ipv4Address source,
                                                  net::GroupAddress group) {
    const sim::Time now = router_->simulator().now();
    mcast::ForwardingEntry* existing = cache_.find_sg(source, group);
    if (existing != nullptr && !existing->rp_bit()) return *existing;

    mcast::ForwardingEntry& sg = cache_.ensure_sg(source, group);
    hub_of(*router_).emit(telemetry::EventType::kEntryCreated, router_->name(),
                          "pim", group.to_string(),
                          "(S,G) src=" + source.to_string() +
                              (existing != nullptr ? " from negative cache" : ""));
    // Either brand new, or converting a negative-cache entry into a real
    // shortest-path entry.
    sg.set_rp_bit(false);
    sg.set_spt_bit(false);
    auto route = router_->route_to(source);
    if (route) {
        sg.set_iif(route->ifindex);
        sg.set_upstream_neighbor(route->next_hop.is_unspecified()
                                     ? std::optional<net::Ipv4Address>{}
                                     : std::optional<net::Ipv4Address>{route->next_hop});
    }
    if (existing == nullptr) {
        // "The outgoing interface list is copied from (*,G)" (§3.3).
        if (const auto* wc = cache_.find_wc(group)) {
            for (const auto& [oif, state] : wc->oifs()) {
                if (oif == sg.iif()) continue;
                if (state.pinned) {
                    sg.pin_oif(oif);
                } else if (state.alive(now)) {
                    sg.add_oif(oif, state.expires);
                }
            }
        }
    }
    return sg;
}

// ---------------------------------------------------------------------------
// Data-plane callbacks (§3.3, §3.5, the register path of §3.2)
// ---------------------------------------------------------------------------

void PimSmRouter::on_no_entry(int ifindex, const net::Packet& packet) {
    maybe_register(ifindex, packet, /*already_forwarded=*/false);
    // Provenance: no MRIB entry means the packet goes no further natively.
    // If maybe_register just created first-hop (S,G) state, the payload
    // continues encapsulated toward the RP; otherwise classify why this
    // router had nothing for it.
    const net::GroupAddress group{packet.dst};
    const mcast::ForwardingEntry* sg = cache_.find_sg(packet.src, group);
    if (sg != nullptr && !sg->rp_bit()) {
        data_plane_.record_hop(ifindex, packet, nullptr, provenance::EntryKind::kRegister,
                               /*rpf_ok=*/true, provenance::DropReason::kNone);
        return;
    }
    data_plane_.record_hop(ifindex, packet, nullptr, provenance::EntryKind::kNone,
                           /*rpf_ok=*/false, classify_no_entry_drop(ifindex, packet));
}

provenance::DropReason PimSmRouter::classify_no_entry_drop(int ifindex,
                                                           const net::Packet& packet) const {
    // A non-DR router on the source's own LAN hears every packet but cedes
    // origination to the DR — the '94 architecture's equivalent of losing
    // an assert. Everything else is plain missing state.
    const net::GroupAddress group{packet.dst};
    if (rp_set_.has_mapping(group) && ifindex >= 0 &&
        ifindex < router_->interface_count()) {
        const auto& iface = router_->interface(ifindex);
        if (iface.segment != nullptr && !dense_ifaces_.contains(ifindex) &&
            iface.segment->prefix().contains(packet.src) && !is_dr_on(ifindex)) {
            return provenance::DropReason::kAssertLoser;
        }
    }
    return provenance::DropReason::kNoState;
}

void PimSmRouter::maybe_register(int ifindex, const net::Packet& packet,
                                 bool already_forwarded) {
    // Only the DR of the source's directly-connected subnetwork registers,
    // and only while no (S,G) state exists (the RP's join ends the register
    // phase). This must fire regardless of whether unrelated (*,G) state
    // matched the packet — a transit router on the shared tree can also be
    // a source DR.
    const net::GroupAddress group{packet.dst};
    if (!rp_set_.has_mapping(group)) return;
    if (ifindex < 0 || ifindex >= router_->interface_count()) return;
    const auto& iface = router_->interface(ifindex);
    if (iface.segment == nullptr) return;
    if (dense_ifaces_.contains(ifindex)) {
        // Border-router proxying (§4): any source routed via the dense
        // region is registered on its behalf.
        if (router_->rpf_interface(packet.src) != ifindex) return;
    } else {
        if (!iface.segment->prefix().contains(packet.src)) return;
        if (!is_dr_on(ifindex)) return;
    }
    const SgKey key{packet.src, group};
    mcast::ForwardingEntry* sg = cache_.find_sg(packet.src, group);
    if (sg != nullptr && !sg->rp_bit() && !registering_.contains(key)) {
        return; // native path established (a join has arrived)
    }
    const auto rps = rp_set_.rps_for(group);
    const bool has_remote_rp =
        std::any_of(rps.begin(), rps.end(),
                    [&](net::Ipv4Address rp) { return rp != router_->router_id(); });
    bool created = false;
    if (sg == nullptr || sg->rp_bit()) {
        // First data packet from a directly-connected source: create the
        // first-hop (S,G) entry (iif = the source subnetwork; oifs copied
        // from (*,G), which serves any shared-tree branches hanging off
        // this router without echoing back onto the source LAN).
        mcast::ForwardingEntry& entry = establish_sg(packet.src, group);
        entry.set_iif(ifindex);
        entry.set_upstream_neighbor(std::nullopt);
        entry.set_spt_bit(true);
        entry.remove_oif(ifindex);
        entry.set_delete_at(router_->simulator().now() +
                            3 * config_.join_prune_interval);
        created = true;
        // The register phase only exists when some RP is remote; when we
        // are the only RP, native (S,G) forwarding covers everything.
        if (has_remote_rp) registering_.insert(key);
    }
    for (net::Ipv4Address rp : rps) {
        if (rp == router_->router_id()) {
            // We are an RP ourselves. Feed the packet through the local
            // register path only if the data plane has not delivered it
            // already (otherwise we would duplicate it down the shared
            // tree).
            rp_source_active_[{packet.src, group}] = router_->simulator().now();
            if (already_forwarded || !created) continue;
            Register reg;
            reg.group = group.address();
            reg.inner_src = packet.src;
            reg.inner_ttl = packet.ttl;
            reg.inner_seq = packet.seq;
            reg.inner_payload = packet.payload;
            net::Packet self;
            self.src = router_->router_id();
            self.dst = router_->router_id();
            handle_register(self, reg);
        } else {
            send_register(packet, rp);
        }
    }
}

void PimSmRouter::send_register(const net::Packet& data, net::Ipv4Address rp) {
    Register reg;
    reg.group = data.dst;
    reg.inner_src = data.src;
    reg.inner_ttl = data.ttl;
    reg.inner_seq = data.seq;
    reg.inner_payload = data.payload;
    net::Packet packet;
    packet.dst = rp;
    packet.proto = net::IpProto::kIgmp;
    packet.ttl = 64;
    packet.payload = reg.encode();
    packet.pid = data.pid; // the tunnel leg inherits the payload's trace id
    router_->network().stats().count_control_message("pim-register");
    hub_of(*router_).emit(telemetry::EventType::kRegisterSent, router_->name(),
                          "pim", net::GroupAddress{reg.group}.to_string(),
                          "src=" + reg.inner_src.to_string() +
                              " rp=" + rp.to_string());
    router_->originate_unicast(std::move(packet));
}

void PimSmRouter::handle_register(const net::Packet& packet, const Register& reg) {
    (void)packet;
    if (!reg.group.is_multicast()) return;
    const net::GroupAddress group{reg.group};
    if (!is_rp_for(group)) return;
    const sim::Time now = router_->simulator().now();
    hub_of(*router_).emit(telemetry::EventType::kRegisterReceived, router_->name(),
                          "pim", group.to_string(),
                          "src=" + reg.inner_src.to_string());
    rp_source_active_[{reg.inner_src, group}] = now;

    // Decapsulate and forward down the shared tree (if it exists).
    net::Packet inner;
    inner.src = reg.inner_src;
    inner.dst = reg.group;
    inner.proto = net::IpProto::kUdp;
    inner.ttl = reg.inner_ttl;
    inner.seq = reg.inner_seq;
    inner.payload = reg.inner_payload;
    // pid is a pure function of (src, dst, seq), so decapsulation restamps
    // the identical id the source DR stamped — the trace stays one packet.
    inner.pid = provenance::packet_id(inner.src, inner.dst, inner.seq);
    if (auto* wc = cache_.find_wc(group)) {
        data_plane_.forward_recorded(*wc, /*ifindex=*/-1, inner,
                                     provenance::EntryKind::kWildcard);
    } else {
        // Decapsulated at the RP but no shared tree exists: the payload
        // dies here until some receiver joins.
        data_plane_.record_hop(/*ifindex=*/-1, inner, nullptr, provenance::EntryKind::kNone,
                               /*rpf_ok=*/true, provenance::DropReason::kNoState);
    }

    // "The RP responds by sending a join toward the source" (§3, fig. 3).
    mcast::ForwardingEntry* sg = cache_.find_sg(reg.inner_src, group);
    if (sg == nullptr || sg->rp_bit()) {
        mcast::ForwardingEntry& entry = establish_sg(reg.inner_src, group);
        send_triggered_join(entry);
    }
}

void PimSmRouter::on_sg_forward(mcast::ForwardingEntry& entry, int ifindex,
                                const net::Packet& packet) {
    // Register phase (§3, fig. 3): keep encapsulating data to the RP(s)
    // until a join arrives and native forwarding takes over. The entry stays
    // alive while its source keeps transmitting.
    const SgKey key{entry.source_or_rp(), entry.group()};
    if (!registering_.contains(key)) return;
    entry.set_delete_at(router_->simulator().now() + 3 * config_.join_prune_interval);
    maybe_register(ifindex, packet, /*already_forwarded=*/true);
}

void PimSmRouter::on_no_downstream(mcast::ForwardingEntry& entry, int ifindex,
                                   const net::Packet& packet) {
    // A first-hop (S,G) whose downstream joins all expired: the source is
    // still transmitting but nobody is joined any more. If we are its DR,
    // resume the register phase so the RP (and through it, any future
    // receivers) keeps hearing about the source (§3.10).
    if (entry.rp_bit() || entry.upstream_neighbor().has_value()) return;
    const SgKey key{entry.source_or_rp(), entry.group()};
    if (registering_.contains(key)) return; // maybe_register already ran
    if (ifindex != entry.iif()) return;
    const auto& iface = router_->interface(ifindex);
    if (iface.segment == nullptr || !iface.segment->prefix().contains(packet.src)) return;
    if (!is_dr_on(ifindex)) return;
    registering_.insert(key);
    maybe_register(ifindex, packet, /*already_forwarded=*/true);
}

void PimSmRouter::on_wildcard_forward(int ifindex, const net::Packet& packet) {
    maybe_register(ifindex, packet, /*already_forwarded=*/true);
    if (spt_policy_.mode == SptPolicy::Mode::kNever) return;
    const net::GroupAddress group{packet.dst};
    const net::Ipv4Address source = packet.src;
    if (source == router_->router_id()) return;
    // Only a router with directly-connected members initiates the switch
    // (§3.3), and only as DR for those members. A dense-mode region behind a
    // border router counts as a directly-connected member (§4).
    bool has_local_member = false;
    for (int m : igmp_->member_interfaces(group)) {
        if (is_dr_on(m)) {
            has_local_member = true;
            break;
        }
    }
    for (const auto& [dense_if, groups] : dense_members_) {
        if (groups.contains(group)) {
            has_local_member = true;
            break;
        }
    }
    if (!has_local_member) return;
    const mcast::ForwardingEntry* sg = cache_.find_sg(source, group);
    if (sg != nullptr && !sg->rp_bit()) return; // already switching/switched

    if (spt_policy_.mode == SptPolicy::Mode::kThreshold) {
        const sim::Time now = router_->simulator().now();
        SptCounter& counter = spt_counters_[{source, group}];
        if (counter.window_start == 0 || now - counter.window_start > spt_policy_.window) {
            counter.window_start = now;
            counter.packets = 0;
        }
        if (++counter.packets < spt_policy_.packets) return;
        spt_counters_.erase({source, group});
    }
    initiate_spt_switch(source, group);
}

void PimSmRouter::initiate_spt_switch(net::Ipv4Address source, net::GroupAddress group) {
    telemetry::Hub& hub = hub_of(*router_);
    const std::uint64_t span =
        hub.span_begin(telemetry::span::kSptSwitch, spt_span_key(*router_, source, group));
    hub.emit(telemetry::EventType::kSptSwitchStarted, router_->name(), "pim",
             group.to_string(), "src=" + source.to_string(), span);
    mcast::ForwardingEntry& sg = establish_sg(source, group);
    send_triggered_join(sg);
    if (config_.mutate_skip_spt_bit_handshake) {
        // Seeded bug (model-checker mutation gate): fire the §3.3 divergence
        // prune now, before any data has arrived over the SPT, instead of
        // from on_spt_bit_set. Shared-tree packets in flight while the
        // (S,G) join still propagates are lost.
        const auto* wc = cache_.find_wc(group);
        if (wc != nullptr && wc->iif() >= 0 && wc->iif() != sg.iif()) {
            send_join_prune(wc->iif(), wc->upstream_neighbor(), group, {},
                            {AddressEntry{source, EntryFlags{false, true}}});
        }
    }
}

void PimSmRouter::on_spt_bit_set(mcast::ForwardingEntry& entry) {
    telemetry::Hub& hub = hub_of(*router_);
    const std::string key =
        spt_span_key(*router_, entry.source_or_rp(), entry.group());
    // Close the spt-switch span if this router opened one (a first-hop
    // router sets the bit without ever initiating a switch — no span then).
    const bool switching = hub.spans().is_open(telemetry::span::kSptSwitch, key);
    const std::uint64_t span =
        switching ? hub.span_begin(telemetry::span::kSptSwitch, key) : 0;
    hub.emit(telemetry::EventType::kSptBitSet, router_->name(), "pim",
             entry.group().to_string(), "src=" + entry.source_or_rp().to_string(),
             span);
    if (switching) hub.span_end(telemetry::span::kSptSwitch, key);
    // "…sends a PIM prune toward RP if its shared tree incoming interface
    // differs from its shortest path tree incoming interface" (§3.3).
    if (entry.rp_bit()) return;
    if (config_.mutate_no_rp_bit_prune) return; // seeded bug: never prune
    const auto* wc = cache_.find_wc(entry.group());
    if (wc == nullptr || wc->iif() < 0 || wc->iif() == entry.iif()) return;
    send_join_prune(wc->iif(), wc->upstream_neighbor(), entry.group(), {},
                    {AddressEntry{entry.source_or_rp(), EntryFlags{false, true}}});
}

void PimSmRouter::on_iif_check_failed(int ifindex, const net::Packet& packet) {
    maybe_register(ifindex, packet, /*already_forwarded=*/false);
    // A data packet arriving on an interface we ourselves forward that
    // (source, group) onto means a parallel forwarder exists on the LAN:
    // trigger the forwarder election (Assert).
    const net::GroupAddress group{packet.dst};
    if (auto role = forwarder_role_on(ifindex, packet.src, group)) {
        send_assert(ifindex, packet.src, group, *role);
    }
}

// ---------------------------------------------------------------------------
// LAN forwarder election — Assert (RFC 7761 §4.6 layered onto the '94 LAN
// procedures)
// ---------------------------------------------------------------------------

namespace {
/// Assert rank comparison: an SPT forwarder (wc=0) beats an RPT forwarder,
/// then lower metric toward the tree root, then higher interface address.
bool assert_beats(bool a_wc, std::uint32_t a_metric, net::Ipv4Address a_addr,
                  bool b_wc, std::uint32_t b_metric, net::Ipv4Address b_addr) {
    if (a_wc != b_wc) return !a_wc;
    if (a_metric != b_metric) return a_metric < b_metric;
    return a_addr > b_addr;
}
} // namespace

std::optional<PimSmRouter::ForwarderRole> PimSmRouter::forwarder_role_on(
    int ifindex, net::Ipv4Address source, net::GroupAddress group) {
    if (ifindex < 0 || ifindex >= router_->interface_count()) return std::nullopt;
    if (is_assert_loser(ifindex, source, group)) return std::nullopt; // already ceded
    const sim::Time now = router_->simulator().now();
    mcast::ForwardingEntry* sg = cache_.find_sg(source, group);
    if (sg != nullptr && !sg->rp_bit() && sg->iif() != ifindex) {
        if (const auto* oif = sg->find_oif(ifindex); oif != nullptr && oif->alive(now)) {
            std::uint32_t metric = 0;
            if (auto route = router_->route_to(source)) {
                metric = static_cast<std::uint32_t>(route->metric);
            }
            return ForwarderRole{false, metric};
        }
    }
    mcast::ForwardingEntry* wc = cache_.find_wc(group);
    if (wc != nullptr && wc->iif() != ifindex) {
        // An existing negative cache pruned on this interface already cedes
        // the source; it must not re-enter the election as an RPT forwarder.
        if (sg != nullptr && sg->rp_bit() && sg->is_pruned(ifindex)) return std::nullopt;
        if (const auto* oif = wc->find_oif(ifindex); oif != nullptr && oif->alive(now)) {
            std::uint32_t metric = 0;
            if (wc->source_or_rp() != router_->router_id()) {
                if (auto route = router_->route_to(wc->source_or_rp())) {
                    metric = static_cast<std::uint32_t>(route->metric);
                }
            }
            return ForwarderRole{true, metric};
        }
    }
    return std::nullopt;
}

void PimSmRouter::send_assert(int ifindex, net::Ipv4Address source,
                              net::GroupAddress group, const ForwarderRole& role) {
    const sim::Time now = router_->simulator().now();
    AssertState& st = asserts_[AssertKey{ifindex, source, group}];
    // Duplicate data keeps triggering us; rate-limit resends so the LAN sees
    // one Assert per override window, not one per packet.
    if (st.last_sent != 0 && now - st.last_sent < config_.override_delay) return;
    // Seeded bug: never send a second Assert for this election at all.
    if (config_.mutate_one_shot_assert && st.last_sent != 0) return;
    st.last_sent = now;
    if (st.expires == 0) st.expires = now + config_.assert_holdtime;

    Assert msg;
    msg.group = group.address();
    msg.source = source;
    msg.wc_bit = role.wc;
    msg.metric = role.metric;
    net::Packet packet;
    packet.src = router_->interface(ifindex).address;
    packet.dst = net::kAllRouters;
    packet.proto = net::IpProto::kIgmp;
    packet.ttl = 1;
    packet.payload = msg.encode();
    router_->network().stats().count_control_message("pim-assert");
    router_->send(ifindex, net::Frame{std::nullopt, std::move(packet)});
}

void PimSmRouter::handle_assert(int ifindex, const net::Packet& packet,
                                const Assert& msg) {
    if (!msg.group.is_multicast()) return;
    if (ifindex < 0 || ifindex >= router_->interface_count()) return;
    const net::Ipv4Address ours = router_->interface(ifindex).address;
    if (packet.src == ours) return; // our own flood echoed back
    const net::GroupAddress group{msg.group};
    const net::Ipv4Address source = msg.source;
    const sim::Time now = router_->simulator().now();
    const AssertKey key{ifindex, source, group};
    telemetry::Hub& hub = hub_of(*router_);

    if (auto role = forwarder_role_on(ifindex, source, group)) {
        // We forward this traffic onto the LAN too: compare ranks.
        if (assert_beats(role->wc, role->metric, ours, msg.wc_bit, msg.metric,
                         packet.src)) {
            AssertState& st = asserts_[key];
            const bool was_winner = !st.we_lost && st.winner == ours && st.expires > now;
            st.winner = ours;
            st.winner_wc = role->wc;
            st.winner_metric = role->metric;
            st.we_lost = false;
            st.expires = now + config_.assert_holdtime;
            if (!was_winner) {
                hub.registry()
                    .counter("pimlib_assert_transitions_total", {{"role", "winner"}},
                             "LAN forwarder elections resolved, by this router's role")
                    .inc();
                hub.emit(telemetry::EventType::kAssertWon, router_->name(), "pim",
                         group.to_string(),
                         "src=" + source.to_string() + " if=" + std::to_string(ifindex) +
                             " beat=" + packet.src.to_string());
            }
            // Answer so the inferior forwarder (and everyone downstream)
            // learns who won; rate-limited like the data-triggered path.
            if ((st.last_sent == 0 ||
                 now - st.last_sent >= config_.override_delay) &&
                !(config_.mutate_one_shot_assert && st.last_sent != 0)) {
                st.last_sent = now;
                Assert reply;
                reply.group = group.address();
                reply.source = source;
                reply.wc_bit = role->wc;
                reply.metric = role->metric;
                net::Packet out;
                out.src = ours;
                out.dst = net::kAllRouters;
                out.proto = net::IpProto::kIgmp;
                out.ttl = 1;
                out.payload = reply.encode();
                router_->network().stats().count_control_message("pim-assert");
                router_->send(ifindex, net::Frame{std::nullopt, std::move(out)});
            }
            return;
        }
        // We lost: remember the winner and stop forwarding onto this LAN.
        AssertState& st = asserts_[key];
        const bool already_lost = st.we_lost && st.winner == packet.src;
        st.winner = packet.src;
        st.winner_wc = msg.wc_bit;
        st.winner_metric = msg.metric;
        st.we_lost = true;
        st.expires = now + config_.assert_holdtime;
        if (!already_lost) {
            hub.registry()
                .counter("pimlib_assert_transitions_total", {{"role", "loser"}},
                         "LAN forwarder elections resolved, by this router's role")
                .inc();
            hub.emit(telemetry::EventType::kAssertLost, router_->name(), "pim",
                     group.to_string(),
                     "src=" + source.to_string() + " if=" + std::to_string(ifindex) +
                         " winner=" + packet.src.to_string());
        }
        // Re-applied even for a standing loss: the prune action is
        // idempotent, and downstream joins may have rebuilt the oif since
        // the election (the data duplicate that re-triggered this assert is
        // the proof that something reopened the interface).
        apply_assert_loss(ifindex, source, group, role->wc);
        return;
    }

    // Downstream listener: track the best winner heard on our iif and
    // re-point RPF' at it.
    AssertState& st = asserts_[key];
    if (st.expires > now && !(st.winner == packet.src) &&
        !assert_beats(msg.wc_bit, msg.metric, packet.src, st.winner_wc,
                      st.winner_metric, st.winner)) {
        return; // a better forwarder already won this (S,G) on the LAN
    }
    st.winner = packet.src;
    st.winner_wc = msg.wc_bit;
    st.winner_metric = msg.metric;
    st.we_lost = false;
    st.expires = now + config_.assert_holdtime;
    retarget_downstream_to_winner(ifindex, source, group, packet.src, msg.wc_bit);
}

void PimSmRouter::apply_assert_loss(int ifindex, net::Ipv4Address source,
                                    net::GroupAddress group, bool our_wc) {
    if (config_.mutate_assert_loser_keeps_forwarding) {
        // Seeded bug (model-checker mutation gate): the election concluded —
        // events, counters, loser state all recorded — but the prune that
        // actually stops the duplicates never happens.
        return;
    }
    const sim::Time now = router_->simulator().now();
    mcast::ForwardingEntry* sg = cache_.find_sg(source, group);
    if (!our_wc && sg != nullptr && !sg->rp_bit()) {
        // SPT loser: take the LAN out of our (S,G) oif list.
        sg->remove_oif(ifindex);
        if (sg->oif_list_empty(now) && sg->delete_at() == 0 && !is_rp_for(group)) {
            if (sg->iif() >= 0) send_prune_upstream(*sg);
            sg->set_delete_at(now + 3 * config_.join_prune_interval);
        }
        return;
    }
    // RPT loser: install an (S,G)RP-bit negative cache pruned on the LAN, so
    // other sources keep flowing down the shared tree there. apply_prune's
    // §3.3 machinery builds the cache from the (*,G) entry.
    apply_prune(ifindex, group, AddressEntry{source, EntryFlags{false, true}});
}

void PimSmRouter::retarget_downstream_to_winner(int ifindex, net::Ipv4Address source,
                                                net::GroupAddress group,
                                                net::Ipv4Address winner,
                                                bool winner_wc) {
    // (S,G) rooted through this LAN: re-point its RPF' at the winner so the
    // periodic refresh and triggered joins reach the router that actually
    // forwards. Only an SPT winner qualifies — a shared-tree forwarder's
    // assert (wc set) loses to our upstream's eventual (S,G) assert by the
    // election's own first rule, so repointing at it (and the triggered join
    // that follows) would plant divergent (S,G) state on a router that never
    // forwards this source for us.
    mcast::ForwardingEntry* sg = cache_.find_sg(source, group);
    if (sg != nullptr && !sg->rp_bit() && sg->iif() == ifindex && !winner_wc) {
        if (sg->upstream_neighbor() != std::optional<net::Ipv4Address>{winner}) {
            sg->set_upstream_neighbor(winner);
            send_triggered_join(*sg);
        }
        return;
    }
    mcast::ForwardingEntry* wc = cache_.find_wc(group);
    if (wc == nullptr || wc->iif() != ifindex) return;
    if (!winner_wc) {
        // An SPT forwarder won: this source no longer arrives via our
        // shared-tree upstream. Build the (S,G) rooted at the winner so our
        // joins target it (the RPF' change shows up in MRIB snapshots).
        if (sg == nullptr || sg->rp_bit()) {
            mcast::ForwardingEntry& entry = establish_sg(source, group);
            entry.set_iif(ifindex);
            entry.set_upstream_neighbor(winner);
            entry.remove_oif(ifindex);
            send_triggered_join(entry);
        }
        return;
    }
    // A shared-tree forwarder won: re-point the (*,G) RPF' (negative caches
    // follow, as on a route change).
    if (wc->upstream_neighbor() != std::optional<net::Ipv4Address>{winner}) {
        wc->set_upstream_neighbor(winner);
        send_triggered_join(*wc);
        cache_.for_each_sg_of(group, [&](mcast::ForwardingEntry& e) {
            if (e.rp_bit() && e.iif() == ifindex) e.set_upstream_neighbor(winner);
        });
    }
}

void PimSmRouter::clear_assert_loss(int ifindex, net::Ipv4Address source,
                                    net::GroupAddress group) {
    auto it = asserts_.find(AssertKey{ifindex, source, group});
    if (it != asserts_.end() && it->second.we_lost) asserts_.erase(it);
}

bool PimSmRouter::is_assert_loser(int ifindex, net::Ipv4Address source,
                                  net::GroupAddress group) const {
    auto it = asserts_.find(AssertKey{ifindex, source, group});
    if (it == asserts_.end() || !it->second.we_lost) return false;
    const sim::Time now = const_cast<topo::Router*>(router_)->simulator().now();
    return it->second.expires > now;
}

void PimSmRouter::expire_assert_state() {
    const sim::Time now = router_->simulator().now();
    for (auto it = asserts_.begin(); it != asserts_.end();) {
        it = (it->second.expires != 0 && it->second.expires <= now)
                 ? asserts_.erase(it)
                 : std::next(it);
    }
}

provenance::DropReason PimSmRouter::classify_iif_drop(int ifindex,
                                                      const net::Packet& packet) {
    // A recorded assert loss turns the generic RPF failure into the typed
    // "I lost the LAN election" drop.
    const net::GroupAddress group{packet.dst};
    if (is_assert_loser(ifindex, packet.src, group)) {
        return provenance::DropReason::kAssertLoser;
    }
    return provenance::DropReason::kRpfFail;
}

// ---------------------------------------------------------------------------
// Join/Prune processing (§3.2, §3.3, §3.7)
// ---------------------------------------------------------------------------

void PimSmRouter::on_pim_message(int ifindex, const net::Packet& packet) {
    PROF_ZONE("control.pim_sm");
    auto code = peek_code(packet.payload);
    if (!code) return;
    switch (*code) {
    case Code::kQuery:
        if (auto msg = Query::decode(packet.payload)) handle_query(ifindex, packet, *msg);
        break;
    case Code::kRegister:
        if (auto msg = Register::decode(packet.payload)) handle_register(packet, *msg);
        break;
    case Code::kJoinPrune:
        if (auto msg = JoinPrune::decode(packet.payload)) {
            handle_join_prune(ifindex, packet, *msg);
        }
        break;
    case Code::kRpReachability:
        if (auto msg = RpReachability::decode(packet.payload)) {
            handle_rp_reachability(ifindex, *msg);
        }
        break;
    case Code::kJoinPruneBundle:
        if (auto msg = JoinPruneBundle::decode(packet.payload)) {
            handle_join_prune_bundle(ifindex, packet, *msg);
        }
        break;
    case Code::kAssert:
        if (auto msg = Assert::decode(packet.payload)) {
            handle_assert(ifindex, packet, *msg);
        }
        break;
    case Code::kBootstrap:
    case Code::kCandidateRpAdvertisement:
        // The bootstrap subsystem (pim/bootstrap) handles BSR election and
        // candidate-RP advertisement; routers without one ignore both.
        if (bootstrap_handler_) bootstrap_handler_(ifindex, packet);
        break;
    }
}

void PimSmRouter::handle_join_prune_bundle(int ifindex, const net::Packet& packet,
                                           const JoinPruneBundle& msg) {
    for (const JoinPruneBundle::GroupRecord& rec : msg.groups) {
        JoinPrune one;
        one.upstream_neighbor = msg.upstream_neighbor;
        one.holdtime_ms = msg.holdtime_ms;
        one.group = rec.group;
        one.joins = rec.joins;
        one.prunes = rec.prunes;
        handle_join_prune(ifindex, packet, one);
    }
}

PimSmRouter::EntryRef PimSmRouter::ref_of(const mcast::ForwardingEntry& entry) {
    return EntryRef{entry.source_or_rp(), entry.group(), entry.wildcard()};
}

mcast::ForwardingEntry* PimSmRouter::entry_of(const EntryRef& ref) {
    return ref.wildcard ? cache_.find_wc(ref.group)
                        : cache_.find_sg(ref.source_or_rp, ref.group);
}

void PimSmRouter::handle_join_prune(int ifindex, const net::Packet& packet,
                                    const JoinPrune& msg) {
    if (!msg.group.is_multicast()) return;
    const net::GroupAddress group{msg.group};
    const bool targeted =
        ifindex >= 0 && (msg.upstream_neighbor == router_->interface(ifindex).address ||
                         msg.upstream_neighbor == router_->router_id());
    if (targeted) {
        const sim::Time hold = ms_to_time(msg.holdtime_ms);
        telemetry::Hub& hub = hub_of(*router_);
        if (!msg.joins.empty()) {
            hub.emit(telemetry::EventType::kJoinReceived, router_->name(), "pim",
                     group.to_string(), "from=" + packet.src.to_string());
        }
        if (!msg.prunes.empty()) {
            hub.emit(telemetry::EventType::kPruneReceived, router_->name(), "pim",
                     group.to_string(), "from=" + packet.src.to_string());
        }
        for (const AddressEntry& entry : msg.joins) {
            process_targeted_join(ifindex, group, entry, hold);
        }
        for (const AddressEntry& entry : msg.prunes) {
            process_targeted_prune(ifindex, packet.src, group, entry);
        }
    } else {
        observe_peer_join(ifindex, msg);
        observe_peer_prune(ifindex, msg);
    }
}

void PimSmRouter::process_targeted_join(int ifindex, net::GroupAddress group,
                                        const AddressEntry& entry, sim::Time hold) {
    const sim::Time now = router_->simulator().now();
    const sim::Time expires = now + hold;

    if (entry.flags.wc_bit) {
        // Shared-tree join: the address is the RP (§3.2).
        const net::Ipv4Address rp = entry.address;
        mcast::ForwardingEntry* wc = cache_.find_wc(group);
        if (wc != nullptr && wc->source_or_rp() != rp &&
            wc->source_or_rp() != router_->router_id() &&
            !router_->route_to(wc->source_or_rp()).has_value()) {
            // Downstream failed over to an alternate RP and ours is
            // unreachable: adopt the new RP, keeping the branches we serve
            // (they re-refresh against the new tree).
            const auto oifs = wc->oifs();
            cache_.remove_wc(group);
            wc = establish_wc(group, rp);
            if (wc == nullptr) return;
            for (const auto& [oif, state] : oifs) {
                if (oif == wc->iif()) continue;
                if (state.pinned) {
                    wc->pin_oif(oif);
                } else if (state.expires > now) {
                    wc->add_oif(oif, state.expires);
                }
            }
        }
        if (wc == nullptr) {
            wc = establish_wc(group, rp);
            if (wc == nullptr) return;
        }
        if (ifindex != wc->iif()) wc->add_oif(ifindex, expires);
        cancel_pending_prune(ref_of(*wc), ifindex);
        // Footnote 12: resetting a (*,G) oif timer also resets that oif's
        // timers in (S,G) entries — and a shared-tree join reinstates the
        // interface on negative caches. Not, however, one held closed by a
        // lost LAN forwarder election: a (*,G) join means "I want the shared
        // tree from you", not "you won the Assert"; only an explicit (S,G)
        // join (or the assert state expiring) reopens that interface.
        cache_.for_each_sg_of(group, [&](mcast::ForwardingEntry& sg) {
            if (ifindex == sg.iif()) return;
            if (is_assert_loser(ifindex, sg.source_or_rp(), group)) return;
            if (sg.rp_bit()) sg.clear_pruned(ifindex);
            sg.add_oif(ifindex, expires);
        });
        return;
    }

    if (entry.flags.rp_bit) {
        // (S,G)RP-bit join: reinstate the source on the shared tree on this
        // interface (cancels a negative-cache prune, e.g. a LAN override).
        mcast::ForwardingEntry* sg = cache_.find_sg(entry.address, group);
        if (sg != nullptr && sg->rp_bit()) {
            sg->clear_pruned(ifindex);
            if (ifindex != sg->iif()) sg->add_oif(ifindex, expires);
            cancel_pending_prune(ref_of(*sg), ifindex);
            clear_assert_loss(ifindex, entry.address, group);
        }
        return;
    }

    // Plain (S,G) shortest-path-tree join.
    const net::Ipv4Address source = entry.address;
    mcast::ForwardingEntry* before = cache_.find_sg(source, group);
    const bool was_real = before != nullptr && !before->rp_bit();
    const bool was_registering = registering_.contains(SgKey{source, group});
    mcast::ForwardingEntry& sg = establish_sg(source, group);
    if (was_registering) {
        // The join (typically the RP's, fig. 3 action 3) ends the register
        // phase; our entry stays rooted at the source subnetwork.
        registering_.erase(SgKey{source, group});
    }
    if (ifindex != sg.iif()) sg.add_oif(ifindex, expires);
    cancel_pending_prune(ref_of(sg), ifindex);
    // A downstream router picked us as its RPF' for this source: any assert
    // loss we recorded on that LAN is void (join overrides assert).
    clear_assert_loss(ifindex, source, group);
    if (!was_real && !was_registering) send_triggered_join(sg);
}

void PimSmRouter::process_targeted_prune(int ifindex, net::Ipv4Address from,
                                         net::GroupAddress group,
                                         const AddressEntry& entry) {
    (void)from;
    // On a multi-access LAN with other downstream routers, hold the prune
    // for the override window so a join can cancel it (§3.7).
    if (pim_neighbor_count(ifindex) > 1) {
        EntryRef ref{entry.address, group, entry.flags.wc_bit};
        auto key = std::make_pair(ref, ifindex);
        auto it = pending_prunes_.find(key);
        if (it != pending_prunes_.end()) {
            router_->simulator().cancel(it->second);
        }
        pending_prunes_[key] = router_->simulator().schedule(
            2 * config_.override_delay, [this, ifindex, group, entry, key] {
                pending_prunes_.erase(key);
                apply_prune(ifindex, group, entry);
            });
        return;
    }
    apply_prune(ifindex, group, entry);
}

void PimSmRouter::apply_prune(int ifindex, net::GroupAddress group,
                              const AddressEntry& entry) {
    const sim::Time now = router_->simulator().now();

    if (entry.flags.wc_bit) {
        // Prune the whole shared tree branch (last member left downstream).
        mcast::ForwardingEntry* wc = cache_.find_wc(group);
        if (wc == nullptr) return;
        wc->remove_oif(ifindex);
        cache_.for_each_sg_of(group, [&](mcast::ForwardingEntry& sg) {
            if (sg.rp_bit()) sg.remove_oif(ifindex);
        });
        if (wc->oif_list_empty(now) && wc->delete_at() == 0) {
            if (wc->iif() >= 0) send_prune_upstream(*wc);
            wc->set_delete_at(now + 3 * config_.join_prune_interval);
        }
        return;
    }

    if (entry.flags.rp_bit) {
        // Negative-cache prune: stop delivering this source via the shared
        // tree on `ifindex` (§3.3).
        mcast::ForwardingEntry* wc = cache_.find_wc(group);
        if (wc == nullptr) return;
        mcast::ForwardingEntry* sg = cache_.find_sg(entry.address, group);
        if (sg == nullptr) {
            mcast::ForwardingEntry& neg = cache_.ensure_sg(entry.address, group);
            neg.set_rp_bit(true);
            neg.set_iif(wc->iif());
            neg.set_upstream_neighbor(wc->upstream_neighbor());
            for (const auto& [oif, state] : wc->oifs()) {
                if (oif == neg.iif()) continue;
                if (state.pinned) {
                    neg.pin_oif(oif);
                } else if (state.alive(now)) {
                    neg.add_oif(oif, state.expires);
                }
            }
            sg = &neg;
        }
        if (sg->rp_bit()) {
            hub_of(*router_).emit(telemetry::EventType::kRpBitPrune, router_->name(),
                                  "pim", group.to_string(),
                                  "src=" + entry.address.to_string() +
                                      " if=" + std::to_string(ifindex));
            sg->mark_pruned(ifindex);
            sg->set_delete_at(now + 3 * config_.join_prune_interval);
            if (sg->oif_list_empty(now)) {
                // Nothing downstream wants this source via the RP tree:
                // propagate the prune toward the RP.
                if (sg->iif() >= 0) send_prune_upstream(*sg);
            }
        } else {
            // We are on both the SPT and the RP tree for this source. The
            // §3.3 divergence check guarantees the pruning router's own SPT
            // does not run through this interface, so removal is safe.
            sg->remove_oif(ifindex);
            if (sg->oif_list_empty(now) && sg->delete_at() == 0 &&
                !is_rp_for(group)) {
                if (sg->iif() >= 0) send_prune_upstream(*sg);
                sg->set_delete_at(now + 3 * config_.join_prune_interval);
            }
        }
        return;
    }

    // Plain (S,G) prune off the shortest-path tree.
    mcast::ForwardingEntry* sg = cache_.find_sg(entry.address, group);
    if (sg == nullptr || sg->rp_bit()) return;
    sg->remove_oif(ifindex);
    if (sg->oif_list_empty(now) && sg->delete_at() == 0 && !is_rp_for(group)) {
        if (sg->iif() >= 0) send_prune_upstream(*sg);
        sg->set_delete_at(now + 3 * config_.join_prune_interval);
    }
}

void PimSmRouter::observe_peer_join(int ifindex, const JoinPrune& msg) {
    // Suppression (§3.7): hearing a peer send the join we were about to
    // refresh, to the same upstream neighbor, silences ours for a while.
    const net::GroupAddress group{msg.group};
    const sim::Time now = router_->simulator().now();
    for (const AddressEntry& e : msg.joins) {
        EntryRef ref{e.address, group, e.flags.wc_bit};
        mcast::ForwardingEntry* mine = entry_of(ref);
        if (mine == nullptr || mine->iif() != ifindex) continue;
        const auto upstream = mine->upstream_neighbor();
        if (!upstream.has_value() || *upstream != msg.upstream_neighbor) continue;
        std::uniform_real_distribution<double> jitter(0.8, 1.2);
        suppress_until_[ref] =
            now + static_cast<sim::Time>(jitter(rng_) *
                                         static_cast<double>(config_.join_suppression));
    }
}

void PimSmRouter::observe_peer_prune(int ifindex, const JoinPrune& msg) {
    // Override (§3.7): a peer pruned state we still need; answer with a join
    // after a small random delay.
    const net::GroupAddress group{msg.group};
    const sim::Time now = router_->simulator().now();
    for (const AddressEntry& e : msg.prunes) {
        EntryRef ref{e.address, group, e.flags.wc_bit};
        mcast::ForwardingEntry* mine = nullptr;
        AddressEntry join = e;
        if (e.flags.wc_bit) {
            mine = cache_.find_wc(group);
        } else if (e.flags.rp_bit) {
            // We want this source via the shared tree iff we have (*,G) and
            // no divergent SPT for it.
            mcast::ForwardingEntry* wc = cache_.find_wc(group);
            mcast::ForwardingEntry* sg = cache_.find_sg(e.address, group);
            const bool divergent =
                sg != nullptr && !sg->rp_bit() && wc != nullptr && sg->iif() != wc->iif();
            if (wc != nullptr && !divergent) mine = wc;
            ref = EntryRef{wc != nullptr ? wc->source_or_rp() : e.address, group, true};
        } else {
            mcast::ForwardingEntry* sg = cache_.find_sg(e.address, group);
            if (sg != nullptr && !sg->rp_bit()) mine = sg;
        }
        if (mine == nullptr || mine->iif() != ifindex) continue;
        const auto upstream = mine->upstream_neighbor();
        if (!upstream.has_value() || *upstream != msg.upstream_neighbor) continue;
        if (!mine->oif_list_empty(now)) {
            auto key = std::make_pair(ref, ifindex);
            if (override_scheduled_.contains(key)) continue;
            override_scheduled_.insert(key);
            std::uniform_int_distribution<sim::Time> delay(0, config_.override_delay);
            const AddressEntry to_join = join;
            const net::Ipv4Address target = *upstream;
            const std::uint64_t epoch = epoch_;
            router_->simulator().schedule(delay(rng_), [this, key, ifindex, group,
                                                        to_join, target, epoch] {
                if (epoch != epoch_) return; // rebooted meanwhile
                override_scheduled_.erase(key);
                // The entry may have died between scheduling and firing (our
                // own member left, state expired): a join now would rebuild
                // upstream state nobody wants, so the override is a no-op.
                mcast::ForwardingEntry* still = entry_of(key.first);
                if (still == nullptr || still->iif() != ifindex ||
                    still->oif_list_empty(router_->simulator().now())) {
                    return;
                }
                send_join_prune(ifindex, target, group, {to_join}, {});
            });
        }
    }
}

void PimSmRouter::cancel_pending_prune(const EntryRef& ref, int ifindex) {
    auto key = std::make_pair(ref, ifindex);
    auto it = pending_prunes_.find(key);
    if (it != pending_prunes_.end()) {
        router_->simulator().cancel(it->second);
        pending_prunes_.erase(it);
    }
}

// ---------------------------------------------------------------------------
// RP reachability and failover (§3.2, §3.9)
// ---------------------------------------------------------------------------

void PimSmRouter::on_rp_reachability_tick() {
    // Seeded bug: a holdtime barely longer than the generation interval —
    // any single lost RpReachability expires the downstream RP timer.
    const sim::Time advertised =
        config_.mutate_fragile_rp_holdtime
            ? config_.rp_reachability_interval + config_.rp_reachability_interval / 10
            : config_.rp_timeout;
    const auto holdtime =
        static_cast<std::uint32_t>(advertised / sim::kMillisecond);
    const sim::Time now = router_->simulator().now();
    cache_.for_each_wc([&](mcast::ForwardingEntry& wc) {
        if (wc.source_or_rp() != router_->router_id()) return;
        RpReachability msg{wc.group().address(), router_->router_id(), holdtime};
        for (int oif : wc.live_oifs(now)) {
            net::Packet packet;
            packet.src = router_->interface(oif).address;
            packet.dst = net::kAllRouters;
            packet.proto = net::IpProto::kIgmp;
            packet.ttl = 1;
            packet.payload = msg.encode();
            router_->network().stats().count_control_message("pim-rp-reach");
            router_->send(oif, net::Frame{std::nullopt, std::move(packet)});
        }
    });
}

void PimSmRouter::handle_rp_reachability(int ifindex, const RpReachability& msg) {
    if (!msg.group.is_multicast()) return;
    const net::GroupAddress group{msg.group};
    mcast::ForwardingEntry* wc = cache_.find_wc(group);
    if (wc == nullptr || wc->source_or_rp() != msg.rp) return;
    if (ifindex != wc->iif()) return; // must arrive from the RP direction
    const sim::Time now = router_->simulator().now();
    wc->set_rp_timer_deadline(now + ms_to_time(msg.holdtime_ms));
    // Propagate down the shared tree.
    for (int oif : wc->live_oifs(now)) {
        if (oif == ifindex) continue;
        net::Packet packet;
        packet.src = router_->interface(oif).address;
        packet.dst = net::kAllRouters;
        packet.proto = net::IpProto::kIgmp;
        packet.ttl = 1;
        packet.payload = msg.encode();
        router_->network().stats().count_control_message("pim-rp-reach");
        router_->send(oif, net::Frame{std::nullopt, std::move(packet)});
    }
}

void PimSmRouter::check_rp_timers() {
    const sim::Time now = router_->simulator().now();
    std::vector<std::pair<net::GroupAddress, net::Ipv4Address>> dead;
    cache_.for_each_wc([&](mcast::ForwardingEntry& wc) {
        if (wc.source_or_rp() == router_->router_id()) return;
        // Only routers with local members monitor RP liveness (§3.9).
        bool has_pinned = false;
        for (const auto& [oif, state] : wc.oifs()) {
            if (state.pinned) {
                has_pinned = true;
                break;
            }
        }
        if (!has_pinned) return;
        if (wc.rp_timer_deadline() != 0 && now >= wc.rp_timer_deadline()) {
            dead.emplace_back(wc.group(), wc.source_or_rp());
        }
    });
    for (const auto& [group, rp] : dead) failover_to_alternate_rp(group, rp);
}

void PimSmRouter::failover_to_alternate_rp(net::GroupAddress group,
                                           net::Ipv4Address dead_rp) {
    net::Ipv4Address next;
    for (net::Ipv4Address rp : rp_set_.rps_for(group)) {
        if (rp == dead_rp) continue;
        if (rp == router_->router_id() || router_->route_to(rp).has_value()) {
            next = rp;
            break;
        }
    }
    if (next.is_unspecified()) {
        // No alternate; rearm the timer so we retry rather than spin.
        if (auto* wc = cache_.find_wc(group)) {
            wc->set_rp_timer_deadline(router_->simulator().now() + config_.rp_timeout);
        }
        return;
    }
    {
        telemetry::Hub& hub = hub_of(*router_);
        // The failover span closes when the next data packet for the group
        // reaches a member host (tree re-healed end to end).
        const std::uint64_t span =
            hub.span_begin(telemetry::span::kRpFailover, group.to_string());
        hub.emit(telemetry::EventType::kRpFailover, router_->name(), "pim",
                 group.to_string(),
                 "dead_rp=" + dead_rp.to_string() + " next=" + next.to_string(),
                 span);
    }
    // "A new (*,G) entry is established with the incoming interface set to
    // the interface used to reach the new RP. The outgoing interface list
    // includes only those interfaces on which IGMP Reports for the group
    // were received." (§3.9)
    auto member_ifaces = igmp_->member_interfaces(group);
    for (const auto& [dense_if, groups] : dense_members_) {
        if (groups.contains(group)) member_ifaces.push_back(dense_if);
    }
    cache_.remove_wc(group);
    mcast::ForwardingEntry* wc = establish_wc(group, next);
    if (wc == nullptr) return;
    for (int ifindex : member_ifaces) {
        if (ifindex != wc->iif()) wc->pin_oif(ifindex);
    }
}

void PimSmRouter::reconcile_rp_mappings() {
    // Called after the RP set changed (a BSR update replaced the dynamic
    // mappings): any shared tree rooted at an RP that no longer maps to its
    // group fails over immediately instead of waiting for the RP timer.
    std::vector<std::pair<net::GroupAddress, net::Ipv4Address>> stale;
    cache_.for_each_wc([&](mcast::ForwardingEntry& wc) {
        const net::GroupAddress group = wc.group();
        const auto rps = rp_set_.rps_for(group);
        if (rps.empty()) return; // no mapping left; soft state ages out
        if (std::find(rps.begin(), rps.end(), wc.source_or_rp()) != rps.end()) return;
        stale.emplace_back(group, wc.source_or_rp());
    });
    for (const auto& [group, old_rp] : stale) failover_to_alternate_rp(group, old_rp);
    // Memberships that arrived while the group had no mapping (a DR joins
    // nothing then, §3.1) take effect now instead of at the next refresh.
    adopt_pending_memberships();
}

void PimSmRouter::adopt_pending_memberships() {
    for (const auto& iface : router_->interfaces()) {
        for (net::GroupAddress group : igmp_->groups_on(iface.ifindex)) {
            if (cache_.find_wc(group) == nullptr && rp_set_.has_mapping(group) &&
                is_dr_on(iface.ifindex)) {
                join_group_as_dr(iface.ifindex, group);
            }
        }
    }
    for (const auto& [dense_if, groups] : dense_members_) {
        for (net::GroupAddress group : groups) {
            if (cache_.find_wc(group) == nullptr && rp_set_.has_mapping(group)) {
                join_group_as_dr(dense_if, group);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Periodic soft-state machinery (§3.4, §3.6)
// ---------------------------------------------------------------------------

void PimSmRouter::on_refresh_tick() {
    expire_soft_state();
    check_rp_timers();
    // A DR that could not reach any RP earlier retries while local members
    // persist.
    adopt_pending_memberships();
    send_periodic_join_prune();
}

void PimSmRouter::expire_soft_state() {
    const sim::Time now = router_->simulator().now();

    std::vector<net::GroupAddress> dead_wc;
    cache_.for_each_wc([&](mcast::ForwardingEntry& wc) {
        (void)wc.expire_oifs(now);
        const bool at_rp = wc.source_or_rp() == router_->router_id();
        if (wc.oif_list_empty(now) && wc.delete_at() == 0) {
            if (!at_rp && wc.iif() >= 0) send_prune_upstream(wc);
            wc.set_delete_at(now + 3 * config_.join_prune_interval);
        }
        if (wc.delete_at() != 0 && now >= wc.delete_at()) dead_wc.push_back(wc.group());
    });
    for (net::GroupAddress group : dead_wc) {
        hub_of(*router_).emit(telemetry::EventType::kEntryExpired, router_->name(),
                              "pim", group.to_string(), "(*,G)");
        cache_.remove_wc(group);
    }

    std::vector<mcast::ForwardingCache::SgKey> dead_sg;
    cache_.for_each_sg([&](mcast::ForwardingEntry& sg) {
        (void)sg.expire_oifs(now);
        const net::GroupAddress group = sg.group();
        const bool at_rp = is_rp_for(group);

        if (sg.rp_bit()) {
            // Negative caches live while (*,G) lives and prunes refresh them
            // (footnote 13).
            if (cache_.find_wc(group) == nullptr ||
                (sg.delete_at() != 0 && now >= sg.delete_at())) {
                dead_sg.push_back({sg.source_or_rp(), group});
            }
            return;
        }

        if (at_rp) {
            // The RP keeps the source path warm while data or registers
            // flow (§3.10); it never prunes toward the source.
            const sim::Time active = std::max(
                sg.last_data_at(),
                [&] {
                    auto it = rp_source_active_.find({sg.source_or_rp(), group});
                    return it == rp_source_active_.end() ? sim::Time{0} : it->second;
                }());
            if (now - active > 3 * config_.join_prune_interval) {
                dead_sg.push_back({sg.source_or_rp(), group});
            }
            return;
        }

        if (sg.oif_list_empty(now) && sg.delete_at() == 0) {
            if (sg.iif() >= 0 && sg.upstream_neighbor().has_value()) {
                send_prune_upstream(sg);
            }
            sg.set_delete_at(now + 3 * config_.join_prune_interval);
        }
        if (sg.delete_at() != 0 && now >= sg.delete_at()) {
            dead_sg.push_back({sg.source_or_rp(), group});
        }
    });
    for (const auto& key : dead_sg) {
        hub_of(*router_).emit(telemetry::EventType::kEntryExpired, router_->name(),
                              "pim", key.second.to_string(),
                              "(S,G) src=" + key.first.to_string());
        cache_.remove_sg(key.first, key.second);
        registering_.erase(SgKey{key.first, key.second});
    }

    // Drop stale suppression marks and RP-side source records.
    for (auto it = suppress_until_.begin(); it != suppress_until_.end();) {
        it = it->second <= now ? suppress_until_.erase(it) : std::next(it);
    }
    for (auto it = rp_source_active_.begin(); it != rp_source_active_.end();) {
        it = (now - it->second > config_.holdtime * 2) ? rp_source_active_.erase(it)
                                                       : std::next(it);
    }
    expire_assert_state();
}

AddressEntry PimSmRouter::join_entry_for(const mcast::ForwardingEntry& entry) const {
    if (entry.wildcard()) {
        return AddressEntry{entry.source_or_rp(), EntryFlags{true, true}};
    }
    return AddressEntry{entry.source_or_rp(), EntryFlags{false, entry.rp_bit()}};
}

void PimSmRouter::send_periodic_join_prune() {
    const sim::Time now = router_->simulator().now();
    struct Batch {
        std::vector<AddressEntry> joins;
        std::vector<AddressEntry> prunes;
    };
    // Key: (ifindex, upstream neighbor, group)
    std::map<std::tuple<int, net::Ipv4Address, net::GroupAddress>, Batch> batches;

    cache_.for_each_wc([&](mcast::ForwardingEntry& wc) {
        if (wc.iif() < 0 || !wc.upstream_neighbor().has_value()) return;
        auto sup = suppress_until_.find(ref_of(wc));
        const bool suppressed = sup != suppress_until_.end() && sup->second > now;
        Batch& batch = batches[{wc.iif(), *wc.upstream_neighbor(), wc.group()}];
        if (!suppressed && (!wc.oif_list_empty(now))) {
            batch.joins.push_back(join_entry_for(wc));
        }
        // Prune list toward the RP: sources switched to SPTs whose paths
        // diverge here, and negative caches with nothing downstream (§3.3,
        // footnote 13).
        cache_.for_each_sg_of(wc.group(), [&](mcast::ForwardingEntry& sg) {
            if (sg.rp_bit()) {
                if (!sg.pruned_oifs().empty() || sg.oif_list_empty(now)) {
                    if (sg.oif_list_empty(now)) {
                        batch.prunes.push_back(
                            AddressEntry{sg.source_or_rp(), EntryFlags{false, true}});
                    }
                }
            } else if (sg.spt_bit() && sg.iif() != wc.iif() &&
                       !config_.mutate_no_rp_bit_prune) {
                batch.prunes.push_back(
                    AddressEntry{sg.source_or_rp(), EntryFlags{false, true}});
            }
        });
    });

    cache_.for_each_sg([&](mcast::ForwardingEntry& sg) {
        if (sg.rp_bit()) return; // refreshed via the (*,G) message above
        if (sg.iif() < 0 || !sg.upstream_neighbor().has_value()) return;
        const bool at_rp = is_rp_for(sg.group());
        if (sg.oif_list_empty(now) && !at_rp) return;
        auto sup = suppress_until_.find(ref_of(sg));
        if (sup != suppress_until_.end() && sup->second > now) return;
        Batch& batch = batches[{sg.iif(), *sg.upstream_neighbor(), sg.group()}];
        batch.joins.push_back(join_entry_for(sg));
    });

    // Regroup per (ifindex, upstream neighbor): the map above is sorted, so
    // every group headed to the same neighbor is contiguous. One shared
    // group stays a classic JoinPrune; two or more fold into a single
    // JoinPruneBundle so the per-tick message count tracks neighbors, not
    // groups (docs/TIMERS.md).
    std::vector<JoinPruneBundle::GroupRecord> pending;
    int pending_if = -1;
    net::Ipv4Address pending_upstream;
    auto flush = [&] {
        if (pending.empty()) return;
        if (pending.size() == 1) {
            send_join_prune(pending_if, pending_upstream,
                            net::GroupAddress{pending.front().group},
                            std::move(pending.front().joins),
                            std::move(pending.front().prunes));
        } else {
            send_join_prune_bundle(pending_if, pending_upstream, std::move(pending));
        }
        pending.clear();
    };
    for (auto& [key, batch] : batches) {
        if (batch.joins.empty() && batch.prunes.empty()) continue;
        const int ifindex = std::get<0>(key);
        const net::Ipv4Address upstream = std::get<1>(key);
        if (ifindex != pending_if || !(upstream == pending_upstream)) {
            flush();
            pending_if = ifindex;
            pending_upstream = upstream;
        }
        pending.push_back(JoinPruneBundle::GroupRecord{
            std::get<2>(key).address(), std::move(batch.joins), std::move(batch.prunes)});
    }
    flush();
}

void PimSmRouter::send_triggered_join(const mcast::ForwardingEntry& entry) {
    if (entry.iif() < 0 || !entry.upstream_neighbor().has_value()) return;
    send_join_prune(entry.iif(), entry.upstream_neighbor(), entry.group(),
                    {join_entry_for(entry)}, {});
}

void PimSmRouter::send_prune_upstream(const mcast::ForwardingEntry& entry) {
    if (entry.iif() < 0 || !entry.upstream_neighbor().has_value()) return;
    AddressEntry e = join_entry_for(entry);
    if (entry.rp_bit() && !entry.wildcard()) e.flags = EntryFlags{false, true};
    send_join_prune(entry.iif(), entry.upstream_neighbor(), entry.group(), {}, {e});
}

void PimSmRouter::send_join_prune(int ifindex, std::optional<net::Ipv4Address> upstream,
                                  net::GroupAddress group,
                                  std::vector<AddressEntry> joins,
                                  std::vector<AddressEntry> prunes) {
    if (ifindex < 0 || ifindex >= router_->interface_count()) return;
    JoinPrune msg;
    msg.upstream_neighbor = upstream.value_or(net::Ipv4Address{});
    msg.holdtime_ms = holdtime_ms();
    msg.group = group.address();
    msg.joins = std::move(joins);
    msg.prunes = std::move(prunes);

    net::Packet packet;
    packet.src = router_->interface(ifindex).address;
    packet.dst = net::kAllRouters;
    packet.proto = net::IpProto::kIgmp;
    packet.ttl = 1;
    packet.payload = msg.encode();
    ++join_prune_sent_;
    router_->network().stats().count_control_message("pim");
    {
        telemetry::Hub& hub = hub_of(*router_);
        if (!msg.joins.empty()) {
            hub.emit(telemetry::EventType::kJoinSent, router_->name(), "pim",
                     group.to_string(),
                     "if=" + std::to_string(ifindex) +
                         " entries=" + std::to_string(msg.joins.size()));
        }
        if (!msg.prunes.empty()) {
            hub.emit(telemetry::EventType::kPruneSent, router_->name(), "pim",
                     group.to_string(),
                     "if=" + std::to_string(ifindex) +
                         " entries=" + std::to_string(msg.prunes.size()));
        }
    }
    router_->send(ifindex, net::Frame{std::nullopt, std::move(packet)});
}

void PimSmRouter::send_join_prune_bundle(
    int ifindex, net::Ipv4Address upstream,
    std::vector<JoinPruneBundle::GroupRecord> groups) {
    if (ifindex < 0 || ifindex >= router_->interface_count()) return;
    JoinPruneBundle msg;
    msg.upstream_neighbor = upstream;
    msg.holdtime_ms = holdtime_ms();
    msg.groups = std::move(groups);

    net::Packet packet;
    packet.src = router_->interface(ifindex).address;
    packet.dst = net::kAllRouters;
    packet.proto = net::IpProto::kIgmp;
    packet.ttl = 1;
    packet.payload = msg.encode();
    ++join_prune_sent_;
    router_->network().stats().count_control_message("pim");
    {
        // Per-group telemetry, exactly as if each record went out alone —
        // observers should not care about the wire packing.
        telemetry::Hub& hub = hub_of(*router_);
        for (const JoinPruneBundle::GroupRecord& rec : msg.groups) {
            if (!rec.joins.empty()) {
                hub.emit(telemetry::EventType::kJoinSent, router_->name(), "pim",
                         rec.group.to_string(),
                         "if=" + std::to_string(ifindex) +
                             " entries=" + std::to_string(rec.joins.size()));
            }
            if (!rec.prunes.empty()) {
                hub.emit(telemetry::EventType::kPruneSent, router_->name(), "pim",
                         rec.group.to_string(),
                         "if=" + std::to_string(ifindex) +
                             " entries=" + std::to_string(rec.prunes.size()));
            }
        }
    }
    router_->send(ifindex, net::Frame{std::nullopt, std::move(packet)});
}

// ---------------------------------------------------------------------------
// Unicast routing changes (§3.8)
// ---------------------------------------------------------------------------

void PimSmRouter::on_route_change() {
    struct Rehome {
        EntryRef ref;
        int old_iif;
        std::optional<net::Ipv4Address> old_upstream;
        int new_iif;
        std::optional<net::Ipv4Address> new_upstream;
    };
    std::vector<Rehome> changes;

    auto consider = [&](mcast::ForwardingEntry& entry) {
        if (entry.iif() < 0 && entry.wildcard()) return; // we are the RP
        if (entry.rp_bit() && !entry.wildcard()) return; // tracks (*,G) below
        auto route = router_->route_to(entry.source_or_rp());
        if (!route) return;
        std::optional<net::Ipv4Address> upstream =
            route->next_hop.is_unspecified()
                ? std::optional<net::Ipv4Address>{}
                : std::optional<net::Ipv4Address>{route->next_hop};
        if (route->ifindex == entry.iif() && upstream == entry.upstream_neighbor()) return;
        changes.push_back(Rehome{ref_of(entry), entry.iif(), entry.upstream_neighbor(),
                                 route->ifindex, upstream});
    };
    cache_.for_each_wc(consider);
    cache_.for_each_sg(consider);

    const sim::Time now = router_->simulator().now();
    for (const Rehome& change : changes) {
        mcast::ForwardingEntry* entry = entry_of(change.ref);
        if (entry == nullptr) continue;
        // "If the new incoming interface appears in the outgoing interface
        // list, it is deleted from the outgoing list." (§3.8)
        entry->remove_oif(change.new_iif);
        entry->set_iif(change.new_iif);
        entry->set_upstream_neighbor(change.new_upstream);
        send_triggered_join(*entry);
        // "It sends a PIM prune message out the old interface, if the link
        // is operational."
        if (change.old_iif >= 0 && change.old_iif < router_->interface_count() &&
            router_->interface(change.old_iif).up) {
            AddressEntry e = join_entry_for(*entry);
            send_join_prune(change.old_iif, change.old_upstream, entry->group(), {},
                            {e});
        }
        // Negative caches follow the (*,G) path.
        if (change.ref.wildcard) {
            cache_.for_each_sg_of(change.ref.group, [&](mcast::ForwardingEntry& sg) {
                if (!sg.rp_bit()) return;
                sg.remove_oif(change.new_iif);
                sg.set_iif(change.new_iif);
                sg.set_upstream_neighbor(change.new_upstream);
            });
        }
    }
    (void)now;
}

std::vector<net::Ipv4Address> PimSmRouter::active_sources(net::GroupAddress group) const {
    std::vector<net::Ipv4Address> out;
    for (const auto& [key, at] : rp_source_active_) {
        if (key.second == group) out.push_back(key.first);
    }
    return out;
}

} // namespace pimlib::pim
