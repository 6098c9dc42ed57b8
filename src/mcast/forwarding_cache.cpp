#include "mcast/forwarding_cache.hpp"

#include "stats/counters.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "topo/network.hpp"

namespace pimlib::mcast {

ForwardingEntry* ForwardingCache::find_sg(net::Ipv4Address source, net::GroupAddress group) {
    auto it = sg_.find(SgKey{source, group});
    return it == sg_.end() ? nullptr : it->second;
}

const ForwardingEntry* ForwardingCache::find_sg(net::Ipv4Address source,
                                                net::GroupAddress group) const {
    auto it = sg_.find(SgKey{source, group});
    return it == sg_.end() ? nullptr : it->second;
}

ForwardingEntry* ForwardingCache::find_wc(net::GroupAddress group) {
    auto it = wc_.find(group);
    return it == wc_.end() ? nullptr : it->second;
}

const ForwardingEntry* ForwardingCache::find_wc(net::GroupAddress group) const {
    auto it = wc_.find(group);
    return it == wc_.end() ? nullptr : it->second;
}

ForwardingEntry& ForwardingCache::ensure_sg(net::Ipv4Address source, net::GroupAddress group) {
    auto it = sg_.find(SgKey{source, group});
    if (it != sg_.end()) return *it->second;
    ForwardingEntry* entry = arena_.create(ForwardingEntry::make_sg(source, group));
    sg_.emplace(SgKey{source, group}, entry);
    return *entry;
}

ForwardingEntry& ForwardingCache::ensure_wc(net::Ipv4Address rp, net::GroupAddress group) {
    auto it = wc_.find(group);
    if (it != wc_.end()) return *it->second;
    ForwardingEntry* entry = arena_.create(ForwardingEntry::make_wc(rp, group));
    wc_.emplace(group, entry);
    return *entry;
}

void ForwardingCache::remove_sg(net::Ipv4Address source, net::GroupAddress group) {
    auto it = sg_.find(SgKey{source, group});
    if (it == sg_.end()) return;
    arena_.destroy(it->second);
    sg_.erase(it);
}

void ForwardingCache::remove_wc(net::GroupAddress group) {
    auto it = wc_.find(group);
    if (it == wc_.end()) return;
    arena_.destroy(it->second);
    wc_.erase(it);
}

void ForwardingCache::clear() {
    for (auto& [key, entry] : sg_) arena_.destroy(entry);
    for (auto& [group, entry] : wc_) arena_.destroy(entry);
    sg_.clear();
    wc_.clear();
}

void ForwardingCache::for_each_sg(const std::function<void(ForwardingEntry&)>& fn) {
    for (auto& [key, entry] : sg_) fn(*entry);
}

void ForwardingCache::for_each_wc(const std::function<void(ForwardingEntry&)>& fn) {
    for (auto& [key, entry] : wc_) fn(*entry);
}

void ForwardingCache::for_each_sg_of(net::GroupAddress group,
                                     const std::function<void(ForwardingEntry&)>& fn) {
    for (auto& [key, entry] : sg_) {
        if (key.second == group) fn(*entry);
    }
}

void ForwardingCache::for_each_sg_of(
    net::GroupAddress group,
    const std::function<void(const ForwardingEntry&)>& fn) const {
    for (const auto& [key, entry] : sg_) {
        if (key.second == group) fn(*entry);
    }
}

std::size_t ForwardingCache::visit_entries(
    VisitCursor& cursor, std::size_t budget,
    const std::function<void(const ForwardingEntry&)>& fn) const {
    std::size_t visited = 0;
    cursor.wrapped = false;
    if (!cursor.on_sg) {
        auto it = cursor.have_key ? wc_.upper_bound(cursor.wc_after) : wc_.begin();
        for (; it != wc_.end() && visited < budget; ++it) {
            fn(*it->second);
            ++visited;
            cursor.wc_after = it->first;
            cursor.have_key = true;
        }
        if (it == wc_.end()) {
            cursor.on_sg = true;
            cursor.have_key = false;
        }
    }
    if (cursor.on_sg) {
        auto it = cursor.have_key ? sg_.upper_bound(cursor.sg_after) : sg_.begin();
        for (; it != sg_.end() && visited < budget; ++it) {
            fn(*it->second);
            ++visited;
            cursor.sg_after = it->first;
            cursor.have_key = true;
        }
        if (it == sg_.end()) {
            cursor = VisitCursor{};
            cursor.wrapped = true;
        }
    }
    return visited;
}

std::vector<ForwardingCache::SgKey> ForwardingCache::reap_expired_entries(sim::Time now) {
    std::vector<SgKey> removed;
    for (auto it = sg_.begin(); it != sg_.end();) {
        const sim::Time at = it->second->delete_at();
        if (at != 0 && now >= at) {
            removed.push_back(it->first);
            arena_.destroy(it->second);
            it = sg_.erase(it);
        } else {
            ++it;
        }
    }
    return removed;
}

namespace {

telemetry::EntrySnapshot snapshot_entry(const ForwardingEntry& entry, sim::Time now) {
    telemetry::EntrySnapshot out;
    out.source_or_rp = entry.source_or_rp().to_string();
    out.group = entry.group().to_string();
    out.wildcard = entry.wildcard();
    out.rp_bit = entry.rp_bit();
    out.spt_bit = entry.spt_bit();
    out.iif = entry.iif();
    if (entry.upstream_neighbor()) {
        out.upstream = entry.upstream_neighbor()->to_string();
    }
    for (const auto& [ifindex, state] : entry.oifs()) {
        telemetry::OifSnapshot oif;
        oif.ifindex = ifindex;
        oif.pinned = state.pinned;
        oif.remaining = state.pinned ? 0 : std::max<sim::Time>(0, state.expires - now);
        out.oifs.push_back(oif);
    }
    out.pruned_oifs.assign(entry.pruned_oifs().begin(), entry.pruned_oifs().end());
    out.delete_in =
        entry.delete_at() == 0 ? 0 : std::max<sim::Time>(0, entry.delete_at() - now);
    return out;
}

} // namespace

telemetry::RouterMrib ForwardingCache::snapshot(const std::string& router_name,
                                                sim::Time now) const {
    telemetry::RouterMrib out;
    out.router = router_name;
    out.entries.reserve(wc_.size() + sg_.size());
    for (const auto& [group, entry] : wc_) {
        out.entries.push_back(snapshot_entry(*entry, now));
    }
    for (const auto& [key, entry] : sg_) {
        out.entries.push_back(snapshot_entry(*entry, now));
    }
    return out;
}

DataPlane::DataPlane(topo::Router& router, ForwardingCache& cache)
    : router_(&router), cache_(&cache) {
    router_->set_multicast_handler(this);
}

void DataPlane::replicate(const ForwardingEntry& entry, int ifindex,
                          const net::Packet& packet, provenance::HopRecord* hop) {
    PROF_ZONE("dataplane.replicate");
    if (packet.ttl <= 1) {
        router_->network().stats().count_data_dropped_ttl();
        return;
    }
    // One frame per forwarding decision, sent by reference on every oif.
    net::Frame out{std::nullopt, packet};
    out.packet.ttl -= 1;
    const sim::Time now = router_->simulator().now();
    // Allocation-free walk of the flat oif list — this is the per-packet
    // replication path.
    entry.for_each_live_oif(now, [&](int oif) {
        if (oif == ifindex) return; // never back out the arrival interface
        if (oif < 0 || oif >= router_->interface_count()) return;
        if (hop != nullptr) hop->add_oif(oif);
        router_->send(oif, out);
    });
}

void DataPlane::forward_recorded(const ForwardingEntry& entry, int ifindex,
                                 const net::Packet& packet,
                                 provenance::EntryKind kind) {
    topo::Network& network = router_->network();
    provenance::HopRecord* hop = network.begin_hop(*router_, packet);
    if (hop != nullptr) {
        hop->iif = static_cast<std::int16_t>(ifindex);
        hop->kind = kind;
        hop->spt_bit = entry.spt_bit();
        hop->rp_bit = entry.rp_bit();
    }
    replicate(entry, ifindex, packet, hop);
    if (hop == nullptr) return;
    if (packet.ttl <= 1) {
        hop->drop = provenance::DropReason::kTtl;
    } else if (hop->oif_count == 0) {
        // An empty oif set discards the packet here: an RP-bit negative
        // cache does so by design, any other entry is a pruned leaf with no
        // downstream interest.
        hop->drop = entry.rp_bit() ? provenance::DropReason::kNegCache
                                   : provenance::DropReason::kNoOif;
    }
    network.provenance()->commit(*hop);
}

void DataPlane::record_hop(int ifindex, const net::Packet& packet,
                           const ForwardingEntry* entry, provenance::EntryKind kind,
                           bool rpf_ok, provenance::DropReason drop) {
    topo::Network& network = router_->network();
    provenance::HopRecord* hop = network.begin_hop(*router_, packet);
    if (hop == nullptr) return;
    hop->iif = static_cast<std::int16_t>(ifindex);
    hop->kind = kind;
    hop->rpf_ok = rpf_ok;
    hop->drop = drop;
    if (entry != nullptr) {
        hop->spt_bit = entry->spt_bit();
        hop->rp_bit = entry->rp_bit();
    }
    network.provenance()->commit(*hop);
}

void DataPlane::on_multicast_data(int ifindex, const net::Packet& packet) {
    PROF_ZONE("dataplane.forward");
    const net::GroupAddress group{packet.dst};
    const net::Ipv4Address source = packet.src;

    ForwardingEntry* sg = cache_->find_sg(source, group);
    ForwardingEntry* wc = cache_->find_wc(group);

    if (sg != nullptr) {
        sg->note_data(router_->simulator().now());
        if (sg->spt_bit() || sg->rp_bit()) {
            // Normal path: strict incoming interface check.
            if (ifindex == sg->iif()) {
                forward_recorded(*sg, ifindex, packet, provenance::EntryKind::kSg);
                if (delegate_ != nullptr) {
                    delegate_->on_sg_forward(*sg, ifindex, packet);
                    if (sg->oif_list_empty(router_->simulator().now())) {
                        delegate_->on_no_downstream(*sg, ifindex, packet);
                    }
                }
            } else {
                router_->network().stats().count_data_dropped_iif();
                record_hop(ifindex, packet, sg, provenance::EntryKind::kSg,
                           /*rpf_ok=*/false,
                           delegate_ != nullptr
                               ? delegate_->classify_iif_drop(ifindex, packet)
                               : provenance::DropReason::kRpfFail);
                if (delegate_ != nullptr) delegate_->on_iif_check_failed(ifindex, packet);
            }
            return;
        }
        // (S,G) with cleared SPT bit: the §3.5 transition exceptions.
        if (ifindex == sg->iif()) {
            // Second exception: data arrived on the shortest-path iif —
            // forward it and set the SPT bit.
            forward_recorded(*sg, ifindex, packet, provenance::EntryKind::kSg);
            sg->set_spt_bit(true);
            if (delegate_ != nullptr) {
                delegate_->on_spt_bit_set(*sg);
                delegate_->on_sg_forward(*sg, ifindex, packet);
            }
            return;
        }
        // First exception: fall back to the (*,G) entry while the SPT
        // branch is still being built.
        if (wc != nullptr && ifindex == wc->iif()) {
            forward_recorded(*wc, ifindex, packet,
                             provenance::EntryKind::kSgFallbackWc);
            if (delegate_ != nullptr) delegate_->on_wildcard_forward(ifindex, packet);
            return;
        }
        router_->network().stats().count_data_dropped_iif();
        record_hop(ifindex, packet, sg, provenance::EntryKind::kSg,
                   /*rpf_ok=*/false,
                   delegate_ != nullptr ? delegate_->classify_iif_drop(ifindex, packet)
                                        : provenance::DropReason::kRpfFail);
        if (delegate_ != nullptr) delegate_->on_iif_check_failed(ifindex, packet);
        return;
    }

    if (wc != nullptr) {
        if (ifindex == wc->iif()) {
            forward_recorded(*wc, ifindex, packet,
                             provenance::EntryKind::kWildcard);
            if (delegate_ != nullptr) delegate_->on_wildcard_forward(ifindex, packet);
        } else {
            router_->network().stats().count_data_dropped_iif();
            record_hop(ifindex, packet, wc, provenance::EntryKind::kWildcard,
                       /*rpf_ok=*/false,
                       delegate_ != nullptr
                           ? delegate_->classify_iif_drop(ifindex, packet)
                           : provenance::DropReason::kRpfFail);
            if (delegate_ != nullptr) delegate_->on_iif_check_failed(ifindex, packet);
        }
        return;
    }

    if (delegate_ != nullptr) delegate_->on_no_entry(ifindex, packet);
}

} // namespace pimlib::mcast
