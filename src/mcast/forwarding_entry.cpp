#include "mcast/forwarding_entry.hpp"

#include <algorithm>

namespace pimlib::mcast {

ForwardingEntry ForwardingEntry::make_sg(net::Ipv4Address source, net::GroupAddress group) {
    ForwardingEntry e;
    e.group_ = group;
    e.source_or_rp_ = source;
    e.wc_bit_ = false;
    return e;
}

ForwardingEntry ForwardingEntry::make_wc(net::Ipv4Address rp, net::GroupAddress group) {
    ForwardingEntry e;
    e.group_ = group;
    e.source_or_rp_ = rp;
    e.wc_bit_ = true;
    e.rp_bit_ = true; // a shared-tree entry's iif check is toward the RP
    return e;
}

ForwardingEntry::OifList::iterator ForwardingEntry::lower_bound_oif(int ifindex) {
    return std::lower_bound(
        oifs_.begin(), oifs_.end(), ifindex,
        [](const std::pair<int, OifState>& a, int b) { return a.first < b; });
}

OifState& ForwardingEntry::ensure_oif(int ifindex) {
    auto it = lower_bound_oif(ifindex);
    if (it == oifs_.end() || it->first != ifindex) {
        it = oifs_.insert(it, {ifindex, OifState{}});
    }
    return it->second;
}

const OifState* ForwardingEntry::find_oif(int ifindex) const {
    auto it = std::lower_bound(
        oifs_.begin(), oifs_.end(), ifindex,
        [](const std::pair<int, OifState>& a, int b) { return a.first < b; });
    if (it == oifs_.end() || it->first != ifindex) return nullptr;
    return &it->second;
}

void ForwardingEntry::add_oif(int ifindex, sim::Time expires) {
    OifState& state = ensure_oif(ifindex);
    state.expires = std::max(state.expires, expires);
    delete_at_ = 0; // oif list non-null again
}

void ForwardingEntry::pin_oif(int ifindex) {
    ensure_oif(ifindex).pinned = true;
    delete_at_ = 0;
}

void ForwardingEntry::unpin_oif(int ifindex) {
    auto it = lower_bound_oif(ifindex);
    if (it == oifs_.end() || it->first != ifindex) return;
    it->second.pinned = false;
    if (it->second.expires == 0) oifs_.erase(it);
}

void ForwardingEntry::refresh_oif(int ifindex, sim::Time expires) {
    auto it = lower_bound_oif(ifindex);
    if (it == oifs_.end() || it->first != ifindex) return;
    it->second.expires = std::max(it->second.expires, expires);
}

void ForwardingEntry::remove_oif(int ifindex) {
    auto it = lower_bound_oif(ifindex);
    if (it != oifs_.end() && it->first == ifindex) oifs_.erase(it);
}

void ForwardingEntry::mark_pruned(int ifindex) {
    auto it = std::lower_bound(pruned_oifs_.begin(), pruned_oifs_.end(), ifindex);
    if (it == pruned_oifs_.end() || *it != ifindex) pruned_oifs_.insert(it, ifindex);
    remove_oif(ifindex);
}

void ForwardingEntry::clear_pruned(int ifindex) {
    auto it = std::lower_bound(pruned_oifs_.begin(), pruned_oifs_.end(), ifindex);
    if (it != pruned_oifs_.end() && *it == ifindex) pruned_oifs_.erase(it);
}

bool ForwardingEntry::is_pruned(int ifindex) const {
    return std::binary_search(pruned_oifs_.begin(), pruned_oifs_.end(), ifindex);
}

std::vector<int> ForwardingEntry::expire_oifs(sim::Time now) {
    std::vector<int> removed;
    auto keep = oifs_.begin();
    for (auto& oif : oifs_) {
        if (oif.second.alive(now)) {
            *keep++ = oif;
        } else {
            removed.push_back(oif.first);
        }
    }
    oifs_.erase(keep, oifs_.end());
    return removed;
}

std::string ForwardingEntry::describe() const {
    std::string out = wc_bit_ ? "(*, " : "(" + source_or_rp_.to_string() + ", ";
    out += group_.to_string() + ")";
    if (wc_bit_) out += " RP=" + source_or_rp_.to_string();
    out += " iif=" + std::to_string(iif_);
    out += " oifs={";
    bool first = true;
    for (const auto& [ifindex, state] : oifs_) {
        if (!first) out += ",";
        out += std::to_string(ifindex);
        if (state.pinned) out += "*";
        first = false;
    }
    out += "}";
    if (rp_bit_) out += " RPbit";
    if (spt_bit_) out += " SPTbit";
    return out;
}

std::uint64_t entry_state_hash(net::Ipv4Address source_or_rp, net::GroupAddress group,
                               EntryBits bits, int iif,
                               std::optional<net::Ipv4Address> upstream,
                               IfindexSet oifs, IfindexSet pruned) {
    // Each field folds in through the bijective mixer, so two entries
    // differing in any field collide only with 64-bit hash probability.
    const std::uint64_t flags = (bits.wildcard ? 1u : 0u) | (bits.rp ? 2u : 0u) |
                                (bits.spt ? 4u : 0u) | (upstream ? 8u : 0u);
    std::uint64_t h = state_mix((std::uint64_t{source_or_rp.to_uint()} << 32) |
                                group.address().to_uint());
    h = state_mix(h ^ ((std::uint64_t{static_cast<std::uint32_t>(iif)} << 4) | flags));
    h = state_mix(h ^ (upstream ? upstream->to_uint() : 0u));
    h = state_mix(h ^ oifs.digest);
    return state_mix(h ^ pruned.digest);
}

} // namespace pimlib::mcast
