#include "pim/rp_set.hpp"

#include <algorithm>

namespace pimlib::pim {

void RpSet::configure(net::GroupAddress group, std::vector<net::Ipv4Address> rps) {
    static_[group] = std::move(rps);
}

void RpSet::configure_range(net::Prefix range, std::vector<net::Ipv4Address> rps) {
    ranges_[range] = std::move(rps);
}

void RpSet::learn(net::GroupAddress group, std::vector<net::Ipv4Address> rps) {
    learned_[group] = std::move(rps);
}

bool RpSet::set_dynamic(std::vector<DynamicRp> entries) {
    // Canonical order makes equality a content comparison, so a reflood of
    // the same RP-set in a different entry order is not a "change".
    std::sort(entries.begin(), entries.end(),
              [](const DynamicRp& a, const DynamicRp& b) {
                  if (a.range != b.range) return a.range < b.range;
                  return a.rp < b.rp;
              });
    if (entries == dynamic_) return false;
    dynamic_ = std::move(entries);
    return true;
}

std::uint32_t RpSet::hash_value(std::uint32_t group_masked, std::uint32_t rp) {
    // RFC 7761 §4.7.2: Value(G,M,C) =
    //   (1103515245 * ((1103515245 * (G&M) + 12345) XOR C) + 12345) mod 2^31
    const std::uint64_t inner =
        (1103515245ull * group_masked + 12345ull) ^ std::uint64_t{rp};
    const std::uint64_t value = 1103515245ull * inner + 12345ull;
    return static_cast<std::uint32_t>(value & 0x7fffffffu);
}

std::optional<net::Ipv4Address> RpSet::dynamic_rp_for(net::GroupAddress group) const {
    // Longest matching range first; among those, highest priority; then the
    // §4.7.2 hash; then highest address. Every router computes the same
    // winner from the same flooded set — that is the whole point.
    int best_len = -1;
    for (const DynamicRp& e : dynamic_) {
        if (e.range.contains(group.address())) best_len = std::max(best_len, e.range.length());
    }
    if (best_len < 0) return std::nullopt;

    const std::uint32_t mask =
        hash_mask_len_ == 0 ? 0u : (0xFFFF'FFFFu << (32 - hash_mask_len_));
    const std::uint32_t group_masked = group.address().to_uint() & mask;
    const DynamicRp* best = nullptr;
    std::uint32_t best_hash = 0;
    for (const DynamicRp& e : dynamic_) {
        if (!e.range.contains(group.address()) || e.range.length() != best_len) continue;
        const std::uint32_t h = hash_value(group_masked, e.rp.to_uint());
        if (best == nullptr || e.priority > best->priority ||
            (e.priority == best->priority &&
             (h > best_hash || (h == best_hash && e.rp > best->rp)))) {
            best = &e;
            best_hash = h;
        }
    }
    return best != nullptr ? std::optional{best->rp} : std::nullopt;
}

RpList RpSet::rps_for(net::GroupAddress group) const {
    if (auto it = static_.find(group); it != static_.end()) return RpList{it->second};
    if (auto it = learned_.find(group); it != learned_.end()) return RpList{it->second};
    const std::vector<net::Ipv4Address>* best = nullptr;
    int best_len = -1;
    for (const auto& [range, rps] : ranges_) {
        if (range.contains(group.address()) && range.length() > best_len) {
            best = &rps;
            best_len = range.length();
        }
    }
    if (best != nullptr) return RpList{*best};
    if (auto rp = dynamic_rp_for(group)) return RpList{*rp};
    return {};
}

} // namespace pimlib::pim
