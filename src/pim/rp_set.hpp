// Group → rendezvous-point mapping (§3.1, §3.9, §4 "Selecting and
// identifying RPs"). Mappings can be statically configured per group or per
// group-address range, learned dynamically from hosts via the paper's
// proposed IGMP RP-map message, or installed by the bootstrap subsystem
// (src/pim/bootstrap) from the BSR's flooded RP-set. Static configuration
// stays authoritative when present; the dynamic BSR-learned layer is
// consulted last and elects exactly one RP per group via the RFC 7761
// §4.7.2 hash so every router in the domain agrees without coordination.
// The static RP list is ordered: receivers join the first *reachable* RP
// and fail over down the list.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/ipv4.hpp"

namespace pimlib::pim {

/// One group's ordered RP list, read without a copy: a view of a stored
/// list, or the single BSR-elected RP held inline. A view is valid until
/// its RpSet next changes.
class RpList {
public:
    RpList() = default;
    explicit RpList(const std::vector<net::Ipv4Address>& stored)
        : stored_(stored.data()), size_(stored.size()) {}
    explicit RpList(net::Ipv4Address elected) : elected_(elected), size_(1) {}

    [[nodiscard]] const net::Ipv4Address* begin() const {
        return stored_ != nullptr ? stored_ : &elected_;
    }
    [[nodiscard]] const net::Ipv4Address* end() const { return begin() + size_; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] bool contains(net::Ipv4Address rp) const {
        return std::find(begin(), end(), rp) != end();
    }

private:
    const net::Ipv4Address* stored_ = nullptr;
    net::Ipv4Address elected_;
    std::size_t size_ = 0;
};

class RpSet {
public:
    /// One BSR-learned candidate-RP mapping. Expiry is tracked by the
    /// bootstrap agent that owns the soft state; the RpSet only stores the
    /// currently-live set it is handed.
    struct DynamicRp {
        net::Prefix range;
        net::Ipv4Address rp;
        std::uint8_t priority = 0; // higher wins

        friend bool operator==(const DynamicRp&, const DynamicRp&) = default;
    };

    /// Statically configures the RP list for one group.
    void configure(net::GroupAddress group, std::vector<net::Ipv4Address> rps);

    /// Configures the RP list for a whole class-D range (e.g. 224.1.0.0/16).
    void configure_range(net::Prefix range, std::vector<net::Ipv4Address> rps);

    /// Merges a host-announced mapping (does not override static config for
    /// the exact group; the paper treats configuration as authoritative).
    void learn(net::GroupAddress group, std::vector<net::Ipv4Address> rps);

    /// Replaces the whole BSR-learned layer (the bootstrap agent calls this
    /// with the live entries each time the flooded RP-set or its holdtimes
    /// change). Returns true when the effective set actually changed, so the
    /// caller can count/emit on real transitions only.
    bool set_dynamic(std::vector<DynamicRp> entries);
    [[nodiscard]] const std::vector<DynamicRp>& dynamic_entries() const {
        return dynamic_;
    }

    /// The dynamically elected RP for `group`, ignoring every static layer:
    /// longest matching range, then highest priority, then highest §4.7.2
    /// hash value, then highest address. nullopt when no dynamic entry
    /// matches.
    [[nodiscard]] std::optional<net::Ipv4Address> dynamic_rp_for(
        net::GroupAddress group) const;

    /// Ordered RP list for `group`: exact static mapping first, then learned
    /// mapping, then the longest configured range, then the BSR-learned
    /// dynamic election (a single RP — the whole domain hashes to the same
    /// one). Empty when the group has no sparse-mode mapping (the paper's
    /// signal to fall back to dense mode, §3.1).
    [[nodiscard]] RpList rps_for(net::GroupAddress group) const;

    /// True if the group is to be handled in sparse mode at all.
    [[nodiscard]] bool has_mapping(net::GroupAddress group) const {
        return !rps_for(group).empty();
    }

    /// The RFC 7761 §4.7.2 hash: Value(G,M,C) for group G masked by the
    /// hash mask M against candidate RP address C. Exposed so tests can
    /// check the election against the published function.
    [[nodiscard]] static std::uint32_t hash_value(std::uint32_t group_masked,
                                                  std::uint32_t rp);

    /// Mask length applied to the group before hashing (RFC default 30:
    /// consecutive groups spread over the candidate RPs in blocks of four).
    void set_hash_mask_len(int len) { hash_mask_len_ = len; }
    [[nodiscard]] int hash_mask_len() const { return hash_mask_len_; }

private:
    std::map<net::GroupAddress, std::vector<net::Ipv4Address>> static_;
    std::map<net::GroupAddress, std::vector<net::Ipv4Address>> learned_;
    std::map<net::Prefix, std::vector<net::Ipv4Address>> ranges_;
    std::vector<DynamicRp> dynamic_;
    int hash_mask_len_ = 30;
};

} // namespace pimlib::pim
