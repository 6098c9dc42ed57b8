// PIM dense mode — the companion protocol the paper cites as [13]: a
// DVMRP-like reverse-path-multicast scheme (flood, prune, graft, timed
// prune regrowth) that is unicast-routing-protocol independent: it takes
// its RPF information from the router's RIB instead of running its own
// routing protocol.
//
// The flood-and-prune state machine is mcast::FloodPrune; this class is its
// PIM wire: Query hellos and one-record Join/Prunes, a prune or a join that
// grafts the branch back on.
#pragma once

#include "mcast/flood_prune.hpp"

namespace pimlib::pim {

/// PIM-DM's timers: a Query every 30 s, neighbors held 105 s, prunes and
/// idle entries kept 180 s.
inline constexpr mcast::FloodPruneConfig kPimDmConfig{
    .hello_interval = 30 * sim::kSecond,
    .neighbor_holdtime = 105 * sim::kSecond,
    .prune_lifetime = 180 * sim::kSecond,
    .entry_lifetime = 180 * sim::kSecond,
};

class PimDmRouter final : public mcast::FloodPrune {
public:
    PimDmRouter(topo::Router& router, igmp::RouterAgent& igmp,
                mcast::FloodPruneConfig config = kPimDmConfig);

private:
    /// Applies a Query, or the prunes and joins of a Join/Prune addressed
    /// to this router's interface; a prune lasts the configured lifetime.
    void on_pim_message(int ifindex, const net::Packet& packet);

    [[nodiscard]] std::vector<std::uint8_t> hello_payload() const override;
    [[nodiscard]] std::vector<std::uint8_t> prune_payload(
        const mcast::ForwardingEntry& entry) const override;
    [[nodiscard]] std::vector<std::uint8_t> graft_payload(
        const mcast::ForwardingEntry& entry) const override;
};

} // namespace pimlib::pim
