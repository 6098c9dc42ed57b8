// PIM dense mode — the companion protocol the paper cites as [13]: a
// DVMRP-like reverse-path-multicast scheme (flood, prune, graft, timed
// prune regrowth) that is unicast-routing-protocol independent: it takes
// its RPF information from the router's RIB instead of running its own
// routing protocol.
#pragma once

#include <map>
#include <set>

#include "igmp/router_agent.hpp"
#include "mcast/forwarding_cache.hpp"
#include "pim/messages.hpp"
#include "sim/simulator.hpp"
#include "topo/router.hpp"

namespace pimlib::pim {

struct PimDmConfig {
    /// How long a pruned branch stays pruned before it "grows back".
    sim::Time prune_lifetime = 180 * sim::kSecond;
    /// Neighbor discovery (PIM Query) interval and liveness.
    sim::Time query_interval = 30 * sim::kSecond;
    sim::Time neighbor_holdtime = 105 * sim::kSecond;
    /// (S,G) entry lifetime without data.
    sim::Time entry_lifetime = 180 * sim::kSecond;

    [[nodiscard]] PimDmConfig scaled(double factor) const;
};

class PimDmRouter final : public mcast::DataPlane::Delegate {
public:
    PimDmRouter(topo::Router& router, igmp::RouterAgent& igmp, PimDmConfig config = {});

    PimDmRouter(const PimDmRouter&) = delete;
    PimDmRouter& operator=(const PimDmRouter&) = delete;

    [[nodiscard]] mcast::ForwardingCache& cache() { return cache_; }
    [[nodiscard]] topo::Router& router() { return *router_; }
    [[nodiscard]] std::vector<net::Ipv4Address> neighbors_on(int ifindex) const;

    // --- mcast::DataPlane::Delegate ---
    void on_no_entry(int ifindex, const net::Packet& packet) override;
    void on_no_downstream(mcast::ForwardingEntry& entry, int ifindex,
                          const net::Packet& packet) override;

private:
    using SgKey = std::pair<net::Ipv4Address, net::GroupAddress>;

    void on_pim_message(int ifindex, const net::Packet& packet);
    void handle_prune(int ifindex, net::GroupAddress group, net::Ipv4Address source);
    void handle_graft(int ifindex, net::GroupAddress group, net::Ipv4Address source);
    void on_membership(int ifindex, net::GroupAddress group, bool present);
    void on_tick();

    mcast::ForwardingEntry* build_entry(net::Ipv4Address source, net::GroupAddress group);
    /// Sends the entry's upstream neighbor a one-record Join/Prune: a prune
    /// of (S,G), or with `graft` a join that grafts the branch back on.
    void send_join_prune(const mcast::ForwardingEntry& entry, bool graft);
    /// True if `ifindex` should carry flooded data for `group`: it has PIM
    /// neighbors (non-leaf) or local members (truncated broadcast, §1.1).
    [[nodiscard]] bool floods_to(int ifindex, net::GroupAddress group) const;

    topo::Router* router_;
    igmp::RouterAgent* igmp_;
    PimDmConfig config_;
    mcast::ForwardingCache cache_;
    mcast::DataPlane data_plane_;

    std::map<int, std::map<net::Ipv4Address, sim::Time>> neighbors_;
    /// Prune state per (S,G,oif): pruned until the stored time.
    std::map<std::pair<SgKey, int>, sim::Time> prunes_;
    /// (S,G)s for which we sent a prune upstream (cleared by graft need).
    std::set<SgKey> pruned_upstream_;
    /// Rate limit for prune refreshes triggered by on_no_downstream.
    std::map<SgKey, sim::Time> last_prune_sent_;

    sim::PeriodicTimer query_timer_;
    sim::PeriodicTimer tick_timer_;
};

} // namespace pimlib::pim
