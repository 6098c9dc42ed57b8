// MOSPF baseline (Moy, the paper's references [3]/[7]): link-state multicast.
// Group membership is flooded domain-wide in group-membership LSAs; each
// router computes the source-rooted shortest-path tree on demand when the
// first data packet of an (S,G) arrives (the Dijkstra cost the paper calls
// out as a scaling limit), and installs the resulting forwarding entry.
//
// Substitution note (DESIGN.md): the unicast topology database is taken from
// the global simulation topology — the same information a converged OSPF
// LSDB holds — while *membership* LSAs are real flooded messages, because
// membership broadcast is the overhead the paper critiques (§1.1).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "igmp/router_agent.hpp"
#include "mcast/forwarding_cache.hpp"
#include "sim/simulator.hpp"
#include "topo/network.hpp"
#include "topo/router.hpp"

namespace pimlib::mospf {

/// Group-membership LSA: the set of groups with members attached to the
/// originating router.
struct MembershipLsa {
    net::Ipv4Address origin; // router id
    std::uint32_t seq = 0;
    std::vector<net::Ipv4Address> groups;

    [[nodiscard]] std::vector<std::uint8_t> encode() const;
    static std::optional<MembershipLsa> decode(std::span<const std::uint8_t> bytes);
};

struct MospfConfig {
    sim::Time lsa_refresh = 30 * sim::kSecond;

    [[nodiscard]] MospfConfig scaled(double factor) const {
        MospfConfig out = *this;
        out.lsa_refresh =
            static_cast<sim::Time>(static_cast<double>(lsa_refresh) * factor);
        return out;
    }
};

class MospfRouter final : public mcast::DataPlane::Delegate {
public:
    MospfRouter(topo::Router& router, igmp::RouterAgent& igmp, MospfConfig config = {});

    MospfRouter(const MospfRouter&) = delete;
    MospfRouter& operator=(const MospfRouter&) = delete;

    [[nodiscard]] mcast::ForwardingCache& cache() { return cache_; }
    /// Routers known (via flooded LSAs) to have members of `group`.
    [[nodiscard]] std::set<net::Ipv4Address> member_routers(net::GroupAddress group) const;
    [[nodiscard]] std::size_t spf_runs() const { return spf_runs_; }

    /// Simulates a crash+restart: the membership database and the
    /// forwarding cache are lost; the refresh timer restarts and our LSA
    /// goes out at once. The LSA sequence number survives (stable
    /// storage): peers drop an LSA that is not newer.
    void reboot();

    void on_no_entry(int ifindex, const net::Packet& packet) override;

private:
    void on_message(int ifindex, const net::Packet& packet);
    void on_membership(int ifindex, net::GroupAddress group, bool present);
    void originate_lsa();
    void flood(const MembershipLsa& lsa, int except_ifindex);
    /// Builds the (S,G) entry from the domain-wide SPT rooted at the
    /// source's subnet. Returns nullptr when we are not on the tree.
    mcast::ForwardingEntry* compute_entry(net::Ipv4Address source,
                                          net::GroupAddress group);

    topo::Router* router_;
    igmp::RouterAgent* igmp_;
    MospfConfig config_;
    mcast::ForwardingCache cache_;
    mcast::DataPlane data_plane_;

    std::uint32_t own_seq_ = 0;
    // lsdb_[router id] = {seq, groups}
    std::map<net::Ipv4Address, std::pair<std::uint32_t, std::set<net::Ipv4Address>>> lsdb_;
    std::size_t spf_runs_ = 0;
    sim::PeriodicTimer refresh_timer_;
};

} // namespace pimlib::mospf
