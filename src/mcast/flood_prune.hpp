// Flood-and-prune: the reverse-path multicast scheme DVMRP and PIM dense
// mode (the paper's [13]) share. Data from a source is flooded out every
// interface with neighbors or local members (truncated broadcast, §1.1);
// a router with nothing downstream prunes itself off; a pruned branch
// grows back when its prune lifetime runs out; a new member grafts its
// branch back on at once. RPF comes from the router's unicast RIB.
//
// FloodPrune is that state machine, once. A protocol derives from it as a
// wire adapter: it decodes its own frames and calls on_hello / on_prune /
// on_graft, and it encodes the payloads the engine sends.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "igmp/router_agent.hpp"
#include "mcast/forwarding_cache.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "topo/router.hpp"

namespace pimlib::mcast {

/// A flood-and-prune protocol's timers. Each protocol names its defaults
/// (pim::kPimDmConfig, dvmrp::kDvmrpConfig).
struct FloodPruneConfig {
    /// Neighbor discovery (PIM Query, DVMRP Probe) interval and liveness.
    sim::Time hello_interval{};
    sim::Time neighbor_holdtime{};
    /// How long a pruned branch stays pruned before it "grows back".
    sim::Time prune_lifetime{};
    /// (S,G) entry lifetime without data.
    sim::Time entry_lifetime{};

    [[nodiscard]] FloodPruneConfig scaled(double factor) const;
};

/// A duration as the whole milliseconds the wire formats carry, and back.
[[nodiscard]] inline std::uint32_t wire_ms(sim::Time t) {
    return static_cast<std::uint32_t>(t / sim::kMillisecond);
}
[[nodiscard]] inline sim::Time from_wire_ms(std::uint32_t ms) {
    return static_cast<sim::Time>(ms) * sim::kMillisecond;
}

class FloodPrune : public DataPlane::Delegate {
public:
    FloodPrune(const FloodPrune&) = delete;
    FloodPrune& operator=(const FloodPrune&) = delete;

    [[nodiscard]] ForwardingCache& cache() { return cache_; }
    [[nodiscard]] topo::Router& router() { return *router_; }
    [[nodiscard]] std::vector<net::Ipv4Address> neighbors_on(int ifindex) const;

    // --- DataPlane::Delegate ---
    void on_no_entry(int ifindex, const net::Packet& packet) override;
    void on_no_downstream(ForwardingEntry& entry, int ifindex,
                          const net::Packet& packet) override;

protected:
    /// Starts the hello timer, then the tick timer, then sends the first
    /// hellos at once. `control` counts every message sent, and its name
    /// labels the prune and graft events.
    FloodPrune(topo::Router& router, igmp::RouterAgent& igmp, FloodPruneConfig config,
               stats::ControlName control);
    ~FloodPrune() override = default;

    [[nodiscard]] const FloodPruneConfig& config() const { return config_; }

    // --- decoded messages, from the wire adapter ---
    /// Neighbor `from` on `ifindex` is alive for `holdtime`.
    void on_hello(int ifindex, net::Ipv4Address from, sim::Time holdtime);
    /// A downstream router on `ifindex` prunes (S,G) for `lifetime`. A prune
    /// arriving on the entry's own iif changes nothing.
    void on_prune(int ifindex, net::Ipv4Address source, net::GroupAddress group,
                  sim::Time lifetime);
    /// A downstream router on `ifindex` wants (S,G) back.
    void on_graft(int ifindex, net::Ipv4Address source, net::GroupAddress group);

    // --- payloads, from the wire adapter ---
    [[nodiscard]] virtual std::vector<std::uint8_t> hello_payload() const = 0;
    /// A prune or graft of `entry`, addressed to its upstream neighbor.
    [[nodiscard]] virtual std::vector<std::uint8_t> prune_payload(
        const ForwardingEntry& entry) const = 0;
    [[nodiscard]] virtual std::vector<std::uint8_t> graft_payload(
        const ForwardingEntry& entry) const = 0;

private:
    using SgKey = std::pair<net::Ipv4Address, net::GroupAddress>;

    void on_hello_timer();
    void on_membership(int ifindex, net::GroupAddress group, bool present);
    void on_tick();

    ForwardingEntry* build_entry(net::Ipv4Address source, net::GroupAddress group);
    /// True if `ifindex` should carry flooded data for `group`: it has
    /// neighbors (non-leaf) or local members (truncated broadcast, §1.1).
    [[nodiscard]] bool floods_to(int ifindex, net::GroupAddress group) const;
    /// Prunes `entry` off its upstream neighbor and remembers having done so.
    void prune_upstream(const ForwardingEntry& entry);
    /// Grafts `entry` back on upstream if it was pruned there.
    void graft_upstream(const ForwardingEntry& entry);

    void send_hellos();
    /// Emits `entry`'s prune or graft event, then sends the message out of
    /// its iif.
    void send_upstream(const ForwardingEntry& entry, bool graft);

    topo::Router* router_;
    igmp::RouterAgent* igmp_;
    FloodPruneConfig config_;
    stats::ControlName control_;
    std::string protocol_;
    ForwardingCache cache_;
    DataPlane data_plane_;

    std::map<int, std::map<net::Ipv4Address, sim::Time>> neighbors_;
    /// Prune state per (S,G,oif): pruned until the stored time.
    std::map<std::pair<SgKey, int>, sim::Time> prunes_;
    /// (S,G)s for which we sent a prune upstream (cleared by graft need).
    std::set<SgKey> pruned_upstream_;
    /// Rate limit for prune refreshes triggered by on_no_downstream.
    std::map<SgKey, sim::Time> last_prune_sent_;

    sim::PeriodicTimer hello_timer_;
    sim::PeriodicTimer tick_timer_;
};

} // namespace pimlib::mcast
