// Fault injection for robustness experiments (§2.7: "the architecture must
// be robust to router failures, link failures, and partitions"). The
// injector breaks a running network in controlled, scheduled ways — link
// cuts, router crashes (losing all protocol soft state, as a real reboot
// would), partitions, probabilistic segment loss — so scenarios can measure
// how the soft-state protocol machinery heals the distribution trees.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "topo/network.hpp"

namespace pimlib::fault {

/// One injected fault, for the scenario's event log.
struct FaultEvent {
    sim::Time at = 0;
    std::string description;
};

class FaultInjector {
public:
    explicit FaultInjector(topo::Network& network) : network_(&network) {}

    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    // --- immediate faults -------------------------------------------------

    /// Takes a segment down. Topology observers fire (unicast RIBs
    /// recompute); in-flight frames already scheduled on the segment are
    /// destroyed at delivery time.
    void cut_link(topo::Segment& segment);
    void restore_link(topo::Segment& segment);

    /// Crashes a router: every interface goes down in one batched topology
    /// change, and the router's registered protocol resets run — all soft
    /// state (forwarding cache, neighbor tables, timers) is lost at the
    /// instant of the crash. While crashed the router neither hears nor
    /// sends anything.
    void crash_router(topo::Router& router);

    /// Restarts a crashed router: interfaces come back up and the protocol
    /// resets run again, modelling a freshly booted protocol stack that
    /// must relearn everything from IGMP reports, hellos, and joins.
    void restart_router(topo::Router& router);

    /// Cuts a set of segments as one compound fault (single topology
    /// recomputation) — the way to split a network into partitions.
    void partition(const std::vector<topo::Segment*>& cut_set);
    /// Restores every segment cut by the most recent partition().
    void heal_partition();

    /// Per-frame loss probability on a segment (see Segment::set_loss_rate).
    void set_loss(topo::Segment& segment, double rate);

    // --- scheduled variants (absolute simulated time) ---------------------

    void cut_link_at(sim::Time when, topo::Segment& segment);
    void restore_link_at(sim::Time when, topo::Segment& segment);
    void crash_router_at(sim::Time when, topo::Router& router);
    void restart_router_at(sim::Time when, topo::Router& router);
    void partition_at(sim::Time when, std::vector<topo::Segment*> cut_set);
    void heal_partition_at(sim::Time when);
    void set_loss_at(sim::Time when, topo::Segment& segment, double rate);

    // --- protocol wiring --------------------------------------------------

    /// Registers a reset hook for `router`, run on crash and on restart.
    /// scenario::StackBase::wire_faults registers one per router, running
    /// that router's protocol reboots (IGMP, the routing protocol, …).
    /// Several hooks per router compose (run in registration order).
    void on_crash(const topo::Router& router, std::function<void()> reset);

    [[nodiscard]] bool is_crashed(const topo::Router& router) const {
        return crashed_.contains(&router);
    }

    /// Everything injected so far, in injection order.
    [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }

private:
    void record(const std::string& description);
    void schedule_at(sim::Time when, std::function<void()> fn);
    void run_resets(const topo::Router& router);

    topo::Network* network_;
    std::map<const topo::Router*, std::vector<std::function<void()>>, topo::NodeIdLess> resets_;
    // Interfaces that were already down before the crash stay down on
    // restart: crashed_[router] = ifindexes we took down.
    std::map<const topo::Router*, std::vector<int>, topo::NodeIdLess> crashed_;
    std::vector<topo::Segment*> partition_cut_;
    std::vector<FaultEvent> events_;
};

} // namespace pimlib::fault
