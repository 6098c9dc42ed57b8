// Scenario assembly: one-call protocol stacks that wire IGMP + a multicast
// routing protocol onto every router of a topo::Network, and IGMP host
// agents onto every host. Used throughout tests, examples and benchmarks —
// and the natural entry point for library users.
//
// StackBase is the one protocol-neutral interface (set_rp, caches,
// wire_faults); make_stack() builds any of the five stacks by its script
// name, and the typed subclasses add only their protocol's own accessors.
//
// Unicast routing must be installed on the routers *before* constructing a
// stack (e.g. unicast::OracleRouting, DvRoutingDomain or LsRoutingDomain),
// because PIM subscribes to route changes at construction (§3.8).
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string_view>

#include "cbt/cbt.hpp"
#include "dvmrp/dvmrp.hpp"
#include "fault/fault_injector.hpp"
#include "igmp/host_agent.hpp"
#include "igmp/router_agent.hpp"
#include "mospf/mospf.hpp"
#include "pim/bootstrap/bootstrap.hpp"
#include "pim/pim_dm.hpp"
#include "pim/pim_sm.hpp"
#include "topo/network.hpp"

namespace pimlib::scenario {

/// Scales protocol timers uniformly so tests can compress hours of protocol
/// time into milliseconds of simulated time.
struct StackConfig {
    pim::PimConfig pim{};
    pim::BootstrapConfig bootstrap{};
    mcast::FloodPruneConfig pim_dm = pim::kPimDmConfig;
    mcast::FloodPruneConfig dvmrp = dvmrp::kDvmrpConfig;
    cbt::CbtConfig cbt{};
    mospf::MospfConfig mospf{};
    igmp::RouterConfig igmp{};
    igmp::HostConfig host{};

    [[nodiscard]] StackConfig scaled(double factor) const;
};

/// IGMP router agents on all routers, host agents on all hosts, and per
/// router the routing protocol's forwarding cache and crash reboots, which
/// each protocol stack's constructor records once.
class StackBase {
public:
    explicit StackBase(topo::Network& network, const StackConfig& config);
    virtual ~StackBase() = default;

    StackBase(const StackBase&) = delete;
    StackBase& operator=(const StackBase&) = delete;

    [[nodiscard]] igmp::RouterAgent& igmp_at(const topo::Router& router) {
        return *igmp_.at(&router);
    }
    [[nodiscard]] igmp::HostAgent& host_agent(const topo::Host& host) {
        return *host_agents_.at(&host);
    }
    [[nodiscard]] topo::Network& network() { return *network_; }

    /// Roots `group` on every router (static configuration, §3.1): PIM-SM
    /// takes `rps` as the group's RP list, CBT its first entry as the core.
    /// The dense-mode and link-state stacks build source trees and ignore it.
    virtual void set_rp(net::GroupAddress /*group*/, std::vector<net::Ipv4Address> /*rps*/) {}

    /// Registers one crash reset per router with `injector`. It runs the
    /// router's recorded reboots (IGMP, the routing protocol, then any
    /// bootstrap agent), looked up when it fires.
    void wire_faults(fault::FaultInjector& injector);

    /// Captures every router's multicast forwarding state (the MRIB) as one
    /// diffable telemetry snapshot, stamped with the current sim-time: each
    /// recorded cache's snapshot, in router order; a router without a
    /// cache contributes nothing. Pair with
    /// network().telemetry().store_snapshot().
    [[nodiscard]] telemetry::MribSnapshot capture_mrib();

    /// Every router's live multicast forwarding cache, the one its
    /// protocol's DataPlane forwards from, indexed by node id (nullptr where
    /// none was recorded). Sized once at construction, so the tree monitor
    /// and the invariant watchdog hold it for the stack's lifetime and walk
    /// MRIBs without knowing which protocol the stack runs.
    [[nodiscard]] mcast::CacheTable caches() const { return caches_; }
    /// One router's entry of caches().
    [[nodiscard]] const mcast::ForwardingCache* cache_of(const topo::Router& router) const {
        const auto id = static_cast<std::size_t>(router.id());
        return id < caches_.size() ? caches_[id] : nullptr;
    }

    /// The model checker's state-dedup key, read straight off the live
    /// protocol state: each router's id mixed with its cache's structural
    /// hash, summed so router order cannot matter. Two moments of one network
    /// get equal keys exactly when their capture_mrib() snapshots diff empty
    /// (up to 64-bit collisions). A router with no entries still contributes
    /// its id. Builds no string and allocates nothing.
    [[nodiscard]] std::uint64_t state_key();

protected:
    template <typename P>
    using PerRouter = std::map<const topo::Router*, std::unique_ptr<P>, topo::NodeIdLess>;

    /// Appends `reboot` to what a crash or restart of `router` runs.
    void record_reboot(const topo::Router& router, std::function<void()> reboot) {
        reboots_.at(static_cast<std::size_t>(router.id())).push_back(std::move(reboot));
    }

    /// Builds protocol P on every router in router-id order, each over the
    /// router's IGMP agent, and records its cache and reboot().
    template <typename P, typename Config>
    void build(PerRouter<P>& out, const Config& config) {
        for (const auto& router : network_->routers()) {
            P& p = *(out[router.get()] = std::make_unique<P>(*router, igmp_at(*router), config));
            caches_.at(static_cast<std::size_t>(router->id())) = &p.cache();
            record_reboot(*router, [&p] { p.reboot(); });
        }
    }

    topo::Network* network_;
    StackConfig config_;

private:
    PerRouter<igmp::RouterAgent> igmp_;
    std::map<const topo::Host*, std::unique_ptr<igmp::HostAgent>, topo::NodeIdLess> host_agents_;
    // Both indexed by node id.
    std::vector<const mcast::ForwardingCache*> caches_;
    std::vector<std::vector<std::function<void()>>> reboots_;
};

/// PIM sparse mode on every router (the paper's §3 protocol).
class PimSmStack : public StackBase {
public:
    explicit PimSmStack(topo::Network& network, StackConfig config = {});

    [[nodiscard]] pim::PimSmRouter& pim_at(const topo::Router& router) {
        return *pim_.at(&router);
    }
    /// Configures the group's RP list on every router (static config, §3.1).
    void set_rp(net::GroupAddress group, std::vector<net::Ipv4Address> rps) override;
    void set_spt_policy(pim::SptPolicy policy);

    /// Starts a BootstrapAgent on every router (idempotent) so the RP set
    /// can be discovered dynamically instead of configured via set_rp.
    void enable_bootstrap();
    [[nodiscard]] pim::BootstrapAgent& bootstrap_at(const topo::Router& router) {
        enable_bootstrap();
        return *bootstrap_.at(&router);
    }
    /// Declares `router` a candidate BSR / candidate RP (enables bootstrap
    /// on every router first — flooding needs all of them participating).
    void set_candidate_bsr(const topo::Router& router, std::uint8_t priority);
    void set_candidate_rp(const topo::Router& router, net::Prefix range,
                          std::uint8_t priority);

private:
    PerRouter<pim::PimSmRouter> pim_;
    PerRouter<pim::BootstrapAgent> bootstrap_;
};

/// PIM dense mode everywhere (the companion protocol [13]).
class PimDmStack : public StackBase {
public:
    explicit PimDmStack(topo::Network& network, StackConfig config = {});
    [[nodiscard]] pim::PimDmRouter& pim_at(const topo::Router& router) {
        return *pim_.at(&router);
    }

private:
    PerRouter<pim::PimDmRouter> pim_;
};

/// DVMRP everywhere (dense-mode baseline).
class DvmrpStack : public StackBase {
public:
    explicit DvmrpStack(topo::Network& network, StackConfig config = {});
    [[nodiscard]] dvmrp::DvmrpRouter& dvmrp_at(const topo::Router& router) {
        return *dvmrp_.at(&router);
    }

private:
    PerRouter<dvmrp::DvmrpRouter> dvmrp_;
};

/// CBT everywhere (shared-tree baseline).
class CbtStack : public StackBase {
public:
    explicit CbtStack(topo::Network& network, StackConfig config = {});
    [[nodiscard]] cbt::CbtRouter& cbt_at(const topo::Router& router) {
        return *cbt_.at(&router);
    }
    /// Configures `rps.front()` as the group's core on every router.
    void set_rp(net::GroupAddress group, std::vector<net::Ipv4Address> rps) override;

private:
    PerRouter<cbt::CbtRouter> cbt_;
};

/// MOSPF everywhere (link-state baseline).
class MospfStack : public StackBase {
public:
    explicit MospfStack(topo::Network& network, StackConfig config = {});
    [[nodiscard]] mospf::MospfRouter& mospf_at(const topo::Router& router) {
        return *mospf_.at(&router);
    }

private:
    PerRouter<mospf::MospfRouter> mospf_;
};

/// One multicast routing protocol: the name a pimsim `protocol` line uses,
/// and its stack's constructor.
struct StackProtocol {
    std::string_view name;
    std::unique_ptr<StackBase> (*make)(topo::Network& network, const StackConfig& config);
};

/// The five protocols, the one list scripts, tests and benches choose from.
extern const std::array<StackProtocol, 5> kStackProtocols;

/// The kStackProtocols stack named `protocol`, built on `network`. Throws
/// std::invalid_argument on any other name.
[[nodiscard]] std::unique_ptr<StackBase> make_stack(std::string_view protocol,
                                                    topo::Network& network,
                                                    const StackConfig& config = {});

/// Splices a dense-mode region onto a sparse-mode border router (§4
/// "Interoperation with dense mode networks / regions").
///
/// The paper leaves the transport of member-existence information to the
/// border open ("we are working on a mechanism ... that relies on getting
/// the group member existence information to the border routers, and having
/// border routers send explicit joins"); this bridge implements it by
/// subscribing to the region's IGMP router agents and relaying membership
/// to PimSmRouter::set_dense_membership. The border's region-facing
/// interface must be flagged dense (PimSmRouter::set_interface_dense).
class DenseDomainBridge {
public:
    DenseDomainBridge(pim::PimSmRouter& border, int dense_ifindex)
        : border_(&border), dense_ifindex_(dense_ifindex) {
        border.set_interface_dense(dense_ifindex, true);
    }

    /// Starts relaying membership seen by `agent` (one of the region's
    /// routers) to the border.
    void watch(igmp::RouterAgent& agent);

private:
    void on_membership(const igmp::RouterAgent* agent, int ifindex,
                       net::GroupAddress group, bool present);

    pim::PimSmRouter* border_;
    int dense_ifindex_;
    // Reporters per group: (agent, ifindex) pairs with members present.
    // Ordered by (router id, ifindex), not agent address — see topo::NodeIdLess.
    struct ReporterLess {
        bool operator()(const std::pair<const igmp::RouterAgent*, int>& a,
                        const std::pair<const igmp::RouterAgent*, int>& b) const {
            const int aid = a.first->router().id();
            const int bid = b.first->router().id();
            return aid != bid ? aid < bid : a.second < b.second;
        }
    };
    std::map<net::GroupAddress,
             std::set<std::pair<const igmp::RouterAgent*, int>, ReporterLess>>
        reporters_;
};

} // namespace pimlib::scenario
