// Scenario assembly: one-call protocol stacks that wire IGMP + a multicast
// routing protocol onto every router of a topo::Network, and IGMP host
// agents onto every host. Used throughout tests, examples and benchmarks —
// and the natural entry point for library users.
//
// Unicast routing must be installed on the routers *before* constructing a
// stack (e.g. unicast::OracleRouting, DvRoutingDomain or LsRoutingDomain),
// because PIM subscribes to route changes at construction (§3.8).
#pragma once

#include <map>
#include <memory>
#include <set>

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
    double time_scale = 1.0;
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

/// Common base: IGMP router agents on all routers, host agents on all hosts.
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

    /// Registers this stack's protocol reboots as the injector's crash
    /// resets, so crash_router()/restart_router() drop and rebuild protocol
    /// state. Derived stacks extend this with their routing protocol's
    /// reboot (call the base first).
    virtual void wire_faults(fault::FaultInjector& injector);

    /// Captures every router's multicast forwarding state (the MRIB) as one
    /// diffable telemetry snapshot, stamped with the current sim-time: each
    /// cache_of() cache's snapshot, in router order; a router without a
    /// cache contributes nothing. CBT overrides it to synthesize the same
    /// shape from its tree state, so all five protocols export alike. Pair
    /// with network().telemetry().store_snapshot().
    [[nodiscard]] virtual telemetry::MribSnapshot capture_mrib();

    /// The router's live multicast forwarding cache, or nullptr for stacks
    /// whose protocol keeps tree state outside a ForwardingCache (CBT holds
    /// parent/children state) and for the protocol-less base. Lets the tree
    /// monitor and the invariant watchdogs walk MRIBs incrementally without
    /// knowing which protocol the stack runs.
    [[nodiscard]] virtual const mcast::ForwardingCache* cache_of(const topo::Router& router);

    /// The model checker's state-dedup key, read straight off the live
    /// protocol state: each router's id mixed with its mrib_hash(), summed
    /// so router order cannot matter. Two moments of one network get equal
    /// keys exactly when their capture_mrib() snapshots diff empty (up to
    /// 64-bit collisions). A router with no entries still contributes its
    /// id. Builds no string and allocates nothing.
    [[nodiscard]] std::uint64_t state_key();

protected:
    /// One router's structural MRIB hash: its cache's structural_hash(), 0
    /// without a cache. CBT overrides it to hash the tree state it keeps.
    [[nodiscard]] virtual std::uint64_t mrib_hash(const topo::Router& router);

    topo::Network* network_;
    StackConfig config_;
    std::map<const topo::Router*, std::unique_ptr<igmp::RouterAgent>, topo::NodeIdLess> igmp_;
    std::map<const topo::Host*, std::unique_ptr<igmp::HostAgent>, topo::NodeIdLess> host_agents_;
};

/// PIM sparse mode on every router (the paper's §3 protocol).
class PimSmStack : public StackBase {
public:
    explicit PimSmStack(topo::Network& network, StackConfig config = {});

    [[nodiscard]] pim::PimSmRouter& pim_at(const topo::Router& router) {
        return *pim_.at(&router);
    }
    /// Configures the group's RP list on every router (static config, §3.1).
    void set_rp(net::GroupAddress group, std::vector<net::Ipv4Address> rps);
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

    void wire_faults(fault::FaultInjector& injector) override;
    [[nodiscard]] const mcast::ForwardingCache* cache_of(const topo::Router& router) override;

private:
    std::map<const topo::Router*, std::unique_ptr<pim::PimSmRouter>, topo::NodeIdLess> pim_;
    std::map<const topo::Router*, std::unique_ptr<pim::BootstrapAgent>, topo::NodeIdLess> bootstrap_;
};

/// PIM dense mode everywhere (the companion protocol [13]).
class PimDmStack : public StackBase {
public:
    explicit PimDmStack(topo::Network& network, StackConfig config = {});
    [[nodiscard]] pim::PimDmRouter& pim_at(const topo::Router& router) {
        return *pim_.at(&router);
    }
    [[nodiscard]] const mcast::ForwardingCache* cache_of(const topo::Router& router) override;

private:
    std::map<const topo::Router*, std::unique_ptr<pim::PimDmRouter>, topo::NodeIdLess> pim_;
};

/// DVMRP everywhere (dense-mode baseline).
class DvmrpStack : public StackBase {
public:
    explicit DvmrpStack(topo::Network& network, StackConfig config = {});
    [[nodiscard]] dvmrp::DvmrpRouter& dvmrp_at(const topo::Router& router) {
        return *dvmrp_.at(&router);
    }
    [[nodiscard]] const mcast::ForwardingCache* cache_of(const topo::Router& router) override;

private:
    std::map<const topo::Router*, std::unique_ptr<dvmrp::DvmrpRouter>, topo::NodeIdLess> dvmrp_;
};

/// CBT everywhere (shared-tree baseline).
class CbtStack : public StackBase {
public:
    explicit CbtStack(topo::Network& network, StackConfig config = {});
    [[nodiscard]] cbt::CbtRouter& cbt_at(const topo::Router& router) {
        return *cbt_.at(&router);
    }
    /// Configures the group's core on every router.
    void set_core(net::GroupAddress group, net::Ipv4Address core);
    [[nodiscard]] telemetry::MribSnapshot capture_mrib() override;

protected:
    [[nodiscard]] std::uint64_t mrib_hash(const topo::Router& router) override;

private:
    std::map<const topo::Router*, std::unique_ptr<cbt::CbtRouter>, topo::NodeIdLess> cbt_;
};

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

/// MOSPF everywhere (link-state baseline).
class MospfStack : public StackBase {
public:
    explicit MospfStack(topo::Network& network, StackConfig config = {});
    [[nodiscard]] mospf::MospfRouter& mospf_at(const topo::Router& router) {
        return *mospf_.at(&router);
    }
    [[nodiscard]] const mcast::ForwardingCache* cache_of(const topo::Router& router) override;

private:
    std::map<const topo::Router*, std::unique_ptr<mospf::MospfRouter>, topo::NodeIdLess> mospf_;
};

} // namespace pimlib::scenario
