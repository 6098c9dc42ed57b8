#include "scenario/stacks.hpp"

#include <algorithm>

namespace pimlib::scenario {

namespace {
sim::Time scale_time(sim::Time t, double factor) {
    return static_cast<sim::Time>(static_cast<double>(t) * factor);
}

/// Calls fn(ifindex, child) for each interface a CBT tree forwards on, in
/// ascending order per kind: interfaces toward child routers (child =
/// true), then member LANs that carry no child.
template <typename Fn>
void for_each_tree_oif(const cbt::CbtRouter::TreeState& state, Fn&& fn) {
    const auto has_children = [&state](int ifindex) {
        const auto it = state.children.find(ifindex);
        return it != state.children.end() && !it->second.empty();
    };
    for (const auto& [ifindex, children] : state.children) {
        if (!children.empty()) fn(ifindex, true);
    }
    for (const int ifindex : state.member_ifaces) {
        if (!has_children(ifindex)) fn(ifindex, false);
    }
}
} // namespace

StackConfig StackConfig::scaled(double factor) const {
    StackConfig out = *this;
    out.time_scale = time_scale * factor;
    out.pim = pim.scaled(factor);
    out.bootstrap = bootstrap.scaled(factor);
    out.pim_dm = pim_dm.scaled(factor);
    out.dvmrp = dvmrp.scaled(factor);
    out.cbt = cbt.scaled(factor);
    out.mospf = mospf.scaled(factor);
    out.igmp.query_interval = scale_time(igmp.query_interval, factor);
    out.igmp.membership_timeout = scale_time(igmp.membership_timeout, factor);
    out.igmp.other_querier_timeout = scale_time(igmp.other_querier_timeout, factor);
    out.host.unsolicited_report_interval =
        scale_time(host.unsolicited_report_interval, factor);
    out.host.query_response_max = scale_time(host.query_response_max, factor);
    return out;
}

StackBase::StackBase(topo::Network& network, const StackConfig& config)
    : network_(&network), config_(config) {
    for (const auto& router : network.routers()) {
        igmp_.emplace(router.get(),
                      std::make_unique<igmp::RouterAgent>(*router, config_.igmp));
    }
    for (const auto& host : network.hosts()) {
        host_agents_.emplace(host.get(),
                             std::make_unique<igmp::HostAgent>(*host, config_.host));
    }
}

void StackBase::wire_faults(fault::FaultInjector& injector) {
    for (auto& [router, agent] : igmp_) {
        igmp::RouterAgent* raw = agent.get();
        injector.on_crash(*router, [raw] { raw->reboot(); });
    }
}

telemetry::MribSnapshot StackBase::capture_mrib() {
    telemetry::MribSnapshot out;
    out.at = network_->simulator().now();
    for (const auto& router : network_->routers()) {
        if (const mcast::ForwardingCache* cache = cache_of(*router)) {
            out.routers.push_back(cache->snapshot(router->name(), out.at));
        }
    }
    return out;
}

const mcast::ForwardingCache* StackBase::cache_of(const topo::Router& /*router*/) {
    return nullptr;
}

std::uint64_t StackBase::state_key() {
    std::uint64_t key = 0;
    for (const auto& router : network_->routers()) {
        key += mcast::state_mix(
            mcast::state_mix(static_cast<std::uint64_t>(router->id()) + 1) ^
            mrib_hash(*router));
    }
    return key;
}

std::uint64_t StackBase::mrib_hash(const topo::Router& router) {
    const mcast::ForwardingCache* cache = cache_of(router);
    return cache == nullptr ? 0 : cache->structural_hash();
}

const mcast::ForwardingCache* PimSmStack::cache_of(const topo::Router& router) {
    return &pim_.at(&router)->cache();
}

const mcast::ForwardingCache* PimDmStack::cache_of(const topo::Router& router) {
    return &pim_.at(&router)->cache();
}

const mcast::ForwardingCache* DvmrpStack::cache_of(const topo::Router& router) {
    return &dvmrp_.at(&router)->cache();
}

const mcast::ForwardingCache* MospfStack::cache_of(const topo::Router& router) {
    return &mospf_.at(&router)->cache();
}

PimSmStack::PimSmStack(topo::Network& network, StackConfig config)
    : StackBase(network, config) {
    for (const auto& router : network.routers()) {
        pim_.emplace(router.get(), std::make_unique<pim::PimSmRouter>(
                                       *router, igmp_at(*router), config_.pim));
    }
}

void PimSmStack::set_rp(net::GroupAddress group, std::vector<net::Ipv4Address> rps) {
    for (auto& [router, pim] : pim_) pim->rp_set().configure(group, rps);
}

void PimSmStack::set_spt_policy(pim::SptPolicy policy) {
    for (auto& [router, pim] : pim_) pim->set_spt_policy(policy);
}

void PimSmStack::enable_bootstrap() {
    if (!bootstrap_.empty()) return;
    for (auto& [router, pim] : pim_) {
        bootstrap_.emplace(router, std::make_unique<pim::BootstrapAgent>(
                                       *pim, config_.bootstrap));
    }
}

void PimSmStack::set_candidate_bsr(const topo::Router& router, std::uint8_t priority) {
    enable_bootstrap();
    bootstrap_.at(&router)->set_candidate_bsr(priority);
}

void PimSmStack::set_candidate_rp(const topo::Router& router, net::Prefix range,
                                  std::uint8_t priority) {
    enable_bootstrap();
    bootstrap_.at(&router)->add_candidate_rp(range, priority);
}

void PimSmStack::wire_faults(fault::FaultInjector& injector) {
    StackBase::wire_faults(injector);
    for (auto& [router, pim] : pim_) {
        pim::PimSmRouter* raw = pim.get();
        injector.on_crash(*router, [raw] { raw->reboot(); });
        // A crash also drops the bootstrap soft state — but only if the
        // agent exists by the time the fault fires, hence the lookup inside.
        injector.on_crash(*router, [this, r = router] {
            auto it = bootstrap_.find(r);
            if (it != bootstrap_.end()) it->second->reboot();
        });
    }
}

PimDmStack::PimDmStack(topo::Network& network, StackConfig config)
    : StackBase(network, config) {
    for (const auto& router : network.routers()) {
        pim_.emplace(router.get(), std::make_unique<pim::PimDmRouter>(
                                       *router, igmp_at(*router), config_.pim_dm));
    }
}

DvmrpStack::DvmrpStack(topo::Network& network, StackConfig config)
    : StackBase(network, config) {
    for (const auto& router : network.routers()) {
        dvmrp_.emplace(router.get(), std::make_unique<dvmrp::DvmrpRouter>(
                                         *router, igmp_at(*router), config_.dvmrp));
    }
}

CbtStack::CbtStack(topo::Network& network, StackConfig config)
    : StackBase(network, config) {
    for (const auto& router : network.routers()) {
        cbt_.emplace(router.get(), std::make_unique<cbt::CbtRouter>(
                                       *router, igmp_at(*router), config_.cbt));
    }
}

void CbtStack::set_core(net::GroupAddress group, net::Ipv4Address core) {
    for (auto& [router, cbt] : cbt_) cbt->set_core(group, core);
}

telemetry::MribSnapshot CbtStack::capture_mrib() {
    // CBT keeps per-group parent/children tree state rather than a
    // ForwardingCache; synthesize the same snapshot shape: one shared-tree
    // entry per group, core in the source slot, children + member LANs as
    // oifs (pinned = local members, soft = child routers).
    telemetry::MribSnapshot out = StackBase::capture_mrib();
    for (const auto& router : network_->routers()) {
        const cbt::CbtRouter& agent = *cbt_.at(router.get());
        telemetry::RouterMrib mrib;
        mrib.router = router->name();
        for (const auto& [group, state] : agent.trees()) {
            telemetry::EntrySnapshot e;
            e.source_or_rp = state.core.to_string();
            e.group = group.to_string();
            e.wildcard = true;
            e.iif = state.parent_ifindex;
            sim::Time soonest_child = 0;
            for (const auto& [addr, expiry] : state.child_expiry) {
                if (soonest_child == 0 || expiry < soonest_child) soonest_child = expiry;
            }
            for_each_tree_oif(state, [&](int ifindex, bool child) {
                telemetry::OifSnapshot oif;
                oif.ifindex = ifindex;
                oif.pinned = !child;
                if (child && soonest_child != 0) {
                    oif.remaining = std::max<sim::Time>(0, soonest_child - out.at);
                }
                e.oifs.push_back(oif);
            });
            mrib.entries.push_back(std::move(e));
        }
        out.routers.push_back(std::move(mrib));
    }
    return out;
}

std::uint64_t CbtStack::mrib_hash(const topo::Router& router) {
    // The fields capture_mrib() synthesizes above: one shared-tree entry
    // per group, core in the source slot, parent iif and the tree's oifs.
    std::uint64_t sum = 0;
    for (const auto& [group, state] : cbt_.at(&router)->trees()) {
        mcast::IfindexSet oifs;
        for_each_tree_oif(state, [&oifs](int ifindex, bool) { oifs.add(ifindex); });
        sum += mcast::entry_state_hash(state.core, group, {.wildcard = true},
                                       state.parent_ifindex, std::nullopt, oifs, {});
    }
    return sum;
}

void DenseDomainBridge::watch(igmp::RouterAgent& agent) {
    const igmp::RouterAgent* key = &agent;
    agent.subscribe([this, key](int ifindex, net::GroupAddress group, bool present) {
        on_membership(key, ifindex, group, present);
    });
}

void DenseDomainBridge::on_membership(const igmp::RouterAgent* agent, int ifindex,
                                      net::GroupAddress group, bool present) {
    auto& who = reporters_[group];
    const bool had_members = !who.empty();
    if (present) {
        who.insert({agent, ifindex});
    } else {
        who.erase({agent, ifindex});
    }
    const bool has_members = !who.empty();
    if (has_members != had_members) {
        border_->set_dense_membership(dense_ifindex_, group, has_members);
    }
}

MospfStack::MospfStack(topo::Network& network, StackConfig config)
    : StackBase(network, config) {
    for (const auto& router : network.routers()) {
        mospf_.emplace(router.get(), std::make_unique<mospf::MospfRouter>(
                                         *router, igmp_at(*router), config_.mospf));
    }
}

} // namespace pimlib::scenario
