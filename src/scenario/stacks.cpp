#include "scenario/stacks.hpp"

#include <stdexcept>

namespace pimlib::scenario {

namespace {
sim::Time scale_time(sim::Time t, double factor) {
    return static_cast<sim::Time>(static_cast<double>(t) * factor);
}

template <typename S>
std::unique_ptr<StackBase> construct(topo::Network& network, const StackConfig& config) {
    return std::make_unique<S>(network, config);
}
} // namespace

StackConfig StackConfig::scaled(double factor) const {
    StackConfig out = *this;
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
    // Routers are numbered in id order, so the last id bounds them all.
    if (!network.routers().empty()) {
        caches_.resize(static_cast<std::size_t>(network.routers().back()->id()) + 1);
        reboots_.resize(caches_.size());
    }
    for (const auto& router : network.routers()) {
        igmp::RouterAgent& agent =
            *(igmp_[router.get()] = std::make_unique<igmp::RouterAgent>(*router, config_.igmp));
        record_reboot(*router, [&agent] { agent.reboot(); });
    }
    for (const auto& host : network.hosts()) {
        host_agents_.emplace(host.get(),
                             std::make_unique<igmp::HostAgent>(*host, config_.host));
    }
}

void StackBase::wire_faults(fault::FaultInjector& injector) {
    for (const auto& router : network_->routers()) {
        injector.on_crash(*router, [this, id = router->id()] {
            for (const auto& reboot : reboots_[static_cast<std::size_t>(id)]) reboot();
        });
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

std::uint64_t StackBase::state_key() {
    std::uint64_t key = 0;
    for (const auto& router : network_->routers()) {
        const mcast::ForwardingCache* cache = cache_of(*router);
        key += mcast::state_mix(
            mcast::state_mix(static_cast<std::uint64_t>(router->id()) + 1) ^
            (cache == nullptr ? 0 : cache->structural_hash()));
    }
    return key;
}

PimSmStack::PimSmStack(topo::Network& network, StackConfig config)
    : StackBase(network, config) {
    build(pim_, config_.pim);
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
        pim::BootstrapAgent& agent = *(bootstrap_[router] = std::make_unique<pim::BootstrapAgent>(
                                           *pim, config_.bootstrap));
        record_reboot(*router, [&agent] { agent.reboot(); });
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

PimDmStack::PimDmStack(topo::Network& network, StackConfig config)
    : StackBase(network, config) {
    build(pim_, config_.pim_dm);
}

DvmrpStack::DvmrpStack(topo::Network& network, StackConfig config)
    : StackBase(network, config) {
    build(dvmrp_, config_.dvmrp);
}

CbtStack::CbtStack(topo::Network& network, StackConfig config)
    : StackBase(network, config) {
    build(cbt_, config_.cbt);
}

void CbtStack::set_rp(net::GroupAddress group, std::vector<net::Ipv4Address> rps) {
    if (rps.empty()) return;
    for (auto& [router, cbt] : cbt_) cbt->set_core(group, rps.front());
}

MospfStack::MospfStack(topo::Network& network, StackConfig config)
    : StackBase(network, config) {
    build(mospf_, config_.mospf);
}

const std::array<StackProtocol, 5> kStackProtocols{{
    {"pim-sm", construct<PimSmStack>},
    {"pim-dm", construct<PimDmStack>},
    {"dvmrp", construct<DvmrpStack>},
    {"cbt", construct<CbtStack>},
    {"mospf", construct<MospfStack>},
}};

std::unique_ptr<StackBase> make_stack(std::string_view protocol, topo::Network& network,
                                      const StackConfig& config) {
    for (const StackProtocol& p : kStackProtocols) {
        if (p.name == protocol) return p.make(network, config);
    }
    throw std::invalid_argument("unknown protocol '" + std::string(protocol) + "'");
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

} // namespace pimlib::scenario
