#include "igmp/host_agent.hpp"

#include <algorithm>

#include "telemetry/profiler/profiler.hpp"
#include "topo/network.hpp"

namespace pimlib::igmp {

HostAgent::HostAgent(topo::Host& host, HostConfig config)
    : host_(&host),
      config_(config),
      // Report-spread RNG derives from the network's global seed (legacy
      // per-id stream when no seed is set), so `pimsim seed N` reproduces
      // host report timing end-to-end.
      rng_seed_(host.network().derived_seed(
          static_cast<std::uint32_t>(host.id()),
          topo::Network::kHostAgentStreamTag + static_cast<std::uint64_t>(host.id()))) {
    host_->set_control_handler([this](int ifindex, const net::Packet& packet) {
        on_control(ifindex, packet);
    });
}

void HostAgent::join(net::GroupAddress group) {
    // The join-to-data span: opened when interest is expressed, closed by
    // the data plane when the first packet for the group reaches this host.
    telemetry::Hub& hub = host_->network().telemetry();
    const std::uint64_t span = hub.span_begin(telemetry::SpanKind::kJoinToData,
                                              {.node = host_->id(), .group = group});
    hub.emit({.type = telemetry::EventType::kIgmpReport, .protocol = telemetry::Protocol::kIgmp,
              .node = host_->id(), .group = group, .span = span});
    host_->join_group(group);
    if (rp_maps_.contains(group)) send_rp_map(group);
    for (int i = 0; i < config_.unsolicited_report_count; ++i) {
        host_->simulator().schedule(i * config_.unsolicited_report_interval,
                                    [this, group] {
                                        if (host_->is_member(group)) {
                                            send_report(ensure_slot(group));
                                        }
                                    });
    }
}

void HostAgent::leave(net::GroupAddress group) {
    host_->network().telemetry().span_abort(telemetry::SpanKind::kJoinToData,
                                            {.node = host_->id(), .group = group});
    host_->leave_group(group);
    const std::size_t slot = find_slot(group);
    if (slot_holds(slot, group)) {
        host_->simulator().cancel(pending_[slot].event);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(slot));
    }
}

std::size_t HostAgent::find_slot(net::GroupAddress group, std::size_t from) const {
    // Callers walking groups in ascending order pass the slot after the
    // last one they touched, which is usually the one sought.
    if (from < pending_.size() && !(pending_[from] < group)) return from;
    return static_cast<std::size_t>(
        std::lower_bound(pending_.begin() + static_cast<std::ptrdiff_t>(from),
                         pending_.end(), group) -
        pending_.begin());
}

std::size_t HostAgent::ensure_slot(net::GroupAddress group, std::size_t from) {
    const std::size_t slot = find_slot(group, from);
    if (!slot_holds(slot, group)) {
        pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(slot),
                        PendingResponse{group, {}, Report{group.address()}.encode()});
    }
    return slot;
}

void HostAgent::set_rp_mapping(net::GroupAddress group,
                               std::vector<net::Ipv4Address> rps) {
    rp_maps_[group] = std::move(rps);
    send_rp_map(group);
}

void HostAgent::send_report(std::size_t slot) {
    const net::GroupAddress group = pending_[slot].group;
    // RFC 1112: reports go to the group itself.
    host_->send_control(0, group.address(), net::IpProto::kIgmp, "igmp",
                        pending_[slot].report);
    if (rp_maps_.contains(group)) send_rp_map(group);
}

void HostAgent::send_rp_map(net::GroupAddress group) {
    auto it = rp_maps_.find(group);
    if (it == rp_maps_.end()) return;
    host_->send_control(0, net::kAllRouters, net::IpProto::kIgmp, "igmp",
                        RpMapReport{group.address(), it->second}.encode());
}

std::size_t HostAgent::schedule_response(net::GroupAddress group, std::size_t from) {
    const std::size_t slot = ensure_slot(group, from);
    if (pending_[slot].event.valid()) return slot;
    std::uniform_int_distribution<sim::Time> spread(0, config_.query_response_max);
    if (!rng_) rng_ = std::make_unique<std::mt19937>(rng_seed_);
    const sim::Time delay = spread(*rng_);
    // `hint` is where the slot sits now; a join or leave may move it before
    // the event fires. The slot itself outlives the event: only leave()
    // erases it, after cancelling.
    pending_[slot].event = host_->simulator().schedule(
        delay, [this, group, hint = static_cast<std::uint32_t>(slot)] {
            PROF_ZONE("igmp.host");
            std::size_t at = hint;
            if (!slot_holds(at, group)) at = find_slot(group);
            pending_[at].event = sim::EventId{};
            if (host_->is_member(group)) send_report(at);
        });
    return slot;
}

void HostAgent::on_control(int ifindex, const net::Packet& packet) {
    PROF_ZONE("igmp.host");
    (void)ifindex;
    if (packet.proto != net::IpProto::kIgmp || packet.payload.empty()) return;
    switch (packet.payload.front()) {
    case kTypeQuery: {
        auto query = Query::decode(packet.payload);
        if (!query) return;
        if (query->group.is_unspecified()) {
            // Joined groups and slots are both ascending: walk them together.
            std::size_t slot = 0;
            for (net::GroupAddress group : host_->joined_groups()) {
                slot = schedule_response(group, slot) + 1;
            }
        } else if (query->group.is_multicast()) {
            const net::GroupAddress group{query->group};
            if (host_->is_member(group)) schedule_response(group);
        }
        break;
    }
    case kTypeReport: {
        // Another member on the LAN answered: suppress our pending report.
        auto report = Report::decode(packet.payload);
        if (!report || !report->group.is_multicast()) return;
        const net::GroupAddress group{report->group};
        const std::size_t slot = find_slot(group);
        if (slot_holds(slot, group) && pending_[slot].event.valid()) {
            host_->simulator().cancel(pending_[slot].event);
            pending_[slot].event = sim::EventId{};
        }
        break;
    }
    default:
        break;
    }
}

} // namespace pimlib::igmp
