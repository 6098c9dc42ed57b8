// IGMP host-side agent: answers queries with reports (after a random spread
// delay, suppressed if another member answers first, per RFC 1112), sends
// unsolicited reports on join, and can announce group→RP mappings to the
// local routers (the paper's proposed host message, §3.1).
#pragma once

#include <map>
#include <memory>
#include <random>
#include <vector>

#include "igmp/messages.hpp"
#include "net/payload.hpp"
#include "sim/simulator.hpp"
#include "topo/host.hpp"

namespace pimlib::igmp {

struct HostConfig {
    sim::Time unsolicited_report_interval = 100 * sim::kMillisecond;
    int unsolicited_report_count = 2; // robustness against loss
    sim::Time query_response_max = 1 * sim::kSecond;
};

class HostAgent {
public:
    explicit HostAgent(topo::Host& host, HostConfig config = {});

    HostAgent(const HostAgent&) = delete;
    HostAgent& operator=(const HostAgent&) = delete;

    /// Joins `group`: updates the host's data-plane filter and sends
    /// unsolicited membership reports.
    void join(net::GroupAddress group);

    /// Leaves: stop answering queries; routers age the membership out
    /// (IGMPv1 has no leave message).
    void leave(net::GroupAddress group);

    /// Associates an RP list with a group; announced to local routers right
    /// away and together with future reports for the group.
    void set_rp_mapping(net::GroupAddress group, std::vector<net::Ipv4Address> rps);

    [[nodiscard]] topo::Host& host() { return *host_; }

private:
    void on_control(int ifindex, const net::Packet& packet);
    /// Sends the report held in `slot`, then the group's RP map if any.
    void send_report(std::size_t slot);
    void send_rp_map(net::GroupAddress group);
    /// Schedules `group`'s response unless one is pending; returns its slot.
    std::size_t schedule_response(net::GroupAddress group, std::size_t from = 0);

    // One slot per group that has been reported or queried since it was
    // joined: `report` is the group's Report, encoded once when the slot is
    // made and sent as a shared copy every time; `event` is the scheduled
    // response, invalid when none is pending. A fired or cancelled response
    // clears it in place, and only leave() removes the slot, so repeated
    // query rounds reuse the table and the payload.
    struct PendingResponse {
        net::GroupAddress group;
        sim::EventId event;
        net::Payload report;
        friend bool operator<(const PendingResponse& p, net::GroupAddress g) {
            return p.group < g;
        }
    };
    /// Index of `group`'s slot, or where it would go. Slots before `from`
    /// must all hold smaller groups.
    [[nodiscard]] std::size_t find_slot(net::GroupAddress group, std::size_t from = 0) const;
    /// Index of `group`'s slot, made (with its encoded report) if missing.
    std::size_t ensure_slot(net::GroupAddress group, std::size_t from = 0);
    [[nodiscard]] bool slot_holds(std::size_t slot, net::GroupAddress group) const {
        return slot < pending_.size() && pending_[slot].group == group;
    }

    topo::Host* host_;
    HostConfig config_;
    // The report-spread engine (5 kB of state) is built from rng_seed_ on
    // the first draw: most hosts of a short run never answer a query.
    std::uint32_t rng_seed_;
    std::unique_ptr<std::mt19937> rng_;
    std::vector<PendingResponse> pending_; // sorted by group
    std::map<net::GroupAddress, std::vector<net::Ipv4Address>> rp_maps_;
};

} // namespace pimlib::igmp
