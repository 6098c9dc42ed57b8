// A simulated end host: joins groups (via an attached IGMP host agent),
// sends multicast data, and records what it receives so tests can assert
// delivery, loss and duplication.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "topo/node.hpp"

namespace pimlib::topo {

class Host : public Node {
public:
    Host(Network& network, std::string name, int id);

    void receive(int ifindex, const net::Packet& packet) override;

    /// Group membership (data-plane view: which packets we accept).
    /// The IGMP host agent additionally reports membership to routers.
    void join_group(net::GroupAddress group) {
        auto it = std::lower_bound(joined_.begin(), joined_.end(), group);
        if (it == joined_.end() || *it != group) joined_.insert(it, group);
    }
    void leave_group(net::GroupAddress group) {
        auto it = std::lower_bound(joined_.begin(), joined_.end(), group);
        if (it != joined_.end() && *it == group) joined_.erase(it);
    }
    [[nodiscard]] bool is_member(net::GroupAddress group) const {
        return std::binary_search(joined_.begin(), joined_.end(), group);
    }
    /// Joined groups, ascending.
    [[nodiscard]] const std::vector<net::GroupAddress>& joined_groups() const { return joined_; }

    /// Sends one data packet to `group` out of interface 0. Sequence numbers
    /// increase per (host, group) so receivers can detect loss/duplication.
    void send_data(net::GroupAddress group, std::size_t payload_size = 64);

    /// Sends `count` packets spaced `interval` apart, starting after `start`.
    void send_stream(net::GroupAddress group, int count, sim::Time interval,
                     sim::Time start = 0);

    struct ReceivedRecord {
        net::Ipv4Address source;
        net::GroupAddress group;
        std::uint64_t seq;
        sim::Time at;
    };
    [[nodiscard]] const std::vector<ReceivedRecord>& received() const { return received_; }
    [[nodiscard]] std::size_t received_count(net::GroupAddress group) const;
    [[nodiscard]] std::size_t received_count_from(net::Ipv4Address source,
                                                  net::GroupAddress group) const;
    /// Number of (source, seq) duplicates among received data packets.
    [[nodiscard]] std::size_t duplicate_count() const;
    void clear_received() { received_.clear(); }

    /// Handler for non-data packets (the IGMP host agent registers here).
    using PacketHandler = std::function<void(int ifindex, const net::Packet&)>;
    void set_control_handler(PacketHandler handler) { control_handler_ = std::move(handler); }

    /// Observer for accepted data packets, fired after the record is stored.
    /// One slot; workload::HostBank registers here to close join-to-data
    /// measurements without scanning received().
    using DataObserver = std::function<void(const ReceivedRecord&)>;
    void set_data_observer(DataObserver observer) { data_observer_ = std::move(observer); }

    [[nodiscard]] net::Ipv4Address address() const { return interface(0).address; }

private:
    std::vector<net::GroupAddress> joined_; // sorted
    std::map<std::uint32_t, std::uint64_t> next_seq_; // per group
    std::vector<ReceivedRecord> received_;
    PacketHandler control_handler_;
    DataObserver data_observer_;
};

} // namespace pimlib::topo
