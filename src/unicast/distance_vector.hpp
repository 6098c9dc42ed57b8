// Distance-vector unicast routing, in the style of RIP: periodic full-table
// updates with split horizon and poisoned reverse, triggered updates on
// change, soft-state route timeout and garbage collection. One DvAgent runs
// per router; DvRoutingDomain wires a whole network.
//
// This is one of the interchangeable unicast providers demonstrating the
// paper's "protocol independence" requirement: PIM consumes only the RIB
// these agents maintain.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "sim/simulator.hpp"
#include "topo/network.hpp"
#include "unicast/rib.hpp"

namespace pimlib::unicast {

struct DvConfig {
    sim::Time update_interval = 5 * sim::kSecond;
    sim::Time route_timeout = 15 * sim::kSecond;   // 3 × update: invalidate
    sim::Time gc_delay = 10 * sim::kSecond;        // hold poisoned before delete
    sim::Time triggered_delay = 50 * sim::kMillisecond; // damping
    int infinity = 64;
};

/// One DV route advertisement: (prefix, metric) pairs.
struct DvUpdate {
    struct Entry {
        net::Prefix prefix;
        int metric;
        friend bool operator==(const Entry&, const Entry&) = default;
    };
    std::vector<Entry> entries;

    [[nodiscard]] std::vector<std::uint8_t> encode() const;
    static std::optional<DvUpdate> decode(std::span<const std::uint8_t> bytes);
};

class DvAgent {
public:
    DvAgent(topo::Router& router, DvConfig config = {});

    [[nodiscard]] Rib& rib() { return rib_; }
    [[nodiscard]] const Rib& rib() const { return rib_; }
    [[nodiscard]] topo::Router& router() { return *router_; }

    /// Re-scans connected interfaces (call after an interface flaps up).
    void refresh_connected();

private:
    struct TableEntry {
        Route route;
        net::Ipv4Address learned_from; // advertising neighbor; unspecified = connected
        sim::Time expires = 0;         // 0 = never (connected)
        bool deleting = false;         // poisoned, awaiting gc
        sim::Time gc_at = 0;
    };

    void on_message(int ifindex, const net::Packet& packet);
    void on_periodic();
    void send_updates();
    void schedule_triggered();
    void scan_timeouts();
    void install(const net::Prefix& prefix, const TableEntry& entry);
    void start_deleting(TableEntry& entry);

    topo::Router* router_;
    DvConfig config_;
    Rib rib_;
    std::map<net::Prefix, TableEntry> table_;
    sim::PeriodicTimer periodic_;
    sim::OneshotTimer triggered_;
    bool triggered_pending_ = false;
};

/// Creates and owns a DvAgent for every router in the network.
class DvRoutingDomain {
public:
    explicit DvRoutingDomain(topo::Network& network, DvConfig config = {});

private:
    std::map<const topo::Router*, std::unique_ptr<DvAgent>, topo::NodeIdLess> agents_;
};

} // namespace pimlib::unicast
