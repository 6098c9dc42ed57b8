// IGMP router-side agent: periodic general queries with querier election
// (lowest interface address on a segment queries), a per-interface group
// membership database with soft-state expiry, and callbacks so multicast
// routing protocols can react to members appearing and disappearing.
#pragma once

#include <functional>
#include <vector>

#include "igmp/messages.hpp"
#include "net/payload.hpp"
#include "sim/simulator.hpp"
#include "topo/router.hpp"

namespace pimlib::igmp {

struct RouterConfig {
    sim::Time query_interval = 10 * sim::kSecond;
    sim::Time membership_timeout = 25 * sim::kSecond; // 2.5 × query interval
    sim::Time other_querier_timeout = 25 * sim::kSecond;
};

class RouterAgent {
public:
    explicit RouterAgent(topo::Router& router, RouterConfig config = {});

    RouterAgent(const RouterAgent&) = delete;
    RouterAgent& operator=(const RouterAgent&) = delete;

    /// Fired when the first member of `group` appears on `ifindex`
    /// (member_present=true) or the last one ages out (false).
    using MembershipCallback =
        std::function<void(int ifindex, net::GroupAddress group, bool member_present)>;
    void subscribe(MembershipCallback callback) {
        callbacks_.push_back(std::move(callback));
    }

    /// Fired when a host announces a group→RP mapping (paper §3.1).
    using RpMapCallback =
        std::function<void(net::GroupAddress group, const std::vector<net::Ipv4Address>& rps)>;
    void set_rp_map_callback(RpMapCallback callback) { rp_map_cb_ = std::move(callback); }

    [[nodiscard]] bool has_members(int ifindex, net::GroupAddress group) const;
    /// Groups with members on `ifindex`, ascending.
    [[nodiscard]] std::vector<net::GroupAddress> groups_on(int ifindex) const;
    /// All interfaces with at least one member of `group`, ascending.
    [[nodiscard]] std::vector<int> member_interfaces(net::GroupAddress group) const;

    [[nodiscard]] topo::Router& router() { return *router_; }
    [[nodiscard]] const topo::Router& router() const { return *router_; }
    [[nodiscard]] const RouterConfig& config() const { return config_; }

    /// Simulates a crash+restart: forgets the membership database and
    /// querier-election state, then queries immediately so hosts re-report.
    /// No member_present=false callbacks fire — the crashed state is simply
    /// gone, as after a real reboot.
    void reboot();

private:
    void on_message(int ifindex, const net::Packet& packet);
    void on_tick();
    void send_query(int ifindex);
    void note_member(int ifindex, net::GroupAddress group);

    struct Member {
        net::GroupAddress group;
        sim::Time expires;
        friend bool operator<(const Member& m, net::GroupAddress g) { return m.group < g; }
    };
    struct Interface {
        std::vector<Member> members; // sorted by group
        // Suppress querying while a lower-addressed querier lives here.
        sim::Time other_querier_until = 0;
    };
    Interface& interface_state(int ifindex); // grows the table to reach it
    [[nodiscard]] const Interface* interface_at(int ifindex) const;
    [[nodiscard]] const Member* find_member(int ifindex, net::GroupAddress group) const;

    topo::Router* router_;
    RouterConfig config_;
    std::vector<Interface> interfaces_; // indexed by ifindex, grown on use
    std::vector<MembershipCallback> callbacks_;
    RpMapCallback rp_map_cb_;
    /// The general Query, encoded on the first send: every query this agent
    /// sends shares its bytes.
    net::Payload query_;
    sim::PeriodicTimer tick_;
};

} // namespace pimlib::igmp
