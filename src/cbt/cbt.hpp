// Core Based Trees baseline (Ballardie, Francis, Crowcroft — SIGCOMM '93,
// the paper's reference [10]): a single bidirectional shared tree per group
// rooted at a configured core router.
//
// Protocol engineering contrasts the paper calls out (§1.3 footnote 4) are
// reproduced: CBT uses explicit hop-by-hop reliability — JOIN_REQUEST is
// acknowledged by JOIN_ACK, tree liveness is maintained with ECHO
// request/reply keepalives, and broken trees are torn down with FLUSH and
// rebuilt — instead of PIM's periodic soft-state refreshes.
//
// Non-member senders' packets are encapsulated hop-by-hop to the core
// (counted as data traffic), which injects them into the tree. Data moves
// through the shared mcast::DataPlane like every other protocol's: an
// on-tree group is one bidirectional (*,G) entry (the core in the source
// slot, the parent interface as iif, child and member interfaces as pinned
// oifs), which forwards a packet heard on any tree interface out of all
// the others.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "igmp/router_agent.hpp"
#include "mcast/forwarding_cache.hpp"
#include "net/buffer.hpp"
#include "net/payload.hpp"
#include "sim/simulator.hpp"
#include "topo/router.hpp"

namespace pimlib::cbt {

enum class Code : std::uint8_t {
    kJoinRequest = 1,
    kJoinAck = 2,
    kQuit = 3,
    kEchoRequest = 4,
    kEchoReply = 5,
    kFlush = 6,
};

struct JoinRequest {
    net::Ipv4Address group;
    net::Ipv4Address core;
    [[nodiscard]] std::vector<std::uint8_t> encode() const;
    static std::optional<JoinRequest> decode(std::span<const std::uint8_t> bytes);
};

struct JoinAck {
    net::Ipv4Address group;
    net::Ipv4Address core;
    [[nodiscard]] std::vector<std::uint8_t> encode() const;
    static std::optional<JoinAck> decode(std::span<const std::uint8_t> bytes);
};

struct GroupOnly { // QUIT / ECHO_REQUEST / ECHO_REPLY / FLUSH share this shape
    Code code;
    net::Ipv4Address group;
    [[nodiscard]] std::vector<std::uint8_t> encode() const;
    static std::optional<GroupOnly> decode(std::span<const std::uint8_t> bytes);
};

/// Sender-to-core data encapsulation, carried as unicast UDP so links account
/// it as data traffic.
struct DataEncap {
    net::Ipv4Address group;
    net::Ipv4Address inner_src;
    std::uint8_t inner_ttl = 0;
    std::uint64_t inner_seq = 0;
    net::Payload inner_payload; // shares the data packet's block
    [[nodiscard]] std::vector<std::uint8_t> encode() const;
    static std::optional<DataEncap> decode(std::span<const std::uint8_t> bytes);
};

[[nodiscard]] std::optional<Code> peek_code(std::span<const std::uint8_t> bytes);

struct CbtConfig {
    sim::Time echo_interval = 30 * sim::kSecond;
    sim::Time echo_timeout = 90 * sim::kSecond;   // 3 missed echoes -> flush
    sim::Time child_timeout = 90 * sim::kSecond;  // parent side
    sim::Time join_retry = 5 * sim::kSecond;      // pending join re-send

    [[nodiscard]] CbtConfig scaled(double factor) const;
};

class CbtRouter final : public mcast::DataPlane::Delegate {
public:
    CbtRouter(topo::Router& router, igmp::RouterAgent& igmp, CbtConfig config = {});

    CbtRouter(const CbtRouter&) = delete;
    CbtRouter& operator=(const CbtRouter&) = delete;

    /// Configures the core router (by router id) for a group. Must agree
    /// across the domain, like any CBT deployment.
    void set_core(net::GroupAddress group, net::Ipv4Address core);

    [[nodiscard]] topo::Router& router() { return *router_; }

    /// Simulates a crash+restart: every tree and the forwarding cache are
    /// lost, and the tick timer restarts; members rejoin once IGMP reports
    /// them again. The configured cores survive.
    void reboot();

    struct TreeState {
        enum class Status { kPending, kOnTree };
        Status status = Status::kPending;
        net::Ipv4Address core;
        int parent_ifindex = -1;               // -1 at the core
        net::Ipv4Address parent_address;
        std::map<int, std::set<net::Ipv4Address>> children; // ifindex -> child addrs
        std::set<int> member_ifaces;            // local member LANs
        std::map<net::Ipv4Address, sim::Time> child_expiry;
        sim::Time parent_last_echo = 0;
        // Downstream joins awaiting our own JOIN_ACK.
        std::vector<std::pair<int, net::Ipv4Address>> pending_children;
    };
    [[nodiscard]] const TreeState* tree_state(net::GroupAddress group) const;
    [[nodiscard]] bool on_tree(net::GroupAddress group) const;
    /// The forwarding entries data follows: one bidirectional (*,G) per
    /// on-tree group, rebuilt from its TreeState after every change.
    [[nodiscard]] mcast::ForwardingCache& cache() { return cache_; }

    // --- mcast::DataPlane::Delegate ---
    /// Data off the tree: a DR for a directly connected sender encapsulates
    /// it toward the core.
    void on_no_entry(int ifindex, const net::Packet& packet) override;

private:
    void on_control(int ifindex, const net::Packet& packet);
    void on_data_encap(const net::Packet& packet);
    void on_membership(int ifindex, net::GroupAddress group, bool present);
    void on_tick();

    void start_join(net::GroupAddress group);
    void send_join_request(net::GroupAddress group, TreeState& state);
    void ack_pending_children(net::GroupAddress group, TreeState& state);
    /// Rebuilds the group's forwarding entry from its TreeState: present
    /// exactly while the tree is kOnTree. Runs after every change.
    void sync_entry(net::GroupAddress group);
    void flush_subtree(net::GroupAddress group, TreeState& state);
    void maybe_quit(net::GroupAddress group);
    [[nodiscard]] std::optional<net::Ipv4Address> core_of(net::GroupAddress group) const;
    [[nodiscard]] bool is_core(net::GroupAddress group) const;

    topo::Router* router_;
    igmp::RouterAgent* igmp_;
    CbtConfig config_;
    std::map<net::GroupAddress, net::Ipv4Address> cores_;
    std::map<net::GroupAddress, TreeState> trees_;
    mcast::ForwardingCache cache_;
    mcast::DataPlane data_plane_;
    sim::PeriodicTimer tick_timer_;
};

} // namespace pimlib::cbt
