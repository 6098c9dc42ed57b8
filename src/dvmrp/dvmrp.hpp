// DVMRP baseline (RFC 1075 flavor): truncated reverse-path broadcasting with
// prunes, prune-lifetime regrowth, and grafts. This is the protocol whose
// "occasional broadcasting behavior severely limits its capability to scale"
// (§1.1) — the bench fig1_overhead quantifies exactly that against PIM.
//
// Substitution note (DESIGN.md): real DVMRP runs its own RIP-like unicast
// routing exchange; here it performs RPF against the router's RIB, which in
// scenarios is filled by our distance-vector provider — the same information
// a native DVMRP exchange would compute.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mcast/flood_prune.hpp"

namespace pimlib::dvmrp {

/// DVMRP message subcodes (carried as IGMP type 0x13).
enum class Code : std::uint8_t {
    kProbe = 1, // neighbor discovery
    kPrune = 2,
    kGraft = 3,
};

struct Probe {
    std::uint32_t holdtime_ms = 0;
    [[nodiscard]] std::vector<std::uint8_t> encode() const;
    static std::optional<Probe> decode(std::span<const std::uint8_t> bytes);
};

struct PruneMsg {
    net::Ipv4Address source;
    net::Ipv4Address group;
    std::uint32_t lifetime_ms = 0;
    [[nodiscard]] std::vector<std::uint8_t> encode() const;
    static std::optional<PruneMsg> decode(std::span<const std::uint8_t> bytes);
};

struct GraftMsg {
    net::Ipv4Address source;
    net::Ipv4Address group;
    [[nodiscard]] std::vector<std::uint8_t> encode() const;
    static std::optional<GraftMsg> decode(std::span<const std::uint8_t> bytes);
};

[[nodiscard]] std::optional<Code> peek_code(std::span<const std::uint8_t> bytes);

/// DVMRP's timers: a Probe every 10 s, neighbors held 35 s, prunes and
/// idle entries kept 120 s.
inline constexpr mcast::FloodPruneConfig kDvmrpConfig{
    .hello_interval = 10 * sim::kSecond,
    .neighbor_holdtime = 35 * sim::kSecond,
    .prune_lifetime = 120 * sim::kSecond,
    .entry_lifetime = 120 * sim::kSecond,
};

/// The flood-and-prune state machine is mcast::FloodPrune; this class is
/// its DVMRP wire: Probe hellos, Prunes and Grafts.
class DvmrpRouter final : public mcast::FloodPrune {
public:
    DvmrpRouter(topo::Router& router, igmp::RouterAgent& igmp,
                mcast::FloodPruneConfig config = kDvmrpConfig);

private:
    /// Applies a Probe, Prune or Graft; a prune lasts the lifetime it carries.
    void on_message(int ifindex, const net::Packet& packet);

    [[nodiscard]] std::vector<std::uint8_t> hello_payload() const override;
    [[nodiscard]] std::vector<std::uint8_t> prune_payload(
        const mcast::ForwardingEntry& entry) const override;
    [[nodiscard]] std::vector<std::uint8_t> graft_payload(
        const mcast::ForwardingEntry& entry) const override;
};

} // namespace pimlib::dvmrp
