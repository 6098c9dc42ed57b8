// Packet tracing: a wiretap over every segment of a network that records
// (and can pretty-print) the frames crossing it, decoding the control
// protocols of this library — PIM, IGMP, DVMRP, CBT, and the unicast
// routing messages — into human-readable one-liners. Invaluable when
// debugging protocol interactions; `trace on` attaches one to a pimsim
// scenario (scenario/world.cpp).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "topo/network.hpp"

namespace pimlib::trace {

/// One captured frame.
struct Record {
    sim::Time at = 0;
    int segment_id = -1;
    net::Packet packet;
};

/// Decodes `packet`'s payload into a protocol-aware one-line description,
/// e.g. "PIM Join/Prune to=10.0.1.2 groups=1 [grp=224.1.1.1
/// join=[192.168.0.3(WC|RP)] prune=[]]".
[[nodiscard]] std::string describe_packet(const net::Packet& packet);

class PacketTracer {
public:
    /// Installs this tracer as one of the network's wiretaps; any number of
    /// tracers and probes can capture the same network concurrently.
    explicit PacketTracer(topo::Network& network);
    ~PacketTracer();

    PacketTracer(const PacketTracer&) = delete;
    PacketTracer& operator=(const PacketTracer&) = delete;

    /// Only record frames for this multicast group (control messages that
    /// name the group included; unrelated traffic skipped).
    void set_group_filter(std::optional<net::GroupAddress> group) { group_ = group; }
    /// Only record frames of this IP protocol.
    void set_proto_filter(std::optional<net::IpProto> proto) { proto_ = proto; }
    /// Pause/resume capture without uninstalling.
    void set_enabled(bool enabled) { enabled_ = enabled; }

    [[nodiscard]] const std::vector<Record>& records() const { return records_; }
    void clear() { records_.clear(); }

    /// Number of captured frames matching a predicate over descriptions
    /// (substring match), e.g. count_matching("Register").
    [[nodiscard]] std::size_t count_matching(const std::string& needle) const;

    /// The whole capture as "time  segment  src->dst  description" lines.
    [[nodiscard]] std::string dump() const;

private:
    void on_frame(const topo::Segment& segment, const net::Frame& frame);
    [[nodiscard]] bool concerns_group(const net::Packet& packet) const;

    topo::Network* network_;
    int tap_token_ = 0;
    std::optional<net::GroupAddress> group_;
    std::optional<net::IpProto> proto_;
    bool enabled_ = true;
    std::vector<Record> records_;
};

} // namespace pimlib::trace
