// Network-layer packets and link-layer frames as exchanged over simulated
// segments. Payloads are the immutable, shared wire bytes the per-protocol
// codecs produce (see net/payload.hpp and pim/messages.hpp etc.), so copying
// a packet copies only its header fields.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/ipv4.hpp"
#include "net/payload.hpp"

namespace pimlib::net {

/// IP protocol numbers used in the simulation. IGMP carries PIM and DVMRP
/// control traffic, matching the 1994-era encapsulation; the unicast routing
/// protocols get private numbers for simplicity (the real ones ride on UDP
/// which we do not model).
enum class IpProto : std::uint8_t {
    kIgmp = 2,        // IGMP, PIM v1 messages, DVMRP messages
    kCbt = 7,         // CBT control
    kUdp = 17,        // application data payloads
    kOspf = 89,       // link-state unicast routing
    kRip = 200,       // distance-vector unicast routing (private number)
};

/// A network-layer packet. `payload` is already-encoded wire bytes, shared
/// by every copy of the packet; the other fields are per copy.
struct Packet {
    Ipv4Address src;
    Ipv4Address dst;
    IpProto proto = IpProto::kUdp;
    std::uint8_t ttl = 64;
    Payload payload;

    /// Sequence number stamped by traffic sources so receivers can detect
    /// loss/duplication in tests; 0 for control traffic.
    std::uint64_t seq = 0;

    /// Provenance id (see provenance::packet_id): stamped at origination,
    /// carried through replication and restamped across register/DataEncap
    /// encapsulation so one id names one end-to-end data packet. 0 means
    /// unstamped (control traffic) — the flight recorder skips it.
    std::uint64_t pid = 0;

    [[nodiscard]] bool is_multicast() const { return dst.is_multicast(); }
};

/// A link-layer frame: a packet plus where on the segment it is going.
/// `link_dst` unset means link-layer broadcast/multicast — every other
/// attachment on the segment receives it. When set, only the attachment
/// owning that interface address receives it (our stand-in for unicast MAC
/// addressing; ARP is not modeled).
struct Frame {
    std::optional<Ipv4Address> link_dst;
    Packet packet;
};

} // namespace pimlib::net
