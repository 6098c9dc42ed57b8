// A transmission segment: either a point-to-point link (two attachments) or
// a multi-access LAN (any number). Frames transmitted on a segment are
// delivered to the other attachments after the propagation delay; unicast
// link destinations deliver to exactly the owning attachment.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace pimlib::topo {

class Network;
class Node;

/// One frame in flight to one attachment: what a delivery event hands to
/// the receiving node. Lives in a recycled slot of the network's arena from
/// transmit until the event fires, so scheduling a delivery allocates
/// nothing (the event's closure is two pointers, which std::function keeps
/// inline).
struct PendingDelivery {
    Node* node;
    int ifindex;
    net::Packet packet;
};

class Segment {
public:
    Segment(Network& network, int id, net::Prefix prefix, sim::Time delay, int metric);

    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;

    /// Transmits from `sender` to the other attachments. Multicast/broadcast
    /// frames (no link_dst) go to everyone else; unicast frames only to the
    /// attachment owning link_dst. Dropped if the segment is down.
    void transmit(const Node& sender, const net::Frame& frame);

    /// Takes the segment down (frames silently vanish) or back up. A state
    /// change notifies the network's topology observers so unicast routing
    /// recomputes, exactly as a converged routing domain would react.
    void set_up(bool up);
    [[nodiscard]] bool is_up() const { return up_; }

    /// Per-frame probabilistic loss in [0,1): every transmitted frame is
    /// dropped with probability `rate` before any delivery (the whole wire
    /// loses it, not one station). Deterministic per-segment RNG so fault
    /// scenarios replay identically.
    void set_loss_rate(double rate);
    /// Restarts the loss RNG stream; called by Network::set_seed so one
    /// global seed makes whole runs reproducible end-to-end.
    void reseed_loss(std::uint32_t seed) {
        loss_seed_ = seed;
        loss_rng_.reset();
    }
    [[nodiscard]] double loss_rate() const { return loss_rate_; }
    /// Frames dropped by injected loss so far.
    [[nodiscard]] std::uint64_t frames_lost() const { return frames_lost_; }

    [[nodiscard]] int id() const { return id_; }
    [[nodiscard]] net::Prefix prefix() const { return prefix_; }
    [[nodiscard]] sim::Time delay() const { return delay_; }
    [[nodiscard]] int metric() const { return metric_; }
    [[nodiscard]] bool is_lan() const { return attachments_.size() > 2; }

    struct Attachment {
        Node* node;
        int ifindex;
    };
    [[nodiscard]] const std::vector<Attachment>& attachments() const { return attachments_; }

private:
    friend class Node; // Node::attach registers the attachment
    void add_attachment(Node& node, int ifindex);
    void deliver(const Attachment& to, const net::Packet& packet);
    /// The delivery event's body: takes the packet out of `slot`, returns
    /// the slot to the arena, then hands the packet to the node if the
    /// segment and the interface are still up.
    void land(PendingDelivery* slot);

    Network* network_;
    int id_;
    net::Prefix prefix_;
    sim::Time delay_;
    int metric_;
    bool up_ = true;
    double loss_rate_ = 0.0;
    std::uint64_t frames_lost_ = 0;
    // The loss engine (5 kB of state) is built from loss_seed_ on the first
    // lossy transmit: most segments never draw from it.
    std::uint32_t loss_seed_;
    std::unique_ptr<std::mt19937> loss_rng_;
    std::vector<Attachment> attachments_;
};

} // namespace pimlib::topo
