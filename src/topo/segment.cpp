#include "topo/segment.hpp"

#include "provenance/provenance.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "topo/network.hpp"
#include "topo/node.hpp"

namespace pimlib::topo {
namespace {

/// Both loss paths (checker-forced and injected) destroy the frame on the
/// wire: count it and record the drop against the sender, naming the
/// segment.
void record_segment_loss(Network& network, const Node& sender, int segment_id,
                         const net::Packet& packet) {
    network.stats().count_drop(provenance::DropReason::kSegmentLoss);
    provenance::HopRecord* hop = network.begin_hop(sender, packet);
    if (hop == nullptr) return;
    hop->segment = static_cast<std::int16_t>(segment_id);
    hop->drop = provenance::DropReason::kSegmentLoss;
}

} // namespace

Segment::Segment(Network& network, int id, net::Prefix prefix, sim::Time delay, int metric)
    : network_(&network), id_(id), prefix_(prefix), delay_(delay), metric_(metric),
      loss_seed_(network.derived_seed(
          static_cast<std::uint32_t>(id),
          Network::kSegmentStreamTag + static_cast<std::uint64_t>(id))) {}

void Segment::add_attachment(Node& node, int ifindex) {
    attachments_.push_back(Attachment{&node, ifindex});
}

void Segment::set_up(bool up) {
    if (up_ == up) return;
    up_ = up;
    network_->notify_topology_changed();
}

void Segment::set_loss_rate(double rate) {
    loss_rate_ = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
}

void Segment::transmit(const Node& sender, const net::Frame& frame) {
    if (!up_) return;

    if (network_->has_packet_taps()) network_->dispatch_packet_taps(*this, frame);

    // Account the transmission once per segment crossing (a LAN multicast
    // counts once no matter how many stations hear it, like a real wire).
    if (frame.packet.proto == net::IpProto::kUdp) {
        network_->stats().count_data_packet(id_);
        if (frame.packet.is_multicast()) {
            network_->stats().note_flow(id_, frame.packet.src,
                                        net::GroupAddress{frame.packet.dst});
        }
    } else {
        network_->stats().count_control_on_segment(id_);
    }

    // Checker-driven loss: with a choice source installed, every
    // transmission is a decision point — alternative 0 delivers, alternative
    // 1 vanishes on the wire. The checker bounds how many drop branches it
    // actually explores; without a source this path is never taken.
    if (sim::ChoiceSource* choices = network_->simulator().choice_source()) {
        if (choices->choose(
                2, sim::ChoicePoint{sim::ChoicePoint::Kind::kFrameLoss, id_,
                                    frame.packet.proto != net::IpProto::kUdp}) ==
            1) {
            ++frames_lost_;
            record_segment_loss(*network_, sender, id_, frame.packet);
            return;
        }
    }

    // Injected loss: the transmission happened (and was accounted and
    // tapped), but no station hears it.
    if (loss_rate_ > 0.0) {
        if (!loss_rng_) loss_rng_ = std::make_unique<std::mt19937>(loss_seed_);
        std::uniform_real_distribution<double> coin(0.0, 1.0);
        if (coin(*loss_rng_) < loss_rate_) {
            ++frames_lost_;
            record_segment_loss(*network_, sender, id_, frame.packet);
            return;
        }
    }

    for (const Attachment& att : attachments_) {
        if (att.node == &sender) continue;
        if (frame.link_dst.has_value() &&
            att.node->interface(att.ifindex).address != *frame.link_dst) {
            continue;
        }
        deliver(att, frame.packet);
    }
}

void Segment::deliver(const Attachment& to, const net::Packet& packet) {
    PendingDelivery* slot =
        network_->deliveries_.create(PendingDelivery{to.node, to.ifindex, packet});
    network_->simulator().schedule(delay_, [this, slot] { land(slot); });
}

void Segment::land(PendingDelivery* slot) {
    PROF_ZONE("topo.deliver");
    Node* node = slot->node;
    const int ifindex = slot->ifindex;
    const net::Packet packet = std::move(slot->packet);
    // Free the slot before receive() runs, so a forward from inside it can
    // reuse the slot.
    network_->deliveries_.destroy(slot);
    if (!up_) return;
    if (!node->interface(ifindex).up) return;
    node->receive(ifindex, packet);
}

} // namespace pimlib::topo
