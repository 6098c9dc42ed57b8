#include "trace/tracer.hpp"

#include <cstdio>

#include "cbt/cbt.hpp"
#include "dvmrp/dvmrp.hpp"
#include "igmp/messages.hpp"
#include "mospf/mospf.hpp"
#include "pim/messages.hpp"
#include "unicast/distance_vector.hpp"
#include "unicast/link_state.hpp"

namespace pimlib::trace {

namespace {

std::string flags_of(const pim::EntryFlags& flags) {
    std::string out;
    if (flags.wc_bit) out += "WC";
    if (flags.rp_bit) out += out.empty() ? "RP" : "|RP";
    return out.empty() ? "-" : out;
}

std::string entry_list(const std::vector<pim::AddressEntry>& entries) {
    std::string out = "[";
    bool first = true;
    for (const auto& e : entries) {
        if (!first) out += " ";
        out += e.address.to_string() + "(" + flags_of(e.flags) + ")";
        first = false;
    }
    return out + "]";
}

std::string describe_pim(const net::Packet& packet) {
    auto code = pim::peek_code(packet.payload);
    if (!code) return "PIM (malformed)";
    switch (*code) {
    case pim::Code::kQuery:
        return "PIM Query";
    case pim::Code::kRegister: {
        auto msg = pim::Register::decode(packet.payload);
        if (!msg) return "PIM Register (malformed)";
        return "PIM Register grp=" + msg->group.to_string() +
               " src=" + msg->inner_src.to_string() +
               " seq=" + std::to_string(msg->inner_seq);
    }
    case pim::Code::kRpReachability: {
        auto msg = pim::RpReachability::decode(packet.payload);
        if (!msg) return "PIM RP-Reachability (malformed)";
        return "PIM RP-Reachability grp=" + msg->group.to_string() +
               " rp=" + msg->rp.to_string();
    }
    case pim::Code::kJoinPruneBundle: {
        auto msg = pim::JoinPruneBundle::decode(packet.payload);
        if (!msg) return "PIM Join/Prune (malformed)";
        std::string out = "PIM Join/Prune to=" +
                          msg->upstream_neighbor.to_string() +
                          " groups=" + std::to_string(msg->groups.size());
        for (const auto& rec : msg->groups) {
            out += " [grp=" + rec.group.to_string() +
                   " join=" + entry_list(rec.joins) +
                   " prune=" + entry_list(rec.prunes) + "]";
        }
        return out;
    }
    case pim::Code::kAssert: {
        auto msg = pim::Assert::decode(packet.payload);
        if (!msg) return "PIM Assert (malformed)";
        return "PIM Assert grp=" + msg->group.to_string() +
               " src=" + msg->source.to_string() +
               (msg->wc_bit ? " WC" : "") +
               " metric=" + std::to_string(msg->metric);
    }
    case pim::Code::kBootstrap: {
        auto msg = pim::Bootstrap::decode(packet.payload);
        if (!msg) return "PIM Bootstrap (malformed)";
        std::string out = "PIM Bootstrap bsr=" + msg->bsr.to_string() +
                          " pri=" + std::to_string(msg->bsr_priority) +
                          " seq=" + std::to_string(msg->seq) + " rps=[";
        bool first = true;
        for (const auto& e : msg->rps) {
            if (!first) out += " ";
            out += e.range.to_string() + "->" + e.rp.to_string() + "(" +
                   std::to_string(e.priority) + ")";
            first = false;
        }
        return out + "]";
    }
    case pim::Code::kCandidateRpAdvertisement: {
        auto msg = pim::CandidateRpAdvertisement::decode(packet.payload);
        if (!msg) return "PIM C-RP-Adv (malformed)";
        std::string out = "PIM C-RP-Adv rp=" + msg->rp.to_string() +
                          " pri=" + std::to_string(msg->priority) + " ranges=[";
        for (std::size_t i = 0; i < msg->ranges.size(); ++i) {
            if (i > 0) out += " ";
            out += msg->ranges[i].to_string();
        }
        return out + "]";
    }
    }
    return "PIM (unknown)";
}

std::string describe_igmp_family(const net::Packet& packet) {
    if (packet.payload.empty()) return "IGMP (empty)";
    switch (packet.payload.front()) {
    case igmp::kTypeQuery: {
        auto msg = igmp::Query::decode(packet.payload);
        if (!msg) return "IGMP Query (malformed)";
        return msg->group.is_unspecified() ? "IGMP Query (general)"
                                           : "IGMP Query grp=" + msg->group.to_string();
    }
    case igmp::kTypeReport: {
        auto msg = igmp::Report::decode(packet.payload);
        if (!msg) return "IGMP Report (malformed)";
        return "IGMP Report grp=" + msg->group.to_string();
    }
    case igmp::kTypeRpMap: {
        auto msg = igmp::RpMapReport::decode(packet.payload);
        if (!msg) return "IGMP RP-Map (malformed)";
        std::string out = "IGMP RP-Map grp=" + msg->group.to_string() + " rps=[";
        for (std::size_t i = 0; i < msg->rps.size(); ++i) {
            if (i > 0) out += " ";
            out += msg->rps[i].to_string();
        }
        return out + "]";
    }
    case igmp::kTypePim:
        return describe_pim(packet);
    case igmp::kTypeDvmrp: {
        auto code = dvmrp::peek_code(packet.payload);
        if (!code) return "DVMRP (malformed)";
        switch (*code) {
        case dvmrp::Code::kProbe:
            return "DVMRP Probe";
        case dvmrp::Code::kPrune: {
            auto msg = dvmrp::PruneMsg::decode(packet.payload);
            if (!msg) return "DVMRP Prune (malformed)";
            return "DVMRP Prune src=" + msg->source.to_string() +
                   " grp=" + msg->group.to_string();
        }
        case dvmrp::Code::kGraft: {
            auto msg = dvmrp::GraftMsg::decode(packet.payload);
            if (!msg) return "DVMRP Graft (malformed)";
            return "DVMRP Graft src=" + msg->source.to_string() +
                   " grp=" + msg->group.to_string();
        }
        }
        return "DVMRP (unknown)";
    }
    default:
        return "IGMP type=0x" + std::to_string(packet.payload.front());
    }
}

std::string describe_cbt(const net::Packet& packet) {
    auto code = cbt::peek_code(packet.payload);
    if (!code) return "CBT (malformed)";
    switch (*code) {
    case cbt::Code::kJoinRequest: {
        auto msg = cbt::JoinRequest::decode(packet.payload);
        if (!msg) return "CBT Join-Request (malformed)";
        return "CBT Join-Request grp=" + msg->group.to_string() +
               " core=" + msg->core.to_string();
    }
    case cbt::Code::kJoinAck:
        return "CBT Join-Ack";
    case cbt::Code::kQuit:
        return "CBT Quit";
    case cbt::Code::kEchoRequest:
        return "CBT Echo-Request";
    case cbt::Code::kEchoReply:
        return "CBT Echo-Reply";
    case cbt::Code::kFlush:
        return "CBT Flush";
    }
    return "CBT (unknown)";
}

} // namespace

std::string describe_packet(const net::Packet& packet) {
    switch (packet.proto) {
    case net::IpProto::kIgmp:
        return describe_igmp_family(packet);
    case net::IpProto::kCbt:
        return describe_cbt(packet);
    case net::IpProto::kUdp:
        if (packet.dst.is_multicast()) {
            return "DATA grp=" + packet.dst.to_string() +
                   " seq=" + std::to_string(packet.seq);
        }
        return "DATA (unicast-encapsulated) seq=" + std::to_string(packet.seq);
    case net::IpProto::kOspf:
        if (!packet.payload.empty() && packet.payload.front() == 3) {
            auto msg = mospf::MembershipLsa::decode(packet.payload);
            if (msg) {
                return "MOSPF Membership-LSA origin=" + msg->origin.to_string() +
                       " groups=" + std::to_string(msg->groups.size());
            }
        }
        if (!packet.payload.empty() && packet.payload.front() == 1) return "LS Hello";
        if (!packet.payload.empty() && packet.payload.front() == 2) return "LS LSA";
        return "OSPF (unknown)";
    case net::IpProto::kRip:
        return "DV Update";
    }
    return "proto=" + std::to_string(static_cast<int>(packet.proto));
}

PacketTracer::PacketTracer(topo::Network& network) : network_(&network) {
    tap_token_ = network_->add_packet_tap(
        [this](const topo::Segment& segment, const net::Frame& frame) {
            on_frame(segment, frame);
        });
}

PacketTracer::~PacketTracer() { network_->remove_packet_tap(tap_token_); }

bool PacketTracer::concerns_group(const net::Packet& packet) const {
    if (!group_.has_value()) return true;
    const std::string needle = group_->to_string();
    if (packet.dst == group_->address()) return true;
    // Cheap but effective: the decoded description names the group.
    return describe_packet(packet).find(needle) != std::string::npos;
}

void PacketTracer::on_frame(const topo::Segment& segment, const net::Frame& frame) {
    if (!enabled_) return;
    if (proto_.has_value() && frame.packet.proto != *proto_) return;
    if (!concerns_group(frame.packet)) return;
    records_.push_back(
        Record{network_->simulator().now(), segment.id(), frame.packet});
}

std::size_t PacketTracer::count_matching(const std::string& needle) const {
    std::size_t n = 0;
    for (const Record& r : records_) {
        if (describe_packet(r.packet).find(needle) != std::string::npos) ++n;
    }
    return n;
}

std::string PacketTracer::dump() const {
    std::string out;
    char head[96];
    for (const Record& r : records_) {
        std::snprintf(head, sizeof(head), "%10.3fms  seg%-3d  %-15s > %-15s  ",
                      static_cast<double>(r.at) / sim::kMillisecond, r.segment_id,
                      r.packet.src.to_string().c_str(),
                      r.packet.dst.to_string().c_str());
        out += head;
        out += describe_packet(r.packet);
        out += '\n';
    }
    return out;
}

} // namespace pimlib::trace
