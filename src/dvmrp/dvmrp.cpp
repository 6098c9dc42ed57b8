#include "dvmrp/dvmrp.hpp"

#include "igmp/messages.hpp"
#include "net/buffer.hpp"
#include "telemetry/profiler/profiler.hpp"

namespace pimlib::dvmrp {

namespace {
void put_header(net::BufWriter& w, Code code) {
    w.put_u8(igmp::kTypeDvmrp);
    w.put_u8(static_cast<std::uint8_t>(code));
}

bool check_header(net::BufReader& r, Code code) {
    auto type = r.get_u8();
    auto c = r.get_u8();
    return type && c && *type == igmp::kTypeDvmrp &&
           *c == static_cast<std::uint8_t>(code);
}
} // namespace

std::optional<Code> peek_code(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < 2 || bytes[0] != igmp::kTypeDvmrp) return std::nullopt;
    if (bytes[1] < 1 || bytes[1] > 3) return std::nullopt;
    return static_cast<Code>(bytes[1]);
}

std::vector<std::uint8_t> Probe::encode() const {
    net::BufWriter w(6);
    put_header(w, Code::kProbe);
    w.put_u32(holdtime_ms);
    return w.take();
}

std::optional<Probe> Probe::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kProbe)) return std::nullopt;
    auto holdtime = r.get_u32();
    if (!holdtime || !r.at_end()) return std::nullopt;
    return Probe{*holdtime};
}

std::vector<std::uint8_t> PruneMsg::encode() const {
    net::BufWriter w(14);
    put_header(w, Code::kPrune);
    w.put_addr(source);
    w.put_addr(group);
    w.put_u32(lifetime_ms);
    return w.take();
}

std::optional<PruneMsg> PruneMsg::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kPrune)) return std::nullopt;
    auto source = r.get_addr();
    auto group = r.get_addr();
    auto lifetime = r.get_u32();
    if (!source || !group || !lifetime || !r.at_end()) return std::nullopt;
    return PruneMsg{*source, *group, *lifetime};
}

std::vector<std::uint8_t> GraftMsg::encode() const {
    net::BufWriter w(10);
    put_header(w, Code::kGraft);
    w.put_addr(source);
    w.put_addr(group);
    return w.take();
}

std::optional<GraftMsg> GraftMsg::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kGraft)) return std::nullopt;
    auto source = r.get_addr();
    auto group = r.get_addr();
    if (!source || !group || !r.at_end()) return std::nullopt;
    return GraftMsg{*source, *group};
}

DvmrpRouter::DvmrpRouter(topo::Router& router, igmp::RouterAgent& igmp,
                         mcast::FloodPruneConfig config)
    : FloodPrune(router, igmp, config, "dvmrp") {
    router.register_protocol(net::IpProto::kIgmp, igmp::kTypeDvmrp,
                             [this](int ifindex, const net::Packet& packet) {
                                 on_message(ifindex, packet);
                             });
}

void DvmrpRouter::on_message(int ifindex, const net::Packet& packet) {
    PROF_ZONE("control.dvmrp");
    if (ifindex < 0) return;
    auto code = peek_code(packet.payload);
    if (!code) return;
    switch (*code) {
    case Code::kProbe:
        if (auto msg = Probe::decode(packet.payload)) {
            on_hello(ifindex, packet.src, mcast::from_wire_ms(msg->holdtime_ms));
        }
        break;
    case Code::kPrune:
        if (auto msg = PruneMsg::decode(packet.payload); msg && msg->group.is_multicast()) {
            on_prune(ifindex, msg->source, net::GroupAddress{msg->group},
                     mcast::from_wire_ms(msg->lifetime_ms));
        }
        break;
    case Code::kGraft:
        if (auto msg = GraftMsg::decode(packet.payload); msg && msg->group.is_multicast()) {
            on_graft(ifindex, msg->source, net::GroupAddress{msg->group});
        }
        break;
    }
}

std::vector<std::uint8_t> DvmrpRouter::hello_payload() const {
    return Probe{mcast::wire_ms(config().neighbor_holdtime)}.encode();
}

std::vector<std::uint8_t> DvmrpRouter::prune_payload(const mcast::ForwardingEntry& entry) const {
    return PruneMsg{entry.source_or_rp(), entry.group().address(),
                    mcast::wire_ms(config().prune_lifetime)}
        .encode();
}

std::vector<std::uint8_t> DvmrpRouter::graft_payload(const mcast::ForwardingEntry& entry) const {
    return GraftMsg{entry.source_or_rp(), entry.group().address()}.encode();
}

} // namespace pimlib::dvmrp
