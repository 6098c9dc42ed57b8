// Reproduces the Figure 1 scenario (§1.3): three domains A, B and C attached
// to a wide-area internet, one member of group G in each domain, plus
// member-free stub domains. Compares, packet for packet:
//
//   Fig. 1(a)/(b) — DVMRP: the source's packets are periodically broadcast
//   across the whole internet and pruned back ("periodically, the source's
//   packets will be broadcast throughout the entire internet when the
//   pruned-off branches time out");
//
//   Fig. 1(c) — CBT: one shared tree rooted at a core in domain A; all
//   senders' traffic concentrates on the core path, and B→C packets do not
//   travel the unicast shortest path;
//
//   PIM-SM — explicit joins only touch the distribution tree; receivers
//   switch to shortest-path trees.
//
// Usage: fig1_overhead [--packets N]
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "scenario/stacks.hpp"
#include "topo/segment.hpp"
#include "unicast/oracle_routing.hpp"

using namespace pimlib;

namespace {

const net::GroupAddress kGroup{net::Ipv4Address(224, 1, 1, 1)};

scenario::StackConfig fast_config() {
    scenario::StackConfig cfg;
    cfg.igmp.query_interval = 10 * sim::kSecond;
    cfg.igmp.membership_timeout = 25 * sim::kSecond;
    cfg.igmp.other_querier_timeout = 25 * sim::kSecond;
    cfg.host.query_response_max = 1 * sim::kSecond;
    return cfg.scaled(0.01);
}

/// The Fig. 1 internetwork. Domains A, B, C have one member each; stub
/// domains S1, S2 have routers and hosts but no members.
struct Fig1Net {
    topo::Network net;
    // internet transit ring
    topo::Router* t[4];
    // per-domain border + internal router
    topo::Router *border_a, *internal_a, *border_b, *internal_b, *border_c, *internal_c;
    topo::Router *border_s1, *internal_s1, *border_s2, *internal_s2;
    topo::Host *member_a, *member_b, *member_c;   // the three receivers
    topo::Host *src_a, *src_b, *src_c;            // senders X (A), Y (B), Z' (C)
    std::unique_ptr<unicast::OracleRouting> routing;

    Fig1Net() {
        for (int i = 0; i < 4; ++i) t[i] = &net.add_router("T" + std::to_string(i));
        net.add_link(*t[0], *t[1]);
        net.add_link(*t[1], *t[2]);
        net.add_link(*t[2], *t[3]);
        net.add_link(*t[3], *t[0]);

        auto domain = [&](const std::string& name, topo::Router* transit,
                          topo::Router** border, topo::Router** internal,
                          topo::Host** member, topo::Host** source) {
            *border = &net.add_router("B" + name);
            *internal = &net.add_router("R" + name);
            net.add_link(*transit, **border);
            net.add_link(**border, **internal);
            auto& member_lan = net.add_lan({*internal});
            if (member != nullptr) *member = &net.add_host("member" + name, member_lan);
            if (source != nullptr) {
                auto& src_lan = net.add_lan({*internal});
                *source = &net.add_host("src" + name, src_lan);
            }
        };
        domain("A", t[0], &border_a, &internal_a, &member_a, &src_a);
        domain("B", t[1], &border_b, &internal_b, &member_b, &src_b);
        domain("C", t[2], &border_c, &internal_c, &member_c, &src_c);
        domain("S1", t[3], &border_s1, &internal_s1, nullptr, nullptr);
        domain("S2", t[1], &border_s2, &internal_s2, nullptr, nullptr);
        routing = std::make_unique<unicast::OracleRouting>(net);
    }
};

struct Result {
    std::string protocol;
    std::uint64_t data_transmissions = 0;   // per-segment data packet crossings
    std::uint64_t delivered = 0;            // member deliveries
    std::size_t segments_touched = 0;       // segments that carried any data
    std::size_t max_flows = 0;              // traffic concentration
    std::uint64_t control = 0;              // control messages total
    std::size_t state_entries = 0;          // multicast entries across routers
    double delay_b_to_c_ms = -1;            // Y→Z latency (Fig. 1(c) concern)
};

/// One row: `protocol`'s stack with `config`, the group rooted in domain A
/// (CBT's core, as in Fig. 1(c), and PIM's RP; DVMRP ignores the root).
Result run(const char* name, std::string_view protocol, const scenario::StackConfig& config,
           int packets) {
    Fig1Net f;
    const std::unique_ptr<scenario::StackBase> stack =
        scenario::make_stack(protocol, f.net, config);
    stack->set_rp(kGroup, {f.border_a->router_id()});
    f.net.run_for(300 * sim::kMillisecond);

    stack->host_agent(*f.member_a).join(kGroup);
    stack->host_agent(*f.member_b).join(kGroup);
    stack->host_agent(*f.member_c).join(kGroup);
    f.net.run_for(500 * sim::kMillisecond);

    // Warm-up: one packet per sender establishes trees / floods+prunes.
    f.src_a->send_data(kGroup);
    f.src_b->send_data(kGroup);
    f.src_c->send_data(kGroup);
    f.net.run_for(1 * sim::kSecond);
    f.net.stats().reset_data_counters();

    // Steady state: senders in all three domains, spanning several prune
    // lifetimes / refresh periods so periodic behavior shows up.
    const sim::Time interval = 100 * sim::kMillisecond;
    f.src_a->send_stream(kGroup, packets, interval);
    f.src_b->send_stream(kGroup, packets, interval);
    f.src_c->send_stream(kGroup, packets, interval);
    f.net.run_for(packets * interval + 2 * sim::kSecond);

    Result r;
    r.protocol = name;
    r.data_transmissions = f.net.stats().total_data_packets();
    r.delivered = f.net.stats().data_delivered();
    r.segments_touched = f.net.stats().segments_carrying_data();
    // Traffic concentration on the wide-area backbone: the busiest
    // router-to-router segment (member LANs converge all flows under every
    // protocol, so they are excluded).
    for (const auto& segment : f.net.segments()) {
        bool backbone = true;
        for (const auto& att : segment->attachments()) {
            if (dynamic_cast<const topo::Router*>(att.node) == nullptr) {
                backbone = false;
                break;
            }
        }
        if (backbone) {
            r.max_flows = std::max(
                r.max_flows,
                static_cast<std::size_t>(f.net.stats().data_packets_on(segment->id())));
        }
    }
    r.control = f.net.stats().total_control_messages();
    r.state_entries = 0;
    for (const auto& router : f.net.routers()) {
        r.state_entries += stack->cache_of(*router)->size();
    }

    // B→C latency: time a fresh packet from src_b to member_c.
    f.member_c->clear_received();
    const sim::Time sent_at = f.net.simulator().now();
    f.src_b->send_data(kGroup);
    f.net.run_for(500 * sim::kMillisecond);
    for (const auto& rec : f.member_c->received()) {
        if (rec.source == f.src_b->address()) {
            r.delay_b_to_c_ms = static_cast<double>(rec.at - sent_at) /
                                static_cast<double>(sim::kMillisecond);
            break;
        }
    }
    return r;
}

void print(const Result& r, int packets, bench::Report& report) {
    const double per_delivery = r.delivered == 0
                                    ? 0.0
                                    : static_cast<double>(r.data_transmissions) /
                                          static_cast<double>(r.delivered);
    std::printf("%-10s %-8llu %-10llu %-10.2f %-9zu %-10zu %-9llu %-7zu %-10.2f\n",
                r.protocol.c_str(),
                static_cast<unsigned long long>(r.data_transmissions),
                static_cast<unsigned long long>(r.delivered), per_delivery,
                r.segments_touched, r.max_flows,
                static_cast<unsigned long long>(r.control), r.state_entries,
                r.delay_b_to_c_ms);
    (void)packets;
    report.metric("tx_per_delivery_" + r.protocol, per_delivery, "packets",
                  "info");
    report.metric("delay_b_to_c_ms_" + r.protocol, r.delay_b_to_c_ms, "ms",
                  "info");
}

} // namespace

int main(int argc, char** argv) {
    const int packets = bench::flag_value(argc, argv, "--packets", 50);
    std::printf("# Figure 1: 3 domains with one member each + 2 member-free stub\n");
    std::printf("# domains; senders in A, B and C; %d packets per sender.\n", packets);
    std::printf("%-10s %-8s %-10s %-10s %-9s %-10s %-9s %-7s %-10s\n", "protocol",
                "data_tx", "delivered", "tx/deliv", "segments", "peak_link",
                "control", "state", "B->C_ms");
    bench::Report report("fig1_overhead");

    scenario::StackConfig rp_tree = fast_config();
    rp_tree.pim.spt_policy = pim::SptPolicy::never();
    print(run("DVMRP", "dvmrp", fast_config(), packets), packets, report);
    print(run("CBT", "cbt", fast_config(), packets), packets, report);
    // PIM-SM's default policy switches to the SPT on the first packet.
    print(run("PIM-SPT", "pim-sm", fast_config(), packets), packets, report);
    print(run("PIM-RP", "pim-sm", rp_tree, packets), packets, report);

    std::printf(
        "# Expected shape: DVMRP touches (nearly) every segment and spends the\n"
        "# most transmissions per delivery (periodic re-broadcast); CBT and\n"
        "# PIM-RP concentrate flows on the core/RP path (higher max_flows) and\n"
        "# stretch the B->C delay; PIM-SPT touches only on-tree segments and\n"
        "# delivers over shortest paths (lowest B->C delay).\n");
    report.emit();
    return 0;
}
