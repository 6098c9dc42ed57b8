// Ablation: the SPT switchover policy (§3.3).
//
// "A DR may adopt a policy of not setting up an (S,G) entry until it has
// received m data packets from the source within some interval of n
// seconds. This would eliminate the overhead of sending (S,G) state
// upstream when small numbers of packets are sent sporadically. However,
// data packets distributed in this manner may be delivered over the
// suboptimal paths of the shared RP tree."
//
// Sweeps the threshold m for two workloads — a sporadic low-rate source
// (resource-discovery style) and a high-rate source (teleconference style,
// §1.3) — and reports mean delivery latency and how much (S,G) state the
// network carries.
//
// Usage: ablation_spt_policy
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "scenario/stacks.hpp"
#include "unicast/oracle_routing.hpp"

using namespace pimlib;

namespace {

const net::GroupAddress kGroup{net::Ipv4Address(224, 1, 1, 1)};

struct Run {
    double mean_latency_ms = 0;
    std::size_t sg_entries = 0;
    std::size_t delivered = 0;
};

// Same divergent topology as examples/scenarios/spt_switchover.pimsim:
// shared path ~42 ms, SPT ~4 ms.
Run run_policy(pim::SptPolicy policy, int packets, sim::Time interval) {
    topo::Network net;
    auto& a = net.add_router("A");
    auto& b = net.add_router("B");
    auto& d = net.add_router("D");
    auto& x = net.add_router("X");
    auto& y = net.add_router("Y");
    auto& c = net.add_router("C");
    auto& rlan = net.add_lan({&a});
    auto& receiver = net.add_host("receiver", rlan);
    net.add_link(a, b, 2 * sim::kMillisecond, 3);
    net.add_link(b, d, 2 * sim::kMillisecond, 1);
    net.add_link(b, x, 10 * sim::kMillisecond, 1);
    net.add_link(x, y, 10 * sim::kMillisecond, 1);
    net.add_link(y, c, 10 * sim::kMillisecond, 1);
    net.add_link(a, c, 10 * sim::kMillisecond, 4);
    auto& slan = net.add_lan({&d});
    auto& source = net.add_host("source", slan);
    unicast::OracleRouting routing(net);

    scenario::StackConfig cfg;
    cfg.igmp.query_interval = 10 * sim::kSecond;
    cfg.igmp.membership_timeout = 25 * sim::kSecond;
    scenario::PimSmStack pim(net, cfg.scaled(0.01));
    pim.set_rp(kGroup, {c.router_id()});
    pim.set_spt_policy(policy);
    net.run_for(200 * sim::kMillisecond);
    pim.host_agent(receiver).join(kGroup);
    net.run_for(300 * sim::kMillisecond);

    std::vector<sim::Time> sent_at;
    for (int i = 0; i < packets; ++i) {
        net.simulator().schedule(i * interval, [&net, &source, &sent_at] {
            sent_at.push_back(net.simulator().now());
            source.send_data(kGroup);
        });
    }
    net.run_for(packets * interval + 2 * sim::kSecond);

    Run r;
    double total = 0;
    for (const auto& rec : receiver.received()) {
        const std::size_t i = static_cast<std::size_t>(rec.seq) - 1;
        if (i < sent_at.size()) {
            total += static_cast<double>(rec.at - sent_at[i]) /
                     static_cast<double>(sim::kMillisecond);
        }
    }
    r.delivered = receiver.received_count(kGroup);
    r.mean_latency_ms = r.delivered == 0 ? -1 : total / static_cast<double>(r.delivered);
    for (const auto& router : net.routers()) {
        r.sg_entries += pim.pim_at(*router).cache().sg_count();
    }
    return r;
}

void sweep(const char* workload, const char* tag, int packets,
           sim::Time interval, bench::Report& report) {
    std::printf("\n## workload: %s (%d packets, %lld ms apart)\n", workload, packets,
                static_cast<long long>(interval / sim::kMillisecond));
    std::printf("%-22s %-14s %-12s %-10s\n", "policy", "mean_lat_ms", "sg_entries",
                "delivered");
    struct P {
        const char* name;
        const char* tag;
        pim::SptPolicy policy;
    };
    const P policies[] = {
        {"never (RP tree)", "rp_tree", pim::SptPolicy::never()},
        {"threshold m=20", "thresh20", pim::SptPolicy::threshold(20, 10 * sim::kSecond)},
        {"threshold m=5", "thresh5", pim::SptPolicy::threshold(5, 10 * sim::kSecond)},
        {"immediate", "immediate", pim::SptPolicy::immediate()},
    };
    for (const P& p : policies) {
        const Run r = run_policy(p.policy, packets, interval);
        std::printf("%-22s %-14.1f %-12zu %-10zu\n", p.name, r.mean_latency_ms,
                    r.sg_entries, r.delivered);
        const std::string key = std::string(tag) + "_" + p.tag;
        report.metric("mean_lat_ms_" + key, r.mean_latency_ms, "ms", "info");
        report.metric("sg_entries_" + key, static_cast<double>(r.sg_entries),
                      "entries", "info");
    }
}

} // namespace

int main() {
    std::printf("# Ablation: SPT switchover policy (§3.3) — latency vs (S,G) state\n");
    bench::Report report("ablation_spt_policy");
    sweep("sporadic low-rate source", "sporadic", 6, 500 * sim::kMillisecond,
          report);
    sweep("high-rate source", "highrate", 60, 20 * sim::kMillisecond, report);
    std::printf(
        "\n# Expected shape: staying on the RP tree holds latency at the shared-\n"
        "# path cost with zero receiver-side (S,G) state; immediate switching\n"
        "# buys shortest-path latency at the cost of per-source state even for\n"
        "# sporadic senders; thresholds interpolate — \"shared trees may perform\n"
        "# very well for large numbers of low data rate sources ... while SPTs\n"
        "# may be better suited for high data rate sources\" (§1.3).\n");
    report.emit();
    return 0;
}
