// Scaling sweep for the paper's §1.2 efficiency claims: "overhead is
// measured in terms of resources consumed in routers and links, i.e. state,
// processing, and bandwidth", as group count and membership density vary.
//
// A fixed random 16-router internet with 8 edge LANs runs the same workload
// under PIM-SM, DVMRP, MOSPF and CBT:
//   - sparse groups: 2 member LANs per group (the paper's target regime);
//   - dense groups: 7 member LANs per group (where flooding is justified).
//
// Usage: scaling_overhead [--packets N] [--telemetry on|off]
//                         [--observers on|off] [--metrics prom|json]
//
//   --telemetry on       enable event/span tracing during the sweep
//   --observers on       attach a telemetry::TreeMonitor and a
//                        check::Watchdog to every stack: the budgeted tree
//                        walks plus the incremental invariant sweeps
//   --metrics prom|json  dump the final run's metric registry after the table
//
// bench_runner prices --telemetry on and --observers on against the plain
// sweep in interleaved process pairs (tracing_cpu_ratio,
// observers_cpu_ratio in bench/baselines/scaling_overhead.json).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "check/watchdog.hpp"
#include "scenario/stacks.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/tree_monitor.hpp"
#include "topo/segment.hpp"
#include "unicast/oracle_routing.hpp"

using namespace pimlib;

namespace {

bool g_tracing = false;       // --telemetry on
bool g_observe = false;       // --observers on: attach monitor + watchdogs
std::string g_metrics_format; // --metrics prom|json
std::string g_last_metrics;   // registry dump of the most recent run

scenario::StackConfig fast_config() {
    scenario::StackConfig cfg;
    cfg.igmp.query_interval = 10 * sim::kSecond;
    cfg.igmp.membership_timeout = 25 * sim::kSecond;
    cfg.igmp.other_querier_timeout = 25 * sim::kSecond;
    cfg.host.query_response_max = 1 * sim::kSecond;
    return cfg.scaled(0.01);
}

struct World {
    topo::Network net;
    std::vector<topo::Router*> routers;
    std::vector<topo::Host*> hosts;
    std::unique_ptr<unicast::OracleRouting> routing;

    World() {
        std::mt19937 rng(424242);
        graph::Graph g =
            graph::random_connected_graph({.nodes = 16, .average_degree = 3.0}, rng);
        for (int i = 0; i < 16; ++i) {
            routers.push_back(&net.add_router("r" + std::to_string(i)));
        }
        for (int u = 0; u < 16; ++u) {
            for (const auto& e : g.neighbors(u)) {
                if (e.to > u) net.add_link(*routers[u], *routers[e.to]);
            }
        }
        for (int idx : graph::sample_nodes(16, 8, rng)) {
            auto& lan = net.add_lan({routers[static_cast<std::size_t>(idx)]});
            hosts.push_back(&net.add_host("h" + std::to_string(idx), lan));
        }
        routing = std::make_unique<unicast::OracleRouting>(net);
    }
};

struct Row {
    std::uint64_t data_tx = 0;
    std::uint64_t delivered = 0;
    std::uint64_t control = 0;
    std::size_t state = 0;
};

net::GroupAddress group_n(int n) {
    return net::GroupAddress{net::Ipv4Address(224, 5, static_cast<std::uint8_t>(n / 256),
                                              static_cast<std::uint8_t>(n % 256))};
}

template <typename StackT, typename SetupFn, typename StateFn>
Row run(int groups, int members_per_group, int packets, SetupFn setup,
        StateFn state_of) {
    World w;
    w.net.telemetry().set_tracing(g_tracing);
    StackT stack(w.net, fast_config());
    std::unique_ptr<telemetry::TreeMonitor> monitor;
    std::unique_ptr<check::Watchdog> watchdog;
    if (g_observe) {
        auto caches = [&stack](const topo::Router& r) { return stack.cache_of(r); };
        monitor = std::make_unique<telemetry::TreeMonitor>(w.net, caches);
        monitor->start();
        watchdog = std::make_unique<check::Watchdog>(w.net, caches);
        watchdog->start();
    }
    std::mt19937 rng(777);
    // Per group: pick member hosts; host 0 of the group is also the sender.
    std::vector<std::vector<std::size_t>> group_hosts;
    for (int gi = 0; gi < groups; ++gi) {
        auto idx = graph::sample_nodes(static_cast<int>(w.hosts.size()),
                                       members_per_group + 1, rng);
        group_hosts.emplace_back(idx.begin(), idx.end());
        setup(w, stack, group_n(gi));
    }
    w.net.run_for(300 * sim::kMillisecond);
    for (int gi = 0; gi < groups; ++gi) {
        // Members are all but the first pick; the first pick sends.
        for (std::size_t k = 1; k < group_hosts[gi].size(); ++k) {
            stack.host_agent(*w.hosts[group_hosts[gi][k]]).join(group_n(gi));
        }
    }
    w.net.run_for(500 * sim::kMillisecond);
    for (int gi = 0; gi < groups; ++gi) {
        w.hosts[group_hosts[gi][0]]->send_data(group_n(gi)); // warm-up
    }
    w.net.run_for(1 * sim::kSecond);
    w.net.stats().reset_data_counters();

    for (int gi = 0; gi < groups; ++gi) {
        w.hosts[group_hosts[gi][0]]->send_stream(group_n(gi), packets,
                                                 100 * sim::kMillisecond);
    }
    // Measure state mid-stream (it is soft state: it dissolves afterwards).
    w.net.run_for(packets * 100 * sim::kMillisecond);
    Row row;
    for (auto* router : w.routers) row.state += state_of(stack, *router);
    w.net.run_for(2 * sim::kSecond); // drain in-flight deliveries
    row.data_tx = w.net.stats().total_data_packets();
    row.delivered = w.net.stats().data_delivered();
    row.control = w.net.stats().total_control_messages();
    if (!g_metrics_format.empty()) {
        const telemetry::Registry& reg = w.net.telemetry().registry();
        g_last_metrics = g_metrics_format == "json" ? telemetry::to_json(reg)
                                                    : telemetry::to_prometheus(reg);
    }
    return row;
}

Row g_sum; // accumulated across rows for the normalized line

void print_row(const char* protocol, int groups, int members, const Row& row) {
    g_sum.data_tx += row.data_tx;
    g_sum.delivered += row.delivered;
    g_sum.control += row.control;
    g_sum.state += row.state;
    const double per = row.delivered == 0 ? 0.0
                                          : static_cast<double>(row.data_tx) /
                                                static_cast<double>(row.delivered);
    std::printf("%-8s %-7d %-8d %-9llu %-10llu %-9.2f %-9llu %-6zu\n", protocol,
                groups, members, static_cast<unsigned long long>(row.data_tx),
                static_cast<unsigned long long>(row.delivered), per,
                static_cast<unsigned long long>(row.control), row.state);
}

void sweep(int packets) {
    for (int groups : {1, 4, 16}) {
        for (int members : {2, 7}) {
            print_row("PIM-SM", groups, members,
                      run<scenario::PimSmStack>(
                          groups, members, packets,
                          [](World& w, scenario::PimSmStack& s, net::GroupAddress g) {
                              s.set_rp(g, {w.routers[0]->router_id()});
                              s.set_spt_policy(pim::SptPolicy::immediate());
                          },
                          [](scenario::PimSmStack& s, const topo::Router& r) {
                              return s.pim_at(r).cache().size();
                          }));
            print_row("DVMRP", groups, members,
                      run<scenario::DvmrpStack>(
                          groups, members, packets,
                          [](World&, scenario::DvmrpStack&, net::GroupAddress) {},
                          [](scenario::DvmrpStack& s, const topo::Router& r) {
                              return s.dvmrp_at(r).cache().size();
                          }));
            print_row("MOSPF", groups, members,
                      run<scenario::MospfStack>(
                          groups, members, packets,
                          [](World&, scenario::MospfStack&, net::GroupAddress) {},
                          [](scenario::MospfStack& s, const topo::Router& r) {
                              return s.mospf_at(r).cache().size();
                          }));
            print_row("CBT", groups, members,
                      run<scenario::CbtStack>(
                          groups, members, packets,
                          [](World& w, scenario::CbtStack& s, net::GroupAddress g) {
                              s.set_core(g, w.routers[0]->router_id());
                          },
                          [](scenario::CbtStack& s, const topo::Router& r) {
                              std::size_t n = 0;
                              for (int gi = 0; gi < 64; ++gi) {
                                  if (s.cbt_at(r).tree_state(group_n(gi)) != nullptr) ++n;
                              }
                              return n;
                          }));
        }
    }
}

} // namespace

int main(int argc, char** argv) {
    const int packets = bench::flag_value(argc, argv, "--packets", 20);
    g_tracing = bench::flag_string(argc, argv, "--telemetry", "off") == "on";
    g_observe = bench::flag_string(argc, argv, "--observers", "off") == "on";
    g_metrics_format = bench::flag_string(argc, argv, "--metrics", "");
    std::printf("# Scaling sweep (16 routers, 8 edge LANs, %d packets/sender):\n",
                packets);
    std::printf("# sparse groups have 2 member LANs, dense groups 7 (of 8).\n");
    std::printf("%-8s %-7s %-8s %-9s %-10s %-9s %-9s %-6s\n", "proto", "groups",
                "members", "data_tx", "delivered", "tx/deliv", "control", "state");
    sweep(packets);
    std::printf(
        "# Expected shape (§1.2): for sparse groups, PIM-SM and CBT keep state\n"
        "# and data transmissions proportional to the tree, while DVMRP's\n"
        "# broadcast-and-prune instantiates state at every router and touches\n"
        "# every link periodically; for dense groups the gap narrows — dense-\n"
        "# mode flooding is \"warranted\" when most links lead to receivers.\n");
    if (!g_last_metrics.empty()) {
        std::printf("# --- telemetry registry of the final run (%s) ---\n%s",
                    g_metrics_format.c_str(), g_last_metrics.c_str());
        if (g_metrics_format == "json") std::printf("\n");
    }
    bench::Report norm("scaling_overhead");
    norm.metric("total_control_msgs", static_cast<double>(g_sum.control),
                "msgs", "lower")
        .metric("tx_per_delivery",
                g_sum.delivered == 0 ? 0.0
                                     : static_cast<double>(g_sum.data_tx) /
                                           static_cast<double>(g_sum.delivered),
                "packets", "lower")
        .metric("total_state_entries", static_cast<double>(g_sum.state),
                "entries", "info");
    norm.emit();
    return 0;
}
