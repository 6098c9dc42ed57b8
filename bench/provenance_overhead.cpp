// Cost of the provenance flight recorder (the "cost model" contract in
// src/provenance/provenance.hpp): with no Recorder attached every hook is
// one pointer test, and an attached recorder appends in O(1) into
// preallocated rings.
//
// One deterministic PIM-SM workload — a 16-router random internet, 8 edge
// LANs, several groups streaming concurrently — runs once per process in
// one of two modes:
//
//   off    no Recorder attached to the Network (the baseline)
//   on     Recorder attached and recording every hop
//
// The bench times nothing itself: bench_runner runs `--recorder on` against
// the off mode in interleaved process pairs and gates recorder_on_cpu_ratio
// against bench/baselines/provenance_overhead.json.
//
// Usage: provenance_overhead [--packets N] [--recorder off|on]
//
// In on mode the bench exits nonzero if the recorder saw no traffic: a 0
// would mean the pair is measuring nothing.
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "graph/random_graph.hpp"
#include "provenance/provenance.hpp"
#include "scenario/stacks.hpp"
#include "topo/segment.hpp"
#include "unicast/oracle_routing.hpp"

using namespace pimlib;

namespace {

constexpr int kGroups = 6;

net::GroupAddress group_n(int n) {
    return net::GroupAddress{
        net::Ipv4Address(224, 9, 0, static_cast<std::uint8_t>(n + 1))};
}

scenario::StackConfig fast_config() {
    scenario::StackConfig cfg;
    cfg.igmp.query_interval = 10 * sim::kSecond;
    cfg.igmp.membership_timeout = 25 * sim::kSecond;
    cfg.igmp.other_querier_timeout = 25 * sim::kSecond;
    cfg.host.query_response_max = 1 * sim::kSecond;
    return cfg.scaled(0.01);
}

/// One full simulation; returns total records appended so the on mode can
/// prove the recorder actually saw traffic.
std::uint64_t run_once(bool record, int packets) {
    topo::Network net;
    std::vector<topo::Router*> routers;
    std::vector<topo::Host*> hosts;
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
    unicast::OracleRouting routing(net);

    std::unique_ptr<provenance::Recorder> recorder;
    if (record) {
        recorder = std::make_unique<provenance::Recorder>(
            net.telemetry().registry());
        net.set_provenance(recorder.get());
    }

    scenario::PimSmStack stack(net, fast_config());
    stack.set_spt_policy(pim::SptPolicy::immediate());
    std::mt19937 pick(777);
    std::vector<std::vector<std::size_t>> group_hosts;
    for (int gi = 0; gi < kGroups; ++gi) {
        stack.set_rp(group_n(gi), {routers[0]->router_id()});
        auto idx =
            graph::sample_nodes(static_cast<int>(hosts.size()), 4, pick);
        group_hosts.emplace_back(idx.begin(), idx.end());
    }
    net.run_for(300 * sim::kMillisecond);
    for (int gi = 0; gi < kGroups; ++gi) {
        for (std::size_t k = 1; k < group_hosts[gi].size(); ++k) {
            stack.host_agent(*hosts[group_hosts[gi][k]]).join(group_n(gi));
        }
    }
    net.run_for(500 * sim::kMillisecond);
    for (int gi = 0; gi < kGroups; ++gi) {
        hosts[group_hosts[gi][0]]->send_stream(group_n(gi), packets,
                                               10 * sim::kMillisecond);
    }
    net.run_for(packets * 10 * sim::kMillisecond + 2 * sim::kSecond);
    return recorder ? recorder->total_records() : 0;
}

} // namespace

int main(int argc, char** argv) {
    const int packets =
        std::max(1, bench::flag_value(argc, argv, "--packets", 1000));
    const std::string recorder =
        bench::flag_string(argc, argv, "--recorder", "off");
    if (recorder != "off" && recorder != "on") {
        std::fprintf(stderr, "provenance_overhead: --recorder takes "
                             "off|on, not '%s'\n",
                     recorder.c_str());
        return 2;
    }
    const bool record = recorder == "on";

    const std::uint64_t records = run_once(record, packets);
    bench::Report norm("provenance_overhead");
    norm.metric("records", static_cast<double>(records), "records", "info");
    norm.emit();

    if (record && records == 0) {
        std::fprintf(stderr, "provenance_overhead: enabled run recorded nothing "
                             "— the bench is not exercising the recorder\n");
        return 1;
    }
    return 0;
}
