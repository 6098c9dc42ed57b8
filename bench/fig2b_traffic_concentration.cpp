// Reproduces Figure 2(b): traffic concentration — the maximum number of
// traffic flows on any link, shortest-path trees vs a single center-based
// tree per group.
//
// Paper setup (§1.3): "In each network, there were 300 active groups all
// having 40 members, of which 32 members were also senders. We measured the
// number of traffic flows on each link of the network, then recorded the
// maximum number within the network. For each node degree between three and
// eight, 500 random networks were generated, and the measured maximum
// number of traffic flows were averaged."
//
// Usage: fig2b_traffic_concentration [--trials N] [--groups G]
#include <cstdio>

#include "bench_util.hpp"

using namespace pimlib;

namespace {

struct GroupSpec {
    std::vector<int> members; // 40
    std::vector<int> senders; // first 32 of the members
};

void add_spt_flows(const graph::AllPairs& ap, const GroupSpec& group,
                   bench::EdgeFlowCounter& flows, std::vector<int>& stamp_buf,
                   int& stamp) {
    for (int sender : group.senders) {
        const auto& spt = ap.tree(sender);
        ++stamp;
        for (const auto& [u, v] : bench::tree_edges(spt, group.members, stamp_buf, stamp)) {
            flows.add(u, v);
        }
    }
}

void add_cbt_flows(const graph::AllPairs& ap, const GroupSpec& group,
                   bench::EdgeFlowCounter& flows, std::vector<int>& stamp_buf,
                   int& stamp) {
    const int core = graph::optimal_core(ap, group.members);
    const auto& core_spt = ap.tree(core);
    // The shared tree: union of core→member paths. Every sender's flow
    // traverses the entire shared tree (each member must receive it).
    ++stamp;
    const auto shared = bench::tree_edges(core_spt, group.members, stamp_buf, stamp);
    for (const auto& [u, v] : shared) flows.add(u, v, group.senders.size());
    // Off-tree senders additionally reach the tree via their path to the
    // core. (Senders that are members are on the tree already.)
    for (int sender : group.senders) {
        bool on_tree = false;
        for (int m : group.members) {
            if (m == sender) {
                on_tree = true;
                break;
            }
        }
        if (on_tree) continue;
        ++stamp;
        for (const auto& [u, v] :
             bench::tree_edges(core_spt, std::vector<int>{sender}, stamp_buf, stamp)) {
            flows.add(u, v);
        }
    }
}

} // namespace

int main(int argc, char** argv) {
    const int trials = bench::flag_value(argc, argv, "--trials", 500);
    const int group_count = bench::flag_value(argc, argv, "--groups", 300);
    const int nodes = 50;
    const int member_count = 40;
    const int sender_count = 32;

    std::printf("# Figure 2(b): max number of traffic flows on any link\n");
    std::printf("# 50-node random graphs, %d groups x %d members (%d senders), "
                "%d trials per degree\n",
                group_count, member_count, sender_count, trials);
    std::printf("%-12s %-14s %-14s %-8s\n", "node_degree", "spt_max_flows",
                "cbt_max_flows", "ratio");

    bench::Report report("fig2b_traffic_concentration");
    for (int degree = 3; degree <= 8; ++degree) {
        std::vector<double> spt_max;
        std::vector<double> cbt_max;
        std::mt19937 rng(0xF16B0000u + static_cast<std::uint32_t>(degree));
        for (int trial = 0; trial < trials; ++trial) {
            graph::Graph g = graph::random_connected_graph(
                {.nodes = nodes, .average_degree = static_cast<double>(degree)}, rng);
            graph::AllPairs ap(g);
            bench::EdgeFlowCounter spt_flows(g);
            bench::EdgeFlowCounter cbt_flows(g);
            std::vector<int> stamp_buf(static_cast<std::size_t>(nodes), 0);
            int stamp = 0;
            for (int gi = 0; gi < group_count; ++gi) {
                GroupSpec group;
                group.members = graph::sample_nodes(nodes, member_count, rng);
                group.senders.assign(group.members.begin(),
                                     group.members.begin() + sender_count);
                add_spt_flows(ap, group, spt_flows, stamp_buf, stamp);
                add_cbt_flows(ap, group, cbt_flows, stamp_buf, stamp);
            }
            spt_max.push_back(static_cast<double>(spt_flows.max_flows()));
            cbt_max.push_back(static_cast<double>(cbt_flows.max_flows()));
        }
        const auto spt_summary = bench::summarize(spt_max);
        const auto cbt_summary = bench::summarize(cbt_max);
        std::printf("%-12d %-14.1f %-14.1f %-8.2f\n", degree, spt_summary.mean,
                    cbt_summary.mean, cbt_summary.mean / spt_summary.mean);
        report.metric("concentration_ratio_deg" + std::to_string(degree),
                      cbt_summary.mean / spt_summary.mean, "ratio", "info");
    }
    std::printf("# Expected shape: CBT strictly above SPT at every degree, both\n");
    std::printf("# decreasing as degree grows (more links to spread over).\n");
    report.emit();
    return 0;
}
