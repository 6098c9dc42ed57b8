// Reproduces Figure 2(a): "Comparison of shortest-path trees and
// center-based tree" — the ratio of the optimal core-based tree's maximum
// delay to the shortest-path trees' maximum delay, in 50-node networks.
//
// Paper setup (§1.3): "For each node degree, we tried 500 different 50-node
// graphs with 10-member groups chosen randomly. It can be seen that the
// maximum delays of core-based trees with optimal core placement are up to
// 1.4 times of the shortest-path trees."
//
// Usage: fig2a_delay_ratio [--trials N] [--members M] [--nodes V]
#include <cstdio>

#include "bench_util.hpp"

using namespace pimlib;

int main(int argc, char** argv) {
    const int trials = bench::flag_value(argc, argv, "--trials", 500);
    const int members = bench::flag_value(argc, argv, "--members", 10);
    const int nodes = bench::flag_value(argc, argv, "--nodes", 50);

    std::printf("# Figure 2(a): max delay of optimal core-based tree vs SPT\n");
    std::printf("# %d-node random graphs, %d-member groups, %d trials per degree\n",
                nodes, members, trials);
    std::printf("%-12s %-12s %-10s %-10s %-10s %-12s %-12s %-12s\n", "node_degree",
                "ratio_mean", "ratio_sd", "ratio_min", "ratio_max", "spt_delay",
                "cbt_delay", "mean_ratio");

    bench::Report report("fig2a_delay_ratio");
    for (int degree = 3; degree <= 8; ++degree) {
        std::vector<double> ratios;
        std::vector<double> mean_ratios;
        std::vector<double> spt_delays;
        std::vector<double> cbt_delays;
        ratios.reserve(static_cast<std::size_t>(trials));
        std::mt19937 rng(0xF16A0000u + static_cast<std::uint32_t>(degree));
        for (int trial = 0; trial < trials; ++trial) {
            graph::Graph g = graph::random_connected_graph(
                {.nodes = nodes, .average_degree = static_cast<double>(degree)}, rng);
            graph::AllPairs ap(g);
            const auto group = graph::sample_nodes(nodes, members, rng);
            // Same delay_ratio_via_root implementation the live TreeMonitor
            // uses — offline and online stretch cannot drift.
            const int core = graph::optimal_core(ap, group);
            const auto dr = graph::center_tree_delay_ratio(ap, group, core);
            if (dr.spt_max <= 0) continue;
            ratios.push_back(dr.max_ratio);
            spt_delays.push_back(dr.spt_max);
            cbt_delays.push_back(dr.tree_max);
            // The companion mean-delay criterion of reference [12], with the
            // core optimized for mean delay.
            const int mean_core = graph::optimal_core_mean(ap, group);
            const auto drm = graph::center_tree_delay_ratio(ap, group, mean_core);
            if (drm.spt_mean > 0) mean_ratios.push_back(drm.mean_ratio);
        }
        const auto summary = bench::summarize(ratios);
        std::printf("%-12d %-12.4f %-10.4f %-10.4f %-10.4f %-12.2f %-12.2f %-12.4f\n",
                    degree, summary.mean, summary.stddev, summary.min, summary.max,
                    bench::summarize(spt_delays).mean, bench::summarize(cbt_delays).mean,
                    bench::summarize(mean_ratios).mean);
        report.metric("ratio_mean_deg" + std::to_string(degree), summary.mean,
                      "ratio", "info");
        report.metric("ratio_max_deg" + std::to_string(degree), summary.max,
                      "ratio", "info");
    }
    std::printf("# Expected shape: mean ratio within (1.0, 1.4] at every degree —\n");
    std::printf("# \"maximum delays of core-based trees with optimal core placement\n");
    std::printf("# are up to 1.4 times of the shortest-path trees\" — and no data\n");
    std::printf("# point below 1 (the paper's footnote 2).\n");
    report.emit();
    return 0;
}
