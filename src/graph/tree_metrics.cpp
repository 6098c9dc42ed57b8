#include "graph/tree_metrics.hpp"

#include <algorithm>
#include <limits>
#include <set>

namespace pimlib::graph {

double max_via_root_delay(const std::vector<double>& root_delay) {
    if (root_delay.size() < 2) return 0.0;
    // max over ordered pairs (u, v), u != v, of r_u + r_v equals top1 + top2
    // of the member→root delays (the same member cannot be both endpoints).
    double top1 = -1.0;
    double top2 = -1.0;
    for (double d : root_delay) {
        if (d > top1) {
            top2 = top1;
            top1 = d;
        } else if (d > top2) {
            top2 = d;
        }
    }
    return top1 + top2;
}

double mean_via_root_delay(const std::vector<double>& root_delay) {
    if (root_delay.size() < 2) return 0.0;
    // Each member's delay appears (n-1) times as sender and (n-1) times as
    // receiver over n(n-1) ordered pairs: mean = 2 * sum / n.
    double sum = 0.0;
    for (double d : root_delay) sum += d;
    return 2.0 * sum / static_cast<double>(root_delay.size());
}

double max_pair_delay(std::size_t n, const PairDelayFn& pair_delay) {
    double best = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            best = std::max(best, pair_delay(i, j));
        }
    }
    return best;
}

double mean_pair_delay(std::size_t n, const PairDelayFn& pair_delay) {
    if (n < 2) return 0.0;
    double sum = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            sum += pair_delay(i, j);
            ++pairs;
        }
    }
    return sum / static_cast<double>(pairs);
}

DelayRatio delay_ratio_via_root(const std::vector<double>& root_delay,
                                const PairDelayFn& pair_delay) {
    DelayRatio r;
    r.tree_max = max_via_root_delay(root_delay);
    r.tree_mean = mean_via_root_delay(root_delay);
    r.spt_max = max_pair_delay(root_delay.size(), pair_delay);
    r.spt_mean = mean_pair_delay(root_delay.size(), pair_delay);
    if (r.spt_max > 0.0) r.max_ratio = r.tree_max / r.spt_max;
    if (r.spt_mean > 0.0) r.mean_ratio = r.tree_mean / r.spt_mean;
    return r;
}

DelayRatio center_tree_delay_ratio(const AllPairs& ap, const std::vector<int>& members,
                                   int core) {
    std::vector<double> root_delay;
    root_delay.reserve(members.size());
    for (int m : members) root_delay.push_back(ap.distance(m, core));
    return delay_ratio_via_root(root_delay, [&](std::size_t i, std::size_t j) {
        return ap.distance(members[i], members[j]);
    });
}

void FlowLoad::add(int edge_id, std::size_t count) {
    if (edge_id < 0) return;
    const auto id = static_cast<std::size_t>(edge_id);
    if (flows_.size() <= id) flows_.resize(id + 1, 0);
    flows_[id] += count;
}

std::size_t FlowLoad::max_flows() const {
    std::size_t best = 0;
    for (std::size_t n : flows_) best = std::max(best, n);
    return best;
}

std::size_t FlowLoad::links_used() const {
    std::size_t used = 0;
    for (std::size_t n : flows_) used += n > 0 ? 1 : 0;
    return used;
}

std::size_t LinkFlowCounter::max_flows() const {
    std::size_t best = 0;
    for (const auto& [edge, n] : flows_) best = std::max(best, n);
    return best;
}

std::size_t LinkFlowCounter::total_flows() const {
    std::size_t total = 0;
    for (const auto& [edge, n] : flows_) total += n;
    return total;
}

void add_spt_group_flows(const AllPairs& ap, const std::vector<int>& members,
                         const std::vector<int>& senders, LinkFlowCounter& counter) {
    for (int s : senders) {
        const ShortestPathTree& spt = ap.tree(s);
        std::set<std::pair<int, int>> edges;
        for (int m : members) {
            if (m == s) continue;
            const std::vector<int> path = spt.path_to(m);
            for (std::size_t i = 1; i < path.size(); ++i) {
                edges.insert({std::min(path[i - 1], path[i]),
                              std::max(path[i - 1], path[i])});
            }
        }
        for (const auto& [u, v] : edges) counter.add_flow_on(u, v);
    }
}

void add_center_tree_group_flows(const AllPairs& ap,
                                 const std::vector<int>& /*members*/,
                                 const std::vector<int>& senders,
                                 const CenterTree& tree, LinkFlowCounter& counter) {
    // The set of nodes on the shared tree.
    std::set<int> tree_nodes;
    tree_nodes.insert(tree.core);
    for (const auto& [u, v] : tree.edges) {
        tree_nodes.insert(u);
        tree_nodes.insert(v);
    }
    for (int s : senders) {
        std::set<std::pair<int, int>> edges = tree.edges; // whole shared tree
        if (!tree_nodes.contains(s)) {
            // Off-tree sender: its packets travel to the nearest tree node
            // (the core in classic CBT; we use the shortest path to the
            // core, matching our protocol implementation).
            const std::vector<int> path = ap.tree(tree.core).path_to(s);
            for (std::size_t i = 1; i < path.size(); ++i) {
                edges.insert({std::min(path[i - 1], path[i]),
                              std::max(path[i - 1], path[i])});
            }
        }
        for (const auto& [u, v] : edges) counter.add_flow_on(u, v);
    }
}

} // namespace pimlib::graph
