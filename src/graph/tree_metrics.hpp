// Tree-quality measurements shared by the Figure 2 benches and the live
// telemetry TreeMonitor, so offline and online numbers come from one
// implementation and cannot drift:
//
//   Figure 2(a)  delay ratio ("stretch"): member-pair delay via the tree
//                root vs. the direct shortest path — delay_ratio_via_root
//   Figure 2(b)  traffic concentration: "we measured the number of traffic
//                flows on each link of the network, then recorded the
//                maximum number within the network" (§1.3) — FlowLoad
//
// The fig2a/fig2b benches feed these from all-pairs oracles over abstract
// random graphs; the TreeMonitor feeds them from live MRIB walks (iif-chain
// delays, segment ids). A flow is one (group, sender) stream offline and
// one (tree, link) arm online.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "graph/center_tree.hpp"
#include "graph/shortest_path.hpp"

namespace pimlib::graph {

/// Direct shortest-path delay between members i and j — indexes into the
/// caller's member list, not graph node ids.
using PairDelayFn = std::function<double(std::size_t, std::size_t)>;

/// Max over ordered member pairs (u != v) of root_delay[u] + root_delay[v]
/// — the via-root (center-based tree) maximum delay. Equals the sum of the
/// two largest entries; 0 with fewer than two members.
[[nodiscard]] double max_via_root_delay(const std::vector<double>& root_delay);

/// Mean over ordered member pairs (u != v) of root_delay[u] + root_delay[v];
/// simplifies to 2 * sum / n. 0 with fewer than two members.
[[nodiscard]] double mean_via_root_delay(const std::vector<double>& root_delay);

/// Max over unordered member pairs of pair_delay(i, j) — the shortest-path
/// tree baseline of Fig. 2(a). 0 with fewer than two members.
[[nodiscard]] double max_pair_delay(std::size_t n, const PairDelayFn& pair_delay);

/// Mean over unordered member pairs of pair_delay(i, j).
[[nodiscard]] double mean_pair_delay(std::size_t n, const PairDelayFn& pair_delay);

/// One group's Fig. 2(a) row: member-pair delay via the tree root vs. the
/// direct shortest-path baseline, as maxima and means.
struct DelayRatio {
    double tree_max = 0.0;   // max via-root member-pair delay
    double spt_max = 0.0;    // max direct shortest-path member-pair delay
    double max_ratio = 0.0;  // tree_max / spt_max; 0 when spt_max == 0
    double tree_mean = 0.0;
    double spt_mean = 0.0;
    double mean_ratio = 0.0;
};

/// The one delay-stretch implementation. `root_delay[i]` is member i's
/// delay to the tree root measured on whatever tree the caller has — the
/// ideal center tree offline (fig2a), the actual MRIB iif chain online
/// (TreeMonitor) — and `pair_delay` is the direct shortest-path baseline.
[[nodiscard]] DelayRatio delay_ratio_via_root(const std::vector<double>& root_delay,
                                              const PairDelayFn& pair_delay);

/// Fig. 2(a) per-trial computation on an abstract graph: members' delays to
/// `core` and the pairwise baseline both come from the all-pairs oracle.
[[nodiscard]] DelayRatio center_tree_delay_ratio(const AllPairs& ap,
                                                 const std::vector<int>& members,
                                                 int core);

/// Dense per-link flow accumulator keyed by caller-assigned non-negative
/// edge ids — compact graph edge ids offline (bench EdgeFlowCounter),
/// topo::Segment ids online (TreeMonitor). Grows on demand; max_flows() is
/// the Figure 2(b) statistic.
class FlowLoad {
public:
    void add(int edge_id, std::size_t count = 1);
    [[nodiscard]] std::size_t max_flows() const;
    /// Links carrying at least one flow.
    [[nodiscard]] std::size_t links_used() const;
    [[nodiscard]] const std::vector<std::size_t>& per_edge() const { return flows_; }
    void clear() { flows_.clear(); }

private:
    std::vector<std::size_t> flows_;
};

/// Accumulates flow counts per undirected edge across many groups.
class LinkFlowCounter {
public:
    void add_flow_on(int u, int v) { ++flows_[{std::min(u, v), std::max(u, v)}]; }
    [[nodiscard]] std::size_t max_flows() const;
    [[nodiscard]] std::size_t total_flows() const;
    [[nodiscard]] std::size_t links_used() const { return flows_.size(); }

private:
    std::map<std::pair<int, int>, std::size_t> flows_;
};

/// Adds the flows of one group using per-sender shortest-path trees: sender
/// s's flow occupies every edge on the union of shortest paths s → member.
void add_spt_group_flows(const AllPairs& ap, const std::vector<int>& members,
                         const std::vector<int>& senders, LinkFlowCounter& counter);

/// Adds the flows of one group using a single shared center-based tree:
/// every sender's flow traverses the whole tree (each member must receive
/// it), plus the sender's path onto the tree when the sender sits off-tree.
void add_center_tree_group_flows(const AllPairs& ap, const std::vector<int>& members,
                                 const std::vector<int>& senders, const CenterTree& tree,
                                 LinkFlowCounter& counter);

} // namespace pimlib::graph
