// Live tree-health analytics: a periodic, sampling tree walker that turns
// the paper's offline tree-quality study (Figure 2, §1.3) into always-on
// runtime gauges. Each tick steps one mcast::MribWalk over every router's
// forwarding cache under a fixed entry budget, so a million-entry MRIB is
// covered across many ticks without ever paying a full scan in one event,
// and each completed pass publishes:
//
//   pimlib_tree_stretch_ratio        delay stretch vs. unicast shortest
//                                    path, through the same
//                                    graph::delay_ratio_via_root the fig2a
//                                    bench uses (no offline/online drift)
//   pimlib_tree_link_flows_max       per-link traffic concentration via the
//                                    same graph::FlowLoad as fig2b, keyed
//                                    by segment id
//   pimlib_tree_depth_hops           tree depth per leaf→root walk
//   pimlib_tree_oif_fanout           oif fan-out distribution per entry
//   pimlib_tree_register_per_second  RP register/decap load
//
// Lives above mcast/graph/unicast in the layering (pimlib_monitor library),
// below the protocol stacks: it reads caches from an mcast::CacheTable,
// typically scenario::StackBase::caches().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/shortest_path.hpp"
#include "graph/tree_metrics.hpp"
#include "mcast/forwarding_cache.hpp"
#include "net/ipv4.hpp"
#include "sim/simulator.hpp"
#include "topo/network.hpp"

namespace pimlib::telemetry {

class TreeMonitor {
public:
    /// Walks `caches` (indexed by node id; must outlive the monitor) every
    /// `interval` once started. Tree shape changes on join/prune
    /// timescales, so the default samples well below the protocol's own
    /// refresh period; scenarios wanting finer curves pass their own
    /// (`monitor trees 100ms`).
    TreeMonitor(topo::Network& network, mcast::CacheTable caches,
                sim::Time interval = 2 * sim::kSecond);
    ~TreeMonitor();

    TreeMonitor(const TreeMonitor&) = delete;
    TreeMonitor& operator=(const TreeMonitor&) = delete;

    /// Ticks every interval on the network's simulator.
    void start() { timer_.start(interval_); }
    void stop() { timer_.stop(); }

    /// Aggregates of the last *completed* pass.
    struct PassStats {
        std::uint64_t pass = 0;        // 1-based pass number
        sim::Time completed_at = 0;
        std::size_t entries = 0;
        std::size_t wildcard_entries = 0;
        std::size_t sg_entries = 0;
        std::size_t groups = 0;
        std::size_t member_ports = 0;  // pinned (IGMP-held) live oifs
        std::size_t walks = 0;         // leaf→root walks completed
        std::size_t broken_walks = 0;  // walks hitting missing upstream state
        std::size_t skipped_walks = 0; // leaves beyond the per-pass walk budget
        int depth_max = 0;
        std::size_t fanout_max = 0;
        double stretch_max = 0.0;      // max per-group stretch ratio
        std::size_t link_flows_max = 0;
        std::size_t links_used = 0;
    };
    [[nodiscard]] const PassStats& last_pass() const { return last_pass_; }
    [[nodiscard]] std::uint64_t passes() const { return last_pass_.pass; }

    /// The last completed pass's shared-tree delay ratio for `group` —
    /// computed by graph::delay_ratio_via_root over the group's leaf
    /// routers, exactly as bench/fig2a computes it over abstract graphs.
    /// nullopt when the group had fewer than two reachable leaves.
    [[nodiscard]] std::optional<graph::DelayRatio>
    group_stretch(net::GroupAddress group) const;

    /// One group's tree health, measured synchronously right now (a
    /// bounded, single-group walk across all routers — the diagnostic path
    /// used by fault::ConvergenceProbe bound-miss reports).
    struct GroupHealth {
        net::GroupAddress group;
        std::size_t wildcard_entries = 0;
        std::size_t sg_entries = 0;
        std::size_t member_ports = 0;
        std::size_t leaves = 0;
        int depth_max = 0;
        std::size_t fanout_max = 0;
        /// Max stretch ratio: shared-tree member pairs via the root and
        /// per-source leaf paths, whichever is worse. 0 when unmeasurable.
        double stretch = 0.0;
        [[nodiscard]] std::string to_json() const;
    };
    [[nodiscard]] GroupHealth measure_group(net::GroupAddress group);

private:
    struct Walk {
        bool ok = false;
        int root = -1;          // router index of the tree root
        double delay_us = 0.0;  // accumulated iif-segment delay
        int depth = 0;
    };
    /// Per-group accumulation over one pass.
    struct GroupAccum {
        std::size_t wildcard_entries = 0;
        std::size_t sg_entries = 0;
        std::size_t member_ports = 0;
        int wc_root = -1;            // shared-tree root; -2 = inconsistent
        std::vector<int> wc_leaves;  // router index per shared-tree leaf
        std::vector<double> wc_root_delay;
        double sg_ratio_max = 0.0;   // per-source leaf stretch
        std::size_t leaves = 0;      // entries with pinned (member) oifs
        int depth_max = 0;
        std::size_t fanout_max = 0;
    };

    /// What one entry contributed: live/pinned oif counts plus the walk
    /// outcome (0 = not walked, 1 = completed, 2 = broken).
    struct CollectResult {
        std::size_t live = 0;
        std::size_t pinned = 0;
        int walk = 0;
        int depth = 0;
    };

    /// One budgeted walk step; finishes the pass when the walk wraps.
    void tick();
    void ensure_graph();
    [[nodiscard]] const graph::ShortestPathTree& delay_tree(int router_idx);
    [[nodiscard]] int router_index(int node_id) const;
    [[nodiscard]] int upstream_router(int router_idx,
                                      const mcast::ForwardingEntry& entry) const;
    [[nodiscard]] Walk walk_to_root(int router_idx, const mcast::ForwardingEntry& leaf);
    /// Shared per-entry examination (pass walks and measure_group): updates
    /// `ga` (and, when record_flows, the pass's link concentration), never
    /// the pass-level stats or instruments.
    CollectResult collect(int router_idx, const mcast::ForwardingEntry& entry,
                          sim::Time now, GroupAccum& ga, bool do_walk,
                          bool record_flows);
    void visit_entry(int router_idx, const mcast::ForwardingEntry& entry,
                     sim::Time now);
    [[nodiscard]] graph::DelayRatio shared_tree_ratio(const GroupAccum& ga);
    void finish_pass(sim::Time now);
    void publish(sim::Time now);

    topo::Network* network_;
    sim::Time interval_;
    sim::PeriodicTimer timer_;
    mcast::MribWalk walk_;

    // Instruments resolved once at construction (hot-path discipline).
    Histogram* fanout_hist_ = nullptr;
    Histogram* depth_hist_ = nullptr;
    Histogram* stretch_hist_ = nullptr;
    Counter* entries_scanned_ = nullptr;
    Counter* passes_counter_ = nullptr;
    Counter* broken_walks_counter_ = nullptr;
    Counter* register_rx_ = nullptr;
    Counter* register_tx_ = nullptr;
    Gauge* groups_gauge_ = nullptr;
    Gauge* entries_wc_gauge_ = nullptr;
    Gauge* entries_sg_gauge_ = nullptr;
    Gauge* member_ports_gauge_ = nullptr;
    Gauge* stretch_max_gauge_ = nullptr;
    Gauge* depth_max_gauge_ = nullptr;
    Gauge* link_flows_max_gauge_ = nullptr;
    Gauge* links_used_gauge_ = nullptr;
    Gauge* register_rx_rate_gauge_ = nullptr;
    Gauge* register_tx_rate_gauge_ = nullptr;

    // Router-only delay graph (segment delay in µs), rebuilt lazily after
    // topology changes; Dijkstra trees cached per root.
    bool graph_dirty_ = true;
    std::unique_ptr<graph::Graph> delay_graph_;
    std::map<int, graph::ShortestPathTree> delay_trees_;
    std::vector<int> router_index_by_node_;           // node id → router idx
    std::map<net::Ipv4Address, int> router_by_address_;
    int topo_token_ = 0;

    // Current-pass accumulators, swapped into results at pass end.
    std::map<net::GroupAddress, GroupAccum> accum_;
    graph::FlowLoad link_flows_;
    PassStats current_;
    std::uint64_t register_rx_base_ = 0;
    std::uint64_t register_tx_base_ = 0;
    sim::Time rate_window_start_ = 0;

    // Last completed pass.
    PassStats last_pass_;
    std::map<net::GroupAddress, graph::DelayRatio> stretch_by_group_;
};

} // namespace pimlib::telemetry
