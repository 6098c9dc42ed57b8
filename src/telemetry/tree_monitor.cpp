#include "telemetry/tree_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pimlib::telemetry {

namespace {

// Stretch is a ratio ≥ 1; Wall's bound puts the optimal center tree at 2×,
// so 1.0 · 1.1^i buckets cover well past any healthy tree and the tail
// flags the pathological ones.
Buckets stretch_buckets() { return Buckets::exponential(1.0, 1.1, 32); }
// Depth and fanout are small integers; doubling buckets from 1 keep exact
// counts for the common values.
Buckets hop_buckets() { return Buckets::exponential(1.0, 2.0, 10); }

constexpr int kUpstreamNone = -1;   // no router upstream: this is the root
constexpr int kUpstreamBroken = -2; // ambiguous or unresolvable upstream

/// Cache entries visited per tick, across all routers.
constexpr std::size_t kEntryBudget = 4096;
/// Leaf→root stretch walks sampled per pass (each costs O(tree depth));
/// entries beyond the budget still contribute fanout/concentration.
constexpr std::size_t kWalkBudget = 512;
/// Safety cap on one upward walk (cycles in corrupted state).
constexpr int kMaxWalkHops = 64;

} // namespace

TreeMonitor::TreeMonitor(topo::Network& network, mcast::CacheTable caches,
                         sim::Time interval)
    : network_(&network), interval_(interval),
      timer_(network.simulator(), [this] { tick(); }), walk_(caches) {
    Registry& reg = network_->telemetry().registry();
    fanout_hist_ = &reg.histogram(
        "pimlib_tree_oif_fanout", hop_buckets(), {},
        "Live outgoing interfaces per forwarding entry, sampled per monitor pass");
    depth_hist_ = &reg.histogram(
        "pimlib_tree_depth_hops", hop_buckets(), {},
        "Router hops from a member leaf to its tree root");
    stretch_hist_ = &reg.histogram(
        "pimlib_tree_stretch_ratio", stretch_buckets(), {},
        "Delay stretch of distribution trees vs. unicast shortest paths "
        "(Fig. 2(a) live)");
    entries_scanned_ = &reg.counter("pimlib_tree_entries_scanned_total", {},
                                    "Forwarding entries visited by the tree monitor");
    passes_counter_ = &reg.counter("pimlib_tree_passes_total", {},
                                   "Completed tree-monitor walk passes");
    broken_walks_counter_ =
        &reg.counter("pimlib_tree_broken_walks_total", {},
                     "Leaf-to-root walks that hit missing or ambiguous upstream state");
    // The RP register/decap load is read from the hub's event counters (the
    // RP emits one event per register received/decapsulated).
    register_rx_ = &reg.counter(
        "pimlib_control_events_total",
        {{"type", "register-received"}, {"protocol", "pim"}},
        "Protocol state transitions, by event type and protocol");
    register_tx_ = &reg.counter(
        "pimlib_control_events_total",
        {{"type", "register-sent"}, {"protocol", "pim"}},
        "Protocol state transitions, by event type and protocol");
    groups_gauge_ = &reg.gauge("pimlib_tree_groups_count", {},
                               "Groups with forwarding state at last monitor pass");
    entries_wc_gauge_ =
        &reg.gauge("pimlib_tree_entries_count", {{"kind", "wildcard"}},
                   "Forwarding entries seen at last monitor pass, by kind");
    entries_sg_gauge_ =
        &reg.gauge("pimlib_tree_entries_count", {{"kind", "source"}},
                   "Forwarding entries seen at last monitor pass, by kind");
    member_ports_gauge_ =
        &reg.gauge("pimlib_tree_member_ports_count", {},
                   "Pinned (IGMP-held) live oifs at last monitor pass");
    stretch_max_gauge_ =
        &reg.gauge("pimlib_tree_stretch_ratio_max", {},
                   "Worst per-group delay stretch at last monitor pass");
    depth_max_gauge_ = &reg.gauge("pimlib_tree_depth_hops_max", {},
                                  "Deepest leaf-to-root walk at last monitor pass");
    link_flows_max_gauge_ = &reg.gauge(
        "pimlib_tree_link_flows_max", {},
        "Traffic concentration: max tree arms on one segment (Fig. 2(b) live)");
    links_used_gauge_ = &reg.gauge("pimlib_tree_links_used_count", {},
                                   "Segments carrying at least one tree arm");
    const char* rate_help =
        "RP register/decapsulation load over the last monitor window";
    register_rx_rate_gauge_ = &reg.gauge("pimlib_tree_register_per_second",
                                         {{"direction", "received"}}, rate_help);
    register_tx_rate_gauge_ = &reg.gauge("pimlib_tree_register_per_second",
                                         {{"direction", "sent"}}, rate_help);
    rate_window_start_ = network_->simulator().now();
    register_rx_base_ = register_rx_->lifetime();
    register_tx_base_ = register_tx_->lifetime();
    topo_token_ = network_->add_topology_observer([this] { graph_dirty_ = true; });
}

TreeMonitor::~TreeMonitor() { network_->remove_topology_observer(topo_token_); }

void TreeMonitor::ensure_graph() {
    const auto& routers = network_->routers();
    if (router_index_by_node_.empty() && !routers.empty()) {
        // Node-id / address indexes: topology membership is fixed for the
        // life of a network, only link state changes.
        int max_id = 0;
        for (const auto& r : routers) max_id = std::max(max_id, r->id());
        router_index_by_node_.assign(static_cast<std::size_t>(max_id) + 1, -1);
        for (std::size_t i = 0; i < routers.size(); ++i) {
            router_index_by_node_[static_cast<std::size_t>(routers[i]->id())] =
                static_cast<int>(i);
            router_by_address_[routers[i]->router_id()] = static_cast<int>(i);
            for (const auto& itf : routers[i]->interfaces()) {
                router_by_address_[itf.address] = static_cast<int>(i);
            }
        }
    }
    if (!graph_dirty_) return;
    graph_dirty_ = false;
    delay_trees_.clear();
    delay_graph_ = std::make_unique<graph::Graph>(static_cast<int>(routers.size()));
    for (const auto& seg : network_->segments()) {
        if (!seg->is_up()) continue;
        std::vector<int> attached;
        for (const auto& at : seg->attachments()) {
            const int idx = router_index(at.node->id());
            if (idx >= 0) attached.push_back(idx);
        }
        const auto weight = static_cast<double>(seg->delay());
        for (std::size_t i = 0; i < attached.size(); ++i) {
            for (std::size_t j = i + 1; j < attached.size(); ++j) {
                if (!delay_graph_->has_edge(attached[i], attached[j])) {
                    delay_graph_->add_edge(attached[i], attached[j], weight);
                }
            }
        }
    }
}

const graph::ShortestPathTree& TreeMonitor::delay_tree(int router_idx) {
    ensure_graph();
    auto it = delay_trees_.find(router_idx);
    if (it == delay_trees_.end()) {
        it = delay_trees_.emplace(router_idx, graph::dijkstra(*delay_graph_, router_idx))
                 .first;
    }
    return it->second;
}

int TreeMonitor::router_index(int node_id) const {
    if (node_id < 0 ||
        static_cast<std::size_t>(node_id) >= router_index_by_node_.size()) {
        return -1;
    }
    return router_index_by_node_[static_cast<std::size_t>(node_id)];
}

int TreeMonitor::upstream_router(int router_idx,
                                 const mcast::ForwardingEntry& entry) const {
    const topo::Router& r = *network_->routers()[static_cast<std::size_t>(router_idx)];
    const int iif = entry.iif();
    if (iif < 0 || iif >= r.interface_count()) return kUpstreamBroken;
    const topo::Segment* seg = r.interface(iif).segment;
    if (seg == nullptr) return kUpstreamBroken;
    if (const auto up = entry.upstream_neighbor()) {
        const auto it = router_by_address_.find(*up);
        return it == router_by_address_.end() ? kUpstreamBroken : it->second;
    }
    // No named upstream (directly-connected source or RP subnet): the iif
    // segment carries at most one other router.
    int found = kUpstreamNone;
    for (const auto& at : seg->attachments()) {
        if (at.node->id() == r.id()) continue;
        const int idx = router_index(at.node->id());
        if (idx < 0) continue; // a host
        if (found != kUpstreamNone) return kUpstreamBroken;
        found = idx;
    }
    return found;
}

TreeMonitor::Walk TreeMonitor::walk_to_root(int router_idx,
                                            const mcast::ForwardingEntry& leaf) {
    Walk w;
    const net::GroupAddress group = leaf.group();
    const bool wildcard = leaf.wildcard();
    const net::Ipv4Address source = leaf.source_or_rp();
    int cur = router_idx;
    const mcast::ForwardingEntry* e = &leaf;
    for (int hops = 0; hops <= kMaxWalkHops; ++hops) {
        if (e->iif() < 0) { // the RP's own (*,G): no upstream interface
            w.ok = true;
            w.root = cur;
            return w;
        }
        const int up = upstream_router(cur, *e);
        if (up == kUpstreamNone) { // iif faces a host LAN: the source's DR
            w.ok = true;
            w.root = cur;
            return w;
        }
        if (up == kUpstreamBroken) return w;
        const topo::Router& r = *network_->routers()[static_cast<std::size_t>(cur)];
        w.delay_us += static_cast<double>(r.interface(e->iif()).segment->delay());
        w.depth += 1;
        cur = up;
        const mcast::ForwardingCache* cache =
            walk_.cache(network_->routers()[static_cast<std::size_t>(cur)]->id());
        if (cache == nullptr) return w;
        e = wildcard ? cache->find_wc(group) : cache->find_sg(source, group);
        // An (S,G) branch still being built falls back onto the shared tree
        // upstream of the divergence point (§3.5 first exception).
        if (e == nullptr && !wildcard) e = cache->find_wc(group);
        if (e == nullptr) return w;
    }
    return w; // hop cap exceeded: treat as broken (possible iif loop)
}

TreeMonitor::CollectResult TreeMonitor::collect(int router_idx,
                                                const mcast::ForwardingEntry& entry,
                                                sim::Time now, GroupAccum& ga,
                                                bool do_walk, bool record_flows) {
    CollectResult res;
    // Concentration rides along in the same oif scan (record_flows): one
    // flow arm per live oif on the oif's segment, each tree edge counted
    // once at its upstream side, member LANs at their leaf router.
    const topo::Router& r = *network_->routers()[static_cast<std::size_t>(router_idx)];
    for (const auto& [oif, state] : entry.oifs()) {
        if (!state.alive(now)) continue;
        ++res.live;
        if (state.pinned) ++res.pinned;
        if (record_flows && oif >= 0 && oif < r.interface_count()) {
            const topo::Segment* seg = r.interface(oif).segment;
            if (seg != nullptr) link_flows_.add(seg->id());
        }
    }
    if (entry.wildcard()) {
        ++ga.wildcard_entries;
    } else {
        ++ga.sg_entries;
    }
    ga.member_ports += res.pinned;
    ga.fanout_max = std::max(ga.fanout_max, res.live);
    if (res.pinned == 0) return res; // not a member leaf of this tree
    ++ga.leaves;
    if (!do_walk) return res;
    const Walk w = walk_to_root(router_idx, entry);
    if (!w.ok) {
        res.walk = 2;
        return res;
    }
    res.walk = 1;
    res.depth = w.depth;
    ga.depth_max = std::max(ga.depth_max, w.depth);
    if (entry.wildcard()) {
        if (ga.wc_root == -1 || ga.wc_root == w.root) {
            ga.wc_root = w.root;
            ga.wc_leaves.push_back(router_idx);
            ga.wc_root_delay.push_back(w.delay_us);
        } else {
            ga.wc_root = -2; // leaves disagree about the root: skip stretch
        }
    } else if (w.root != router_idx) {
        // Per-source tree: sender→member delay on the tree vs. the unicast
        // shortest path from the root (the source's DR) to this leaf.
        const double spt = delay_tree(w.root).distance[static_cast<std::size_t>(router_idx)];
        if (spt > 0.0 && std::isfinite(spt)) {
            ga.sg_ratio_max = std::max(ga.sg_ratio_max, w.delay_us / spt);
        }
    }
    return res;
}

void TreeMonitor::visit_entry(int router_idx, const mcast::ForwardingEntry& entry,
                              sim::Time now) {
    const bool walk_allowed =
        current_.walks + current_.broken_walks < kWalkBudget;
    GroupAccum& ga = accum_[entry.group()];
    const CollectResult res =
        collect(router_idx, entry, now, ga, walk_allowed, /*record_flows=*/true);

    ++current_.entries;
    entries_scanned_->inc();
    if (entry.wildcard()) {
        ++current_.wildcard_entries;
    } else {
        ++current_.sg_entries;
    }
    current_.member_ports += res.pinned;
    current_.fanout_max = std::max(current_.fanout_max, res.live);
    fanout_hist_->observe(static_cast<double>(res.live));

    if (res.pinned > 0 && !walk_allowed) ++current_.skipped_walks;
    if (res.walk == 1) {
        ++current_.walks;
        current_.depth_max = std::max(current_.depth_max, res.depth);
        depth_hist_->observe(static_cast<double>(res.depth));
    } else if (res.walk == 2) {
        ++current_.broken_walks;
        broken_walks_counter_->inc();
    }
}

graph::DelayRatio TreeMonitor::shared_tree_ratio(const GroupAccum& ga) {
    return graph::delay_ratio_via_root(
        ga.wc_root_delay, [&](std::size_t i, std::size_t j) {
            const double d =
                delay_tree(ga.wc_leaves[i])
                    .distance[static_cast<std::size_t>(ga.wc_leaves[j])];
            return std::isfinite(d) ? d : 0.0;
        });
}

void TreeMonitor::finish_pass(sim::Time now) {
    current_.pass = last_pass_.pass + 1;
    current_.completed_at = now;
    stretch_by_group_.clear();
    for (const auto& [group, ga] : accum_) {
        ++current_.groups;
        double group_stretch = 0.0;
        if (ga.wc_root >= 0 && ga.wc_leaves.size() >= 2) {
            const graph::DelayRatio dr = shared_tree_ratio(ga);
            stretch_by_group_[group] = dr;
            if (dr.max_ratio > 0.0) {
                stretch_hist_->observe(dr.max_ratio);
                group_stretch = dr.max_ratio;
            }
        }
        if (ga.sg_ratio_max > 0.0) {
            stretch_hist_->observe(ga.sg_ratio_max);
            group_stretch = std::max(group_stretch, ga.sg_ratio_max);
        }
        current_.stretch_max = std::max(current_.stretch_max, group_stretch);
    }
    current_.link_flows_max = link_flows_.max_flows();
    current_.links_used = link_flows_.links_used();
    last_pass_ = current_;
    passes_counter_->inc();
    publish(now);
    current_ = PassStats{};
    accum_.clear();
    link_flows_.clear();
}

void TreeMonitor::publish(sim::Time now) {
    groups_gauge_->set(static_cast<double>(last_pass_.groups));
    entries_wc_gauge_->set(static_cast<double>(last_pass_.wildcard_entries));
    entries_sg_gauge_->set(static_cast<double>(last_pass_.sg_entries));
    member_ports_gauge_->set(static_cast<double>(last_pass_.member_ports));
    stretch_max_gauge_->set(last_pass_.stretch_max);
    depth_max_gauge_->set(static_cast<double>(last_pass_.depth_max));
    link_flows_max_gauge_->set(static_cast<double>(last_pass_.link_flows_max));
    links_used_gauge_->set(static_cast<double>(last_pass_.links_used));

    // RP register/decap load, averaged over the window since the last pass.
    const double secs =
        static_cast<double>(now - rate_window_start_) / sim::kSecond;
    if (secs > 0.0) {
        const std::uint64_t rx = register_rx_->lifetime();
        const std::uint64_t tx = register_tx_->lifetime();
        register_rx_rate_gauge_->set(static_cast<double>(rx - register_rx_base_) / secs);
        register_tx_rate_gauge_->set(static_cast<double>(tx - register_tx_base_) / secs);
        register_rx_base_ = rx;
        register_tx_base_ = tx;
        rate_window_start_ = now;
    }
}

void TreeMonitor::tick() {
    ensure_graph();
    const sim::Time now = network_->simulator().now();
    const bool wrapped = walk_.step(
        kEntryBudget,
        [&](int node, const mcast::ForwardingCache&, const mcast::ForwardingEntry& e) {
            visit_entry(router_index(node), e, now);
        });
    if (wrapped) finish_pass(now);
}

std::optional<graph::DelayRatio>
TreeMonitor::group_stretch(net::GroupAddress group) const {
    const auto it = stretch_by_group_.find(group);
    if (it == stretch_by_group_.end()) return std::nullopt;
    return it->second;
}

TreeMonitor::GroupHealth TreeMonitor::measure_group(net::GroupAddress group) {
    ensure_graph();
    GroupHealth health;
    health.group = group;
    const sim::Time now = network_->simulator().now();
    GroupAccum ga;
    const auto& routers = network_->routers();
    for (std::size_t i = 0; i < routers.size(); ++i) {
        const mcast::ForwardingCache* cache = walk_.cache(routers[i]->id());
        if (cache == nullptr) continue;
        const int idx = static_cast<int>(i);
        if (const mcast::ForwardingEntry* wc = cache->find_wc(group)) {
            (void)collect(idx, *wc, now, ga, /*do_walk=*/true,
                          /*record_flows=*/false);
        }
        cache->for_each_sg_of(group, [&](const mcast::ForwardingEntry& e) {
            (void)collect(idx, e, now, ga, /*do_walk=*/true,
                          /*record_flows=*/false);
        });
    }
    health.wildcard_entries = ga.wildcard_entries;
    health.sg_entries = ga.sg_entries;
    health.member_ports = ga.member_ports;
    health.leaves = ga.leaves;
    health.depth_max = ga.depth_max;
    health.fanout_max = ga.fanout_max;
    health.stretch = ga.sg_ratio_max;
    if (ga.wc_root >= 0 && ga.wc_leaves.size() >= 2) {
        health.stretch = std::max(health.stretch, shared_tree_ratio(ga).max_ratio);
    }
    return health;
}

std::string TreeMonitor::GroupHealth::to_json() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"group\":\"%s\",\"stretch\":%.4f,\"fanout_max\":%zu,"
                  "\"member_ports\":%zu,\"leaves\":%zu,\"depth_max\":%d,"
                  "\"wildcard_entries\":%zu,\"sg_entries\":%zu}",
                  group.to_string().c_str(), stretch, fanout_max, member_ports,
                  leaves, depth_max, wildcard_entries, sg_entries);
    return buf;
}

} // namespace pimlib::telemetry
