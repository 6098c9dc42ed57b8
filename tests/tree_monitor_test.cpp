// TreeMonitor parity tests: the online stretch the monitor measures on a
// live MRIB must equal what the fig2a bench computes on the matching
// abstract graph — both sides go through graph::delay_ratio_via_root, so
// this pins down that the walker reconstructs the same tree the offline
// study assumes. Pentagon topology with the RP at E and spt-policy never,
// chosen so the metric-routed join paths and the delay-shortest paths
// coincide (the parity precondition fig2a's center-tree model relies on).
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "graph/shortest_path.hpp"
#include "graph/tree_metrics.hpp"
#include "scenario/stacks.hpp"
#include "telemetry/tree_monitor.hpp"
#include "test_util.hpp"

namespace pimlib::test {
namespace {

// Pentagon with RP = E. Shared-tree delays to the root: A-E direct (1 ms),
// D-C-A-E (3 ms; the D-C-B-E alternative costs metric 4 and delay 22 ms,
// losing under both regimes). Worst member-pair delay via the root is
// 1 + 3 = 4 ms against the A-C-D direct baseline of 2 ms: stretch 2.0.
struct ParityWorld {
    topo::Network net;
    topo::Router* a = nullptr;
    topo::Router* b = nullptr;
    topo::Router* c = nullptr;
    topo::Router* d = nullptr;
    topo::Router* e = nullptr; // RP
    topo::Host* receiver = nullptr;
    topo::Host* source = nullptr;
    topo::Host* viewer = nullptr;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<scenario::PimSmStack> stack;
    std::unique_ptr<telemetry::TreeMonitor> monitor;

    ParityWorld() {
        a = &net.add_router("A");
        b = &net.add_router("B");
        c = &net.add_router("C");
        d = &net.add_router("D");
        e = &net.add_router("E");
        net.add_link(*a, *e, 1 * sim::kMillisecond, 1);
        net.add_link(*e, *b, 20 * sim::kMillisecond, 1);
        net.add_link(*a, *c, 1 * sim::kMillisecond, 1);
        net.add_link(*b, *c, 1 * sim::kMillisecond, 2);
        net.add_link(*c, *d, 1 * sim::kMillisecond, 1);
        auto& lan0 = net.add_lan({a});
        auto& lan1 = net.add_lan({b});
        auto& lan2 = net.add_lan({d});
        receiver = &net.add_host("receiver", lan0);
        source = &net.add_host("source", lan1);
        viewer = &net.add_host("viewer", lan2);
        routing = std::make_unique<unicast::OracleRouting>(net);

        stack = std::make_unique<scenario::PimSmStack>(net, fast_config());
        stack->set_rp(kGroup, {e->router_id()});
        stack->set_spt_policy(pim::SptPolicy::never());

        monitor = std::make_unique<telemetry::TreeMonitor>(net, stack->caches(),
                                                           100 * sim::kMillisecond);
        monitor->start();
    }

    void run() {
        net.run_for(120 * sim::kMillisecond);
        stack->host_agent(*receiver).join(kGroup);
        net.run_for(10 * sim::kMillisecond);
        stack->host_agent(*viewer).join(kGroup);
        source->send_stream(kGroup, 6, 10 * sim::kMillisecond,
                            100 * sim::kMillisecond);
        net.run_for(600 * sim::kMillisecond);
    }

    /// The same pentagon as an abstract graph, edge weights in ms — the
    /// form the fig2a bench consumes. Node order A=0 B=1 C=2 D=3 E=4.
    static graph::Graph abstract_pentagon() {
        graph::Graph g(5);
        g.add_edge(0, 4, 1);
        g.add_edge(4, 1, 20);
        g.add_edge(0, 2, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        return g;
    }
};

TEST(TreeMonitor, StretchMatchesFig2aOnPentagon) {
    ParityWorld world;
    world.run();

    ASSERT_GT(world.monitor->passes(), 0u);
    const std::optional<graph::DelayRatio> online =
        world.monitor->group_stretch(kGroup);
    ASSERT_TRUE(online.has_value());

    const graph::Graph g = ParityWorld::abstract_pentagon();
    const graph::AllPairs ap(g);
    const graph::DelayRatio offline =
        graph::center_tree_delay_ratio(ap, {0, 3}, 4);

    // Ratios are unit-free, so µs (monitor) vs. ms (bench) cancels out.
    EXPECT_NEAR(online->max_ratio, offline.max_ratio, 1e-9);
    EXPECT_NEAR(online->mean_ratio, offline.mean_ratio, 1e-9);
    EXPECT_NEAR(offline.max_ratio, 2.0, 1e-9);
    EXPECT_NEAR(world.monitor->last_pass().stretch_max, 2.0, 1e-9);
}

TEST(TreeMonitor, PassStatsCoverTheSharedTree) {
    ParityWorld world;
    world.run();

    const telemetry::TreeMonitor::PassStats& pass = world.monitor->last_pass();
    EXPECT_EQ(pass.groups, 1u);
    EXPECT_EQ(pass.member_ports, 2u); // receiver + viewer
    EXPECT_GT(pass.wildcard_entries, 0u);
    EXPECT_GT(pass.walks, 0u);
    EXPECT_EQ(pass.broken_walks, 0u);
    // A-E and D-C-A-E: the deeper leaf is 3 router hops from the root.
    EXPECT_EQ(pass.depth_max, 3);
}

TEST(TreeMonitor, MeasureGroupSnapshot) {
    ParityWorld world;
    world.run();

    const auto health = world.monitor->measure_group(kGroup);
    EXPECT_EQ(health.member_ports, 2u);
    EXPECT_NEAR(health.stretch, 2.0, 1e-9);
    const std::string json = health.to_json();
    EXPECT_NE(json.find("\"stretch\""), std::string::npos);
    EXPECT_NE(json.find("\"member_ports\":2"), std::string::npos);
}

} // namespace
} // namespace pimlib::test
