// Broad coverage batch: behaviors not exercised elsewhere — querier
// re-election, DV poisoned reverse, LS LSA aging, CBT resilience corners,
// mean-delay tree metrics, and message-sequence fidelity via the tracer.
#include <gtest/gtest.h>

#include "graph/center_tree.hpp"
#include "graph/random_graph.hpp"
#include "test_util.hpp"
#include "topo/segment.hpp"
#include "trace/tracer.hpp"
#include "unicast/distance_vector.hpp"
#include "unicast/link_state.hpp"

namespace pimlib::test {
namespace {

TEST(CenterTreeMeanDelay, MatchesHandComputation) {
    // Path 0 -1- 1 -2- 2; members {0, 2}.
    graph::Graph g(3);
    g.add_edge(0, 1, 1);
    g.add_edge(1, 2, 2);
    graph::AllPairs ap(g);
    const std::vector<int> members{0, 2};
    // Via core 1: every ordered pair costs d(u,1)+d(1,v); pairs (0,2) and
    // (2,0) both cost 3 -> mean 3. spt mean = 3.
    EXPECT_DOUBLE_EQ(graph::core_tree_mean_delay(ap, members, 1), 3.0);
    EXPECT_DOUBLE_EQ(graph::spt_mean_delay(ap, members), 3.0);
    // Via core 0: pairs cost d(u,0)+d(0,v) = 3 each (one leg is zero).
    EXPECT_DOUBLE_EQ(graph::core_tree_mean_delay(ap, members, 0), 3.0);
}

TEST(CenterTreeMeanDelay, OptimalMeanCoreNeverWorseThanArbitrary) {
    std::mt19937 rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        graph::Graph g = graph::random_connected_graph({.nodes = 30, .average_degree = 4},
                                                       rng);
        graph::AllPairs ap(g);
        const auto members = graph::sample_nodes(30, 8, rng);
        const int best = graph::optimal_core_mean(ap, members);
        const double best_delay = graph::core_tree_mean_delay(ap, members, best);
        for (int c = 0; c < 30; c += 7) {
            EXPECT_LE(best_delay, graph::core_tree_mean_delay(ap, members, c) + 1e-9);
        }
        // A shared tree's mean can never beat direct shortest paths.
        EXPECT_GE(best_delay, graph::spt_mean_delay(ap, members) - 1e-9);
    }
}

TEST(IgmpQuerier, ReelectionAfterQuerierDeath) {
    topo::Network net;
    auto& low = net.add_router("low");   // .1 on the LAN: initial querier
    auto& high = net.add_router("high"); // .2: silenced
    auto& lan = net.add_lan({&low, &high});
    auto& host = net.add_host("h", lan);
    igmp::RouterConfig rcfg;
    rcfg.query_interval = 100 * sim::kMillisecond;
    rcfg.membership_timeout = 250 * sim::kMillisecond;
    rcfg.other_querier_timeout = 250 * sim::kMillisecond;
    igmp::RouterAgent a_low(low, rcfg);
    igmp::RouterAgent a_high(high, rcfg);
    igmp::HostConfig hcfg;
    hcfg.query_response_max = 10 * sim::kMillisecond;
    igmp::HostAgent hagent(host, hcfg);
    hagent.join(kGroup);
    net.run_for(500 * sim::kMillisecond);
    ASSERT_TRUE(a_high.has_members(high.ifindex_on(lan).value(), kGroup));

    // Kill the querier. After the other-querier timeout, `high` resumes
    // querying and keeps the membership alive.
    low.set_interface_up(low.ifindex_on(lan).value(), false);
    net.run_for(2 * sim::kSecond);
    EXPECT_TRUE(a_high.has_members(high.ifindex_on(lan).value(), kGroup));
}

TEST(DistanceVector, PoisonedReversePreventsTwoNodeLoop) {
    // r0 — r1 — r2 (r2's LAN only reachable via r1). Fail r1—r2: r0 must
    // not re-advertise the dead route back to r1 (poisoned reverse), so the
    // route dies within timeout+gc rather than counting to infinity.
    topo::Network net;
    auto& r0 = net.add_router("r0");
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    net.add_link(r0, r1);
    net.add_link(r1, r2);
    unicast::DvConfig cfg;
    cfg.update_interval = 100 * sim::kMillisecond;
    cfg.route_timeout = 300 * sim::kMillisecond;
    cfg.gc_delay = 200 * sim::kMillisecond;
    cfg.infinity = 64;
    unicast::DvRoutingDomain domain(net, cfg);
    net.run_for(1 * sim::kSecond);
    ASSERT_TRUE(r0.route_to(r2.router_id()).has_value());

    net.find_link(r1, r2)->set_up(false);
    // Within a handful of update intervals both routers must have dropped
    // the route; a count-to-infinity pathology would keep it alive with
    // climbing metrics for ~infinity × interval.
    net.run_for(1500 * sim::kMillisecond);
    EXPECT_FALSE(r0.route_to(r2.router_id()).has_value());
    EXPECT_FALSE(r1.route_to(r2.router_id()).has_value());
}

TEST(LinkState, DeadRouterLsaAgesOut) {
    topo::Network net;
    auto& r0 = net.add_router("r0");
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    net.add_link(r0, r1);
    net.add_link(r1, r2);
    unicast::LsConfig cfg;
    cfg.hello_interval = 50 * sim::kMillisecond;
    cfg.dead_interval = 150 * sim::kMillisecond;
    cfg.lsa_refresh = 200 * sim::kMillisecond;
    cfg.lsa_max_age = 600 * sim::kMillisecond;
    cfg.spf_delay = 5 * sim::kMillisecond;
    unicast::LsRoutingDomain domain(net, cfg);
    net.run_for(1 * sim::kSecond);
    EXPECT_EQ(domain.agent_for(r0).lsdb_size(), 3u);

    // r2 dies entirely: its LSA must eventually leave r0's database.
    for (int i = 0; i < r2.interface_count(); ++i) r2.set_interface_up(i, false);
    net.run_for(2 * sim::kSecond);
    EXPECT_EQ(domain.agent_for(r0).lsdb_size(), 2u);
    EXPECT_FALSE(r0.route_to(r2.router_id()).has_value());
}

TEST(CbtCorner, JoinRetriesUntilCoreReachable) {
    // The member joins while the path to the core is down; the periodic
    // retry succeeds once the link heals.
    topo::Network net;
    auto& a = net.add_router("A");
    auto& core = net.add_router("CORE");
    auto& link = net.add_link(a, core);
    auto& lan = net.add_lan({&a});
    auto& member = net.add_host("m", lan);
    auto& src_lan = net.add_lan({&core});
    auto& source = net.add_host("s", src_lan);
    unicast::OracleRouting routing(net);
    scenario::CbtStack stack(net, fast_config());
    stack.set_rp(kGroup, {core.router_id()});
    net.run_for(100 * sim::kMillisecond);

    link.set_up(false);
    routing.recompute();
    stack.host_agent(member).join(kGroup);
    net.run_for(500 * sim::kMillisecond);
    EXPECT_FALSE(stack.cbt_at(a).on_tree(kGroup));

    link.set_up(true);
    routing.recompute();
    net.run_for(1 * sim::kSecond);
    EXPECT_TRUE(stack.cbt_at(a).on_tree(kGroup));
    source.send_data(kGroup);
    net.run_for(200 * sim::kMillisecond);
    EXPECT_EQ(member.received_count(kGroup), 1u);
}

TEST(CbtCorner, MultipleGroupsDistinctCores) {
    topo::Network net;
    auto& a = net.add_router("A");
    auto& b = net.add_router("B");
    net.add_link(a, b);
    auto& lan = net.add_lan({&a});
    auto& member = net.add_host("m", lan);
    unicast::OracleRouting routing(net);
    scenario::CbtStack stack(net, fast_config());
    const net::GroupAddress g2{net::Ipv4Address(224, 2, 2, 2)};
    stack.set_rp(kGroup, {a.router_id()});
    stack.set_rp(g2, {b.router_id()});
    net.run_for(100 * sim::kMillisecond);
    stack.host_agent(member).join(kGroup);
    stack.host_agent(member).join(g2);
    net.run_for(500 * sim::kMillisecond);
    // Group 1's core is A itself (on-tree trivially); group 2's tree runs
    // A→B.
    EXPECT_TRUE(stack.cbt_at(a).on_tree(kGroup));
    EXPECT_TRUE(stack.cbt_at(a).on_tree(g2));
    const auto* state = stack.cbt_at(a).tree_state(g2);
    ASSERT_NE(state, nullptr);
    EXPECT_GE(state->parent_ifindex, 0);
}

// Message-sequence fidelity for the Fig. 3 rendezvous, asserted on the
// wire via the tracer: Report before the (*,G) join, join before the
// register, register before the RP's (S,G) join toward the source.
TEST(SequenceFidelity, Fig3WireOrder) {
    Fig3Topology topo;
    trace::PacketTracer tracer(topo.net);
    tracer.set_group_filter(kGroup);
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.c->router_id()});
    stack.set_spt_policy(pim::SptPolicy::never());
    topo.net.run_for(100 * sim::kMillisecond);

    stack.host_agent(*topo.receiver).join(kGroup);
    topo.net.run_for(200 * sim::kMillisecond);
    topo.source->send_data(kGroup);
    topo.net.run_for(300 * sim::kMillisecond);

    auto first_index = [&](const std::string& needle) -> std::ptrdiff_t {
        const auto& records = tracer.records();
        for (std::size_t i = 0; i < records.size(); ++i) {
            if (trace::describe_packet(records[i].packet).find(needle) !=
                std::string::npos) {
                return static_cast<std::ptrdiff_t>(i);
            }
        }
        return -1;
    };
    const auto report = first_index("IGMP Report");
    const auto wc_join = first_index("(WC|RP)");
    const auto reg = first_index("PIM Register");
    const auto sg_join = first_index("(-)"); // flagless (S,G) join entry
    ASSERT_GE(report, 0);
    ASSERT_GE(wc_join, 0);
    ASSERT_GE(reg, 0);
    ASSERT_GE(sg_join, 0);
    EXPECT_LT(report, wc_join);
    EXPECT_LT(wc_join, reg);
    EXPECT_LT(reg, sg_join);
}

TEST(ForwardingEntryDescribe, ShowsFlagsAndPins) {
    auto wc = mcast::ForwardingEntry::make_wc(net::Ipv4Address(192, 168, 0, 3), kGroup);
    wc.set_iif(2);
    wc.pin_oif(0);
    const std::string s = wc.describe();
    EXPECT_NE(s.find("(*, 224.1.1.1)"), std::string::npos);
    EXPECT_NE(s.find("RP=192.168.0.3"), std::string::npos);
    EXPECT_NE(s.find("iif=2"), std::string::npos);
    EXPECT_NE(s.find("0*"), std::string::npos); // pinned marker
    EXPECT_NE(s.find("RPbit"), std::string::npos);

    auto sg = mcast::ForwardingEntry::make_sg(net::Ipv4Address(10, 0, 1, 3), kGroup);
    sg.set_spt_bit(true);
    EXPECT_NE(sg.describe().find("(10.0.1.3, 224.1.1.1)"), std::string::npos);
    EXPECT_NE(sg.describe().find("SPTbit"), std::string::npos);
}

TEST(PimOverLinkStateProperty, RandomTopologyDelivery) {
    std::mt19937 rng(5150);
    graph::Graph g = graph::random_connected_graph({.nodes = 8, .average_degree = 3}, rng);
    topo::Network net;
    std::vector<topo::Router*> routers;
    for (int i = 0; i < 8; ++i) routers.push_back(&net.add_router("r" + std::to_string(i)));
    for (int u = 0; u < 8; ++u) {
        for (const auto& e : g.neighbors(u)) {
            if (e.to > u) net.add_link(*routers[u], *routers[e.to]);
        }
    }
    auto& lan_s = net.add_lan({routers[0]});
    auto& source = net.add_host("s", lan_s);
    auto& lan_m = net.add_lan({routers[5]});
    auto& member = net.add_host("m", lan_m);

    unicast::LsConfig ls;
    ls.hello_interval = 50 * sim::kMillisecond;
    ls.dead_interval = 150 * sim::kMillisecond;
    ls.lsa_refresh = 500 * sim::kMillisecond;
    ls.spf_delay = 5 * sim::kMillisecond;
    unicast::LsRoutingDomain domain(net, ls);
    scenario::PimSmStack stack(net, fast_config());
    stack.set_rp(kGroup, {routers[3]->router_id()});
    net.run_for(1 * sim::kSecond);

    stack.host_agent(member).join(kGroup);
    net.run_for(400 * sim::kMillisecond);
    source.send_data(kGroup); // warm-up: register path + SPT switchover
    net.run_for(500 * sim::kMillisecond);
    member.clear_received();
    source.send_stream(kGroup, 5, 50 * sim::kMillisecond);
    net.run_for(1 * sim::kSecond);
    EXPECT_EQ(member.received_count(kGroup), 5u);
    EXPECT_EQ(member.duplicate_count(), 0u);
}

} // namespace
} // namespace pimlib::test
