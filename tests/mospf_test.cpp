// MOSPF baseline tests: membership-LSA codec and flooding, on-demand
// source-rooted SPT computation, pruned delivery, membership-change
// recomputation — and the overhead the paper critiques: every router learns
// every group (§1.1).
#include <gtest/gtest.h>

#include "mospf/mospf.hpp"
#include "test_util.hpp"
#include "topo/segment.hpp"
#include "unicast/link_state.hpp"

namespace pimlib::test {
namespace {

TEST(MospfMessages, LsaCodecRoundTrip) {
    mospf::MembershipLsa lsa;
    lsa.origin = net::Ipv4Address(192, 168, 0, 1);
    lsa.seq = 5;
    lsa.groups = {kGroup.address(), net::Ipv4Address(224, 2, 2, 2)};
    auto decoded = mospf::MembershipLsa::decode(lsa.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->origin, lsa.origin);
    EXPECT_EQ(decoded->seq, lsa.seq);
    EXPECT_EQ(decoded->groups, lsa.groups);
    const auto bytes = lsa.encode();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(mospf::MembershipLsa::decode({bytes.data(), len}).has_value());
    }
}

// source—LAN—R1—R2—{R3(member LAN), R4(empty LAN)}
struct MospfFixture : public ::testing::Test {
    topo::Network net;
    topo::Router* r1;
    topo::Router* r2;
    topo::Router* r3;
    topo::Router* r4;
    topo::Host* source;
    topo::Host* member;
    topo::Segment* empty_lan;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<scenario::MospfStack> stack;

    MospfFixture() {
        r1 = &net.add_router("R1");
        r2 = &net.add_router("R2");
        r3 = &net.add_router("R3");
        r4 = &net.add_router("R4");
        auto& src_lan = net.add_lan({r1});
        source = &net.add_host("source", src_lan);
        net.add_link(*r1, *r2);
        net.add_link(*r2, *r3);
        net.add_link(*r2, *r4);
        auto& member_lan = net.add_lan({r3});
        member = &net.add_host("member", member_lan);
        empty_lan = &net.add_lan({r4});
        routing = std::make_unique<unicast::OracleRouting>(net);
        stack = std::make_unique<scenario::MospfStack>(net, fast_config());
        net.run_for(100 * sim::kMillisecond);
    }
};

TEST_F(MospfFixture, MembershipFloodsToEveryRouter) {
    stack->host_agent(*member).join(kGroup);
    net.run_for(200 * sim::kMillisecond);
    // The paper's critique: "every router must receive and store membership
    // information for every group in the domain" — even off-tree R4.
    EXPECT_TRUE(stack->mospf_at(*r1).member_routers(kGroup).contains(r3->router_id()));
    EXPECT_TRUE(stack->mospf_at(*r4).member_routers(kGroup).contains(r3->router_id()));
}

TEST_F(MospfFixture, DataFollowsPrunedSptOnly) {
    stack->host_agent(*member).join(kGroup);
    net.run_for(200 * sim::kMillisecond);
    source->send_stream(kGroup, 3, 20 * sim::kMillisecond);
    net.run_for(300 * sim::kMillisecond);
    EXPECT_EQ(member->received_count(kGroup), 3u);
    EXPECT_EQ(member->duplicate_count(), 0u);
    // Dijkstra ran on demand when the first packet arrived.
    EXPECT_GE(stack->mospf_at(*r1).spf_runs(), 1u);
    // The empty branch never carries data (computed tree is pruned, unlike
    // DVMRP's broadcast).
    EXPECT_EQ(net.stats().data_packets_on(empty_lan->id()), 0u);
    const auto* link_r2_r4 = net.find_link(*r2, *r4);
    EXPECT_EQ(net.stats().data_packets_on(link_r2_r4->id()), 0u);
}

TEST_F(MospfFixture, MembershipChangeRecomputesTree) {
    stack->host_agent(*member).join(kGroup);
    net.run_for(200 * sim::kMillisecond);
    source->send_data(kGroup);
    net.run_for(200 * sim::kMillisecond);
    ASSERT_EQ(member->received_count(kGroup), 1u);

    // A member appears behind R4: LSAs flood, cached trees are invalidated,
    // and the next packet reaches both members.
    auto& late = net.add_host("late", *empty_lan);
    igmp::HostAgent agent(late, fast_config().host);
    agent.join(kGroup);
    net.run_for(300 * sim::kMillisecond);
    source->send_data(kGroup);
    net.run_for(200 * sim::kMillisecond);
    EXPECT_EQ(member->received_count(kGroup), 2u);
    EXPECT_EQ(late.received_count(kGroup), 1u);

    // And when it leaves, the branch is dropped again.
    agent.leave(kGroup);
    net.run_for(2 * sim::kSecond);
    net.stats().reset_data_counters();
    source->send_data(kGroup);
    net.run_for(200 * sim::kMillisecond);
    EXPECT_EQ(net.stats().data_packets_on(empty_lan->id()), 0u);
}

TEST_F(MospfFixture, NoMembersMeansNoForwarding) {
    source->send_stream(kGroup, 3, 20 * sim::kMillisecond);
    net.run_for(300 * sim::kMillisecond);
    // Data dies at the first-hop router; nothing crosses the backbone.
    const auto* link_r1_r2 = net.find_link(*r1, *r2);
    EXPECT_EQ(net.stats().data_packets_on(link_r1_r2->id()), 0u);
}

// MOSPF membership LSAs ride OSPF's protocol number beside the link-state
// hellos and LSAs; each router's receive table routes each message type to
// its own agent, so MOSPF on top of LsRoutingDomain leaves unicast routing
// intact: source—LAN—R1—R2—R3—LAN—member.
TEST(MospfOverLinkState, UnicastConvergesAndMembersGetData) {
    topo::Network net;
    auto& r1 = net.add_router("R1");
    auto& r2 = net.add_router("R2");
    auto& r3 = net.add_router("R3");
    auto& source = net.add_host("source", net.add_lan({&r1}));
    net.add_link(r1, r2);
    net.add_link(r2, r3);
    auto& member = net.add_host("member", net.add_lan({&r3}));
    unicast::LsConfig ls_cfg;
    ls_cfg.hello_interval = 50 * sim::kMillisecond;
    ls_cfg.dead_interval = 150 * sim::kMillisecond;
    ls_cfg.lsa_refresh = 300 * sim::kMillisecond;
    ls_cfg.lsa_max_age = 900 * sim::kMillisecond;
    ls_cfg.spf_delay = 5 * sim::kMillisecond;
    unicast::LsRoutingDomain ls(net, ls_cfg);
    scenario::MospfStack stack(net, fast_config());
    net.run_for(3 * sim::kSecond);

    EXPECT_EQ(ls.agent_for(r1).lsdb_size(), 3u);
    EXPECT_TRUE(r1.route_to(r3.router_id()).has_value());
    EXPECT_EQ(stack.mospf_at(r1).member_routers(kGroup).size(), 0u);

    stack.host_agent(member).join(kGroup);
    net.run_for(300 * sim::kMillisecond);
    EXPECT_TRUE(stack.mospf_at(r1).member_routers(kGroup).contains(r3.router_id()));
    source.send_stream(kGroup, 3, 20 * sim::kMillisecond);
    net.run_for(300 * sim::kMillisecond);
    EXPECT_EQ(member.received_count(kGroup), 3u);
    EXPECT_EQ(member.duplicate_count(), 0u);
}

} // namespace
} // namespace pimlib::test
