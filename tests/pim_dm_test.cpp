// PIM dense mode tests: RPF flood, truncated broadcast, prune, prune
// regrowth ("grow back"), graft on new membership.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace pimlib::test {
namespace {

// source—LAN—R1—R2—{R3—memberLAN, R4—emptyLAN}
struct DenseTopology {
    topo::Network net;
    topo::Router* r1;
    topo::Router* r2;
    topo::Router* r3;
    topo::Router* r4;
    topo::Host* source;
    topo::Host* member;
    topo::Segment* empty_lan;
    std::unique_ptr<unicast::OracleRouting> routing;

    DenseTopology() {
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
    }
};

scenario::StackConfig dense_config() {
    scenario::StackConfig cfg = fast_config();
    // prune_lifetime 1.8 s, entry lifetime 1.8 s, queries 300 ms.
    return cfg;
}

class PimDmTest : public ::testing::Test {
protected:
    PimDmTest() : stack_(topo_.net, dense_config()) {
        topo_.net.run_for(100 * sim::kMillisecond); // neighbor discovery
    }
    /// Floods one packet to the member behind R3 and returns R2's (S,G).
    mcast::ForwardingEntry& flood_once() {
        stack_.host_agent(*topo_.member).join(kGroup);
        topo_.net.run_for(100 * sim::kMillisecond);
        topo_.source->send_data(kGroup);
        topo_.net.run_for(100 * sim::kMillisecond);
        auto* sg = stack_.pim_at(*topo_.r2).cache().find_sg(topo_.source->address(), kGroup);
        EXPECT_NE(sg, nullptr);
        return *sg;
    }

    DenseTopology topo_;
    scenario::PimDmStack stack_;
};

TEST_F(PimDmTest, FloodsToMembersAndPrunesLeaves) {
    stack_.host_agent(*topo_.member).join(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);

    topo_.source->send_data(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    EXPECT_EQ(topo_.member->received_count(kGroup), 1u);

    // R4's leaf LAN has neither neighbors nor members: truncated broadcast
    // keeps it clean, and R4 prunes itself off.
    EXPECT_EQ(topo_.net.stats().data_packets_on(topo_.empty_lan->id()), 0u);
    auto* sg_r4 = stack_.pim_at(*topo_.r4).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_r4, nullptr);
    EXPECT_TRUE(sg_r4->oif_list_empty(topo_.net.simulator().now()));

    // After the prune propagates, R2 stops forwarding toward R4.
    topo_.source->send_data(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    auto* sg_r2 = stack_.pim_at(*topo_.r2).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_r2, nullptr);
    const int r2_to_r4 = topo_.net.find_link(*topo_.r2, *topo_.r4)
                             ->attachments()[0].node == topo_.r2
                             ? topo_.net.find_link(*topo_.r2, *topo_.r4)->attachments()[0].ifindex
                             : topo_.net.find_link(*topo_.r2, *topo_.r4)->attachments()[1].ifindex;
    EXPECT_FALSE(sg_r2->has_oif(r2_to_r4));
    EXPECT_EQ(topo_.member->received_count(kGroup), 2u);
    EXPECT_EQ(topo_.member->duplicate_count(), 0u);
}

TEST_F(PimDmTest, PrunedBranchGrowsBack) {
    stack_.host_agent(*topo_.member).join(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    topo_.source->send_stream(kGroup, 2, 50 * sim::kMillisecond);
    topo_.net.run_for(300 * sim::kMillisecond);

    auto* sg_r2 = stack_.pim_at(*topo_.r2).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_r2, nullptr);
    const auto link = topo_.net.find_link(*topo_.r2, *topo_.r4);
    const int r2_to_r4 = topo_.r2->ifindex_on(*link).value();
    EXPECT_FALSE(sg_r2->has_oif(r2_to_r4));

    // "Pruned branches will grow back after a time-out period" (§1.1) —
    // the prune lifetime is 1.8 s under the test scaling. Count data on the
    // pruned R2—R4 link across several lifetimes: regrowth lets a few
    // packets through periodically, re-pruning keeps it far below the
    // stream total.
    topo_.net.stats().reset_data_counters();
    topo_.source->send_stream(kGroup, 60, 100 * sim::kMillisecond);
    topo_.net.run_for(7 * sim::kSecond);
    const auto leaked = topo_.net.stats().data_packets_on(link->id());
    EXPECT_GE(leaked, 2u);  // grew back at least twice
    EXPECT_LT(leaked, 30u); // but stayed pruned most of the time
}

TEST_F(PimDmTest, GraftReattachesNewMemberQuickly) {
    stack_.host_agent(*topo_.member).join(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    topo_.source->send_stream(kGroup, 3, 50 * sim::kMillisecond);
    topo_.net.run_for(300 * sim::kMillisecond); // R4 branch pruned by now

    // A member appears behind R4: the graft must restore the branch well
    // before the prune would time out.
    auto& late = topo_.net.add_host("late", *topo_.empty_lan);
    igmp::HostAgent agent(late, dense_config().host);
    agent.join(kGroup);
    topo_.net.run_for(150 * sim::kMillisecond);
    topo_.source->send_data(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    EXPECT_EQ(late.received_count(kGroup), 1u);
}

TEST_F(PimDmTest, RpfCheckStopsLoops) {
    // Add a redundant link R3—R4 creating a cycle R2—R3—R4—R2.
    topo_.net.add_link(*topo_.r3, *topo_.r4);
    topo_.routing->recompute();
    topo_.net.run_for(200 * sim::kMillisecond);

    stack_.host_agent(*topo_.member).join(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    topo_.source->send_data(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    // Exactly one delivery despite the cycle; RPF discarded the echoes.
    EXPECT_EQ(topo_.member->received_count(kGroup), 1u);
    EXPECT_EQ(topo_.member->duplicate_count(), 0u);
    EXPECT_GT(topo_.net.stats().drops(provenance::DropReason::kRpfFail), 0u);
}

TEST_F(PimDmTest, EntryExpiresWhenSourceStops) {
    stack_.host_agent(*topo_.member).join(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    topo_.source->send_data(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    ASSERT_NE(stack_.pim_at(*topo_.r1).cache().find_sg(topo_.source->address(), kGroup),
              nullptr);
    topo_.net.run_for(5 * sim::kSecond);
    EXPECT_EQ(stack_.pim_at(*topo_.r1).cache().find_sg(topo_.source->address(), kGroup),
              nullptr);
}

// R3's prune of the source arriving at R2: the interface it arrives on,
// R3's address there, and the prune entry.
struct PruneFromR3 {
    int r2_if;
    net::Ipv4Address r3_addr;
    net::Ipv4Address to_r2;
    pim::AddressEntry prune;
};

PruneFromR3 prune_from_r3(DenseTopology& topo) {
    topo::Segment* link = topo.net.find_link(*topo.r2, *topo.r3);
    const int r2_if = topo.r2->ifindex_on(*link).value();
    return {r2_if, topo.r3->interface(topo.r3->ifindex_on(*link).value()).address,
            topo.r2->interface(r2_if).address,
            pim::AddressEntry{topo.source->address(), pim::EntryFlags{}}};
}

TEST_F(PimDmTest, NonMulticastRecordSkippedLaterRecordApplied) {
    mcast::ForwardingEntry& sg = flood_once();
    const PruneFromR3 p = prune_from_r3(topo_);
    ASSERT_TRUE(sg.has_oif(p.r2_if));
    inject_pim(*topo_.r2, p.r2_if, p.r3_addr,
               join_prune(p.to_r2, {{net::Ipv4Address(10, 9, 9, 9), {}, {p.prune}},
                                    {kGroup.address(), {}, {p.prune}}}));
    EXPECT_FALSE(sg.has_oif(p.r2_if));
}

TEST_F(PimDmTest, RetiredJoinPruneCodeChangesNoState) {
    // Code 2 was the single-group Join/Prune; a well-formed frame in that
    // layout is an unknown message now and must not prune anything.
    mcast::ForwardingEntry& sg = flood_once();
    const PruneFromR3 p = prune_from_r3(topo_);
    ASSERT_TRUE(sg.has_oif(p.r2_if));
    const std::size_t entries = stack_.pim_at(*topo_.r2).cache().size();
    const auto prune = join_prune(p.to_r2, {{kGroup.address(), {}, {p.prune}}});
    inject_pim(*topo_.r2, p.r2_if, p.r3_addr, as_retired_code(prune));
    EXPECT_TRUE(sg.has_oif(p.r2_if));
    EXPECT_EQ(stack_.pim_at(*topo_.r2).cache().size(), entries);

    // The same prune as a Join/Prune does take effect.
    inject_pim(*topo_.r2, p.r2_if, p.r3_addr, prune);
    EXPECT_FALSE(sg.has_oif(p.r2_if));
}

} // namespace
} // namespace pimlib::test
