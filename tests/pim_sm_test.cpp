// PIM sparse mode behavior tests on the paper's Fig. 3–5 topology: shared
// tree setup (§3.2), the register path, SPT switchover (§3.3), soft-state
// expiry (§3.6), RP failover (§3.9), and unicast rerouting (§3.8).
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace pimlib::test {
namespace {

using pim::SptPolicy;

class PimSmTest : public ::testing::Test {
protected:
    PimSmTest() : stack_(topo_.net, fast_config()) {
        stack_.set_rp(kGroup, {topo_.c->router_id()});
        stack_.set_spt_policy(SptPolicy::never());
        // Let PIM queries and IGMP settle (neighbors, DR election).
        topo_.net.run_for(100 * sim::kMillisecond);
    }

    void join_receiver() {
        stack_.host_agent(*topo_.receiver).join(kGroup);
        topo_.net.run_for(200 * sim::kMillisecond);
    }

    Fig3Topology topo_;
    scenario::PimSmStack stack_;
};

TEST_F(PimSmTest, ReceiverJoinBuildsSharedTreeState) {
    join_receiver();

    // Fig. 4 expectations, hop by hop.
    auto* wc_a = stack_.pim_at(*topo_.a).cache().find_wc(kGroup);
    ASSERT_NE(wc_a, nullptr);
    EXPECT_TRUE(wc_a->wildcard());
    EXPECT_EQ(wc_a->source_or_rp(), topo_.c->router_id()); // RP in source slot
    EXPECT_EQ(wc_a->iif(), topo_.ifindex_toward(*topo_.a, *topo_.b));
    EXPECT_TRUE(wc_a->has_oif(0)); // the receiver LAN
    ASSERT_NE(wc_a->find_oif(0), nullptr);
    EXPECT_TRUE(wc_a->find_oif(0)->pinned);

    auto* wc_b = stack_.pim_at(*topo_.b).cache().find_wc(kGroup);
    ASSERT_NE(wc_b, nullptr);
    EXPECT_EQ(wc_b->iif(), topo_.ifindex_toward(*topo_.b, *topo_.c));
    EXPECT_TRUE(wc_b->has_oif(topo_.ifindex_toward(*topo_.b, *topo_.a)));

    // "The RP recognizes its own address ... incoming interface is null."
    auto* wc_c = stack_.pim_at(*topo_.c).cache().find_wc(kGroup);
    ASSERT_NE(wc_c, nullptr);
    EXPECT_EQ(wc_c->iif(), -1);
    EXPECT_TRUE(wc_c->has_oif(topo_.ifindex_toward(*topo_.c, *topo_.b)));

    // Off-tree router D carries zero state: the sparse-mode selling point.
    EXPECT_EQ(stack_.pim_at(*topo_.d).cache().size(), 0u);
}

TEST_F(PimSmTest, SenderRendezvousesViaRegister) {
    join_receiver();
    topo_.source->send_data(kGroup);
    topo_.net.run_for(300 * sim::kMillisecond);

    // The register reached the RP, which joined toward the source (Fig. 3).
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 1u);
    auto& rp = stack_.pim_at(*topo_.c);
    auto* sg_rp = rp.cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_rp, nullptr);
    EXPECT_EQ(sg_rp->iif(), topo_.ifindex_toward(*topo_.c, *topo_.b));
    EXPECT_EQ(rp.active_sources(kGroup).size(), 1u);

    // The source DR now has (S,G) state from the RP's join.
    auto* sg_d = stack_.pim_at(*topo_.d).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_d, nullptr);
}

TEST_F(PimSmTest, NativePathReplacesRegisters) {
    join_receiver();
    const auto before = topo_.net.stats().control_messages("pim-register");
    topo_.source->send_stream(kGroup, 20, 20 * sim::kMillisecond);
    topo_.net.run_for(1 * sim::kSecond);
    const auto total = topo_.net.stats().control_messages("pim-register");

    EXPECT_EQ(topo_.receiver->received_count(kGroup), 20u);
    EXPECT_EQ(topo_.receiver->duplicate_count(), 0u);
    // Only the first few packets (one round trip to the RP and back) ride
    // registers; the rest flow natively.
    EXPECT_LT(total - before, 6u);
}

TEST_F(PimSmTest, SptSwitchoverPrunesTowardRpAtDivergence) {
    stack_.set_spt_policy(SptPolicy::immediate());
    join_receiver();
    topo_.source->send_stream(kGroup, 30, 20 * sim::kMillisecond);
    topo_.net.run_for(1500 * sim::kMillisecond);

    // No loss, no duplication across the shared→SPT transition (§3.3's
    // SPT-bit machinery).
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 30u);
    EXPECT_EQ(topo_.receiver->duplicate_count(), 0u);

    // A switched: (S,G) with SPT bit, iif toward B (same as shared iif, so A
    // itself sends no prune).
    auto* sg_a = stack_.pim_at(*topo_.a).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_a, nullptr);
    EXPECT_FALSE(sg_a->rp_bit());
    EXPECT_TRUE(sg_a->spt_bit());
    EXPECT_EQ(sg_a->iif(), topo_.ifindex_toward(*topo_.a, *topo_.b));

    // B is the divergence point (Fig. 5 action 5): SPT iif toward D, shared
    // iif toward C, so B pruned the source off the RP tree...
    auto* sg_b = stack_.pim_at(*topo_.b).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_b, nullptr);
    EXPECT_TRUE(sg_b->spt_bit());
    EXPECT_EQ(sg_b->iif(), topo_.ifindex_toward(*topo_.b, *topo_.d));
    // ...and the RP no longer forwards this source to B.
    auto* sg_c = stack_.pim_at(*topo_.c).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_c, nullptr);
    EXPECT_TRUE(sg_c->oif_list_empty(topo_.net.simulator().now()));
}

TEST_F(PimSmTest, ThresholdPolicyDelaysSwitch) {
    stack_.set_spt_policy(SptPolicy::threshold(10, 10 * sim::kSecond));
    join_receiver();
    topo_.source->send_stream(kGroup, 5, 20 * sim::kMillisecond);
    topo_.net.run_for(500 * sim::kMillisecond);
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 5u);
    // Below threshold: A must still be on the shared tree only.
    auto* sg_a = stack_.pim_at(*topo_.a).cache().find_sg(topo_.source->address(), kGroup);
    EXPECT_EQ(sg_a, nullptr);

    topo_.source->send_stream(kGroup, 10, 20 * sim::kMillisecond);
    topo_.net.run_for(500 * sim::kMillisecond);
    sg_a = stack_.pim_at(*topo_.a).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_a, nullptr);
    EXPECT_TRUE(sg_a->spt_bit());
}

TEST_F(PimSmTest, NeverPolicyStaysOnSharedTree) {
    join_receiver();
    topo_.source->send_stream(kGroup, 20, 20 * sim::kMillisecond);
    topo_.net.run_for(1 * sim::kSecond);
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 20u);
    EXPECT_EQ(stack_.pim_at(*topo_.a).cache().find_sg(topo_.source->address(), kGroup),
              nullptr);
}

TEST_F(PimSmTest, MembershipTimeoutTearsDownTree) {
    join_receiver();
    topo_.source->send_data(kGroup);
    topo_.net.run_for(300 * sim::kMillisecond);
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 1u);

    stack_.host_agent(*topo_.receiver).leave(kGroup);
    // Membership ages out (250 ms), prunes propagate, entries expire at
    // 3 × refresh (1.8 s).
    topo_.net.run_for(4 * sim::kSecond);
    EXPECT_EQ(stack_.pim_at(*topo_.a).cache().find_wc(kGroup), nullptr);
    EXPECT_EQ(stack_.pim_at(*topo_.b).cache().find_wc(kGroup), nullptr);

    topo_.receiver->clear_received();
    topo_.source->send_data(kGroup);
    topo_.net.run_for(300 * sim::kMillisecond);
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 0u);
}

TEST_F(PimSmTest, SourceSilenceExpiresRpState) {
    join_receiver();
    topo_.source->send_data(kGroup);
    topo_.net.run_for(300 * sim::kMillisecond);
    ASSERT_NE(stack_.pim_at(*topo_.c).cache().find_sg(topo_.source->address(), kGroup),
              nullptr);
    // No data for many refresh periods: the RP reaps the source.
    topo_.net.run_for(5 * sim::kSecond);
    EXPECT_EQ(stack_.pim_at(*topo_.c).cache().find_sg(topo_.source->address(), kGroup),
              nullptr);
}

TEST_F(PimSmTest, GroupWithoutRpMappingIsIgnored) {
    const net::GroupAddress unmapped{net::Ipv4Address(225, 9, 9, 9)};
    stack_.host_agent(*topo_.receiver).join(unmapped);
    topo_.net.run_for(500 * sim::kMillisecond);
    // "The router will assume that the group is not to be supported with PIM
    // sparse mode" (§3.1).
    EXPECT_EQ(stack_.pim_at(*topo_.a).cache().find_wc(unmapped), nullptr);
}

TEST_F(PimSmTest, RpMappingLearnedFromHostMessage) {
    const net::GroupAddress dynamic{net::Ipv4Address(226, 2, 2, 2)};
    stack_.host_agent(*topo_.receiver).set_rp_mapping(dynamic, {topo_.c->router_id()});
    stack_.host_agent(*topo_.receiver).join(dynamic);
    topo_.net.run_for(300 * sim::kMillisecond);
    EXPECT_NE(stack_.pim_at(*topo_.a).cache().find_wc(dynamic), nullptr);
}

TEST_F(PimSmTest, UnicastRouteChangeRehomesTree) {
    // Add an alternate path A—E—C (higher metric, so unused until B fails).
    auto& e = topo_.net.add_router("E");
    topo_.net.add_link(*topo_.a, e, sim::kMillisecond, /*metric=*/5);
    topo_.net.add_link(e, *topo_.c, sim::kMillisecond, /*metric=*/5);
    topo_.routing->recompute();
    scenario::StackConfig cfg = fast_config();
    igmp::RouterAgent igmp_e(e, cfg.igmp);
    pim::PimSmRouter pim_e(e, igmp_e, cfg.pim);
    pim_e.rp_set().configure(kGroup, {topo_.c->router_id()});
    topo_.net.run_for(100 * sim::kMillisecond);

    join_receiver();
    const int old_iif = topo_.ifindex_toward(*topo_.a, *topo_.b);
    ASSERT_EQ(stack_.pim_at(*topo_.a).cache().find_wc(kGroup)->iif(), old_iif);

    // Fail the A—B link: A's only path to the RP is now via E.
    topo_.net.find_link(*topo_.a, *topo_.b)->set_up(false);
    topo_.routing->recompute();
    topo_.net.run_for(1 * sim::kSecond);

    auto* wc_a = stack_.pim_at(*topo_.a).cache().find_wc(kGroup);
    ASSERT_NE(wc_a, nullptr);
    EXPECT_EQ(wc_a->iif(), topo_.ifindex_toward(*topo_.a, e));

    // Data still arrives (register → RP → E → A).
    topo_.source->send_stream(kGroup, 5, 20 * sim::kMillisecond);
    topo_.net.run_for(1 * sim::kSecond);
    EXPECT_GE(topo_.receiver->received_count(kGroup), 5u);
}

TEST_F(PimSmTest, SourceAndReceiverOnSameLanDeliverDirectly) {
    auto& lan0 = topo_.net.segment(0);
    auto& local_source = topo_.net.add_host("local-source", lan0);
    join_receiver();
    local_source.send_data(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    // LAN multicast reaches the member directly, exactly once.
    EXPECT_EQ(topo_.receiver->received_count_from(local_source.address(), kGroup), 1u);
    EXPECT_EQ(topo_.receiver->duplicate_count(), 0u);
}

class PimSmRpFailoverTest : public ::testing::Test {
protected:
    // receiver—A—B—C(RP1), B—E(RP2), B—D—source
    PimSmRpFailoverTest() {
        a = &net.add_router("A");
        b = &net.add_router("B");
        c = &net.add_router("C");
        d = &net.add_router("D");
        e = &net.add_router("E");
        auto& lan0 = net.add_lan({a});
        receiver = &net.add_host("receiver", lan0);
        net.add_link(*a, *b);
        net.add_link(*b, *c);
        net.add_link(*b, *d);
        net.add_link(*b, *e);
        auto& lan1 = net.add_lan({d});
        source = &net.add_host("source", lan1);
        routing = std::make_unique<unicast::OracleRouting>(net);
        stack = std::make_unique<scenario::PimSmStack>(net, fast_config());
        stack->set_rp(kGroup, {c->router_id(), e->router_id()});
        stack->set_spt_policy(SptPolicy::never());
        net.run_for(100 * sim::kMillisecond);
    }

    topo::Network net;
    topo::Router* a;
    topo::Router* b;
    topo::Router* c;
    topo::Router* d;
    topo::Router* e;
    topo::Host* receiver;
    topo::Host* source;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<scenario::PimSmStack> stack;
};

TEST_F(PimSmRpFailoverTest, SendersRegisterWithAllRps) {
    stack->host_agent(*receiver).join(kGroup);
    net.run_for(200 * sim::kMillisecond);
    source->send_data(kGroup);
    net.run_for(300 * sim::kMillisecond);
    // "Each source registers and sends data packets toward each of the RPs"
    // (§3.9).
    EXPECT_EQ(stack->pim_at(*c).active_sources(kGroup).size(), 1u);
    EXPECT_EQ(stack->pim_at(*e).active_sources(kGroup).size(), 1u);
    // Receiver joined only the primary RP.
    EXPECT_EQ(stack->pim_at(*a).cache().find_wc(kGroup)->source_or_rp(),
              c->router_id());
    EXPECT_EQ(receiver->received_count(kGroup), 1u);
}

TEST_F(PimSmRpFailoverTest, RpDeathTriggersFailoverToAlternate) {
    stack->host_agent(*receiver).join(kGroup);
    net.run_for(200 * sim::kMillisecond);
    ASSERT_EQ(stack->pim_at(*a).cache().find_wc(kGroup)->source_or_rp(), c->router_id());

    // Kill the primary RP. RP-reachability messages stop; after the RP
    // timeout A joins toward E (§3.9).
    net.find_link(*b, *c)->set_up(false);
    routing->recompute();
    net.run_for(3 * sim::kSecond);

    auto* wc_a = stack->pim_at(*a).cache().find_wc(kGroup);
    ASSERT_NE(wc_a, nullptr);
    EXPECT_EQ(wc_a->source_or_rp(), e->router_id());

    // Data flows via the new RP; "sources do not need to take special
    // action" (§3.9).
    source->send_stream(kGroup, 5, 20 * sim::kMillisecond);
    net.run_for(1 * sim::kSecond);
    EXPECT_GE(receiver->received_count(kGroup), 5u);
}

// Aggregated periodic refresh (JoinPruneBundle): with many groups sharing
// one upstream neighbor, the per-tick message count collapses to one while
// downstream soft state stays refreshed.
TEST(PimSmAggregation, BundledRefreshKeepsStateAliveWithFewerMessages) {
    const std::vector<net::GroupAddress> groups = {
        net::GroupAddress{net::Ipv4Address(224, 1, 1, 1)},
        net::GroupAddress{net::Ipv4Address(224, 1, 1, 2)},
        net::GroupAddress{net::Ipv4Address(224, 1, 1, 3)},
        net::GroupAddress{net::Ipv4Address(224, 1, 1, 4)},
        net::GroupAddress{net::Ipv4Address(224, 1, 1, 5)},
    };
    Fig3Topology topo;
    scenario::PimSmStack stack(topo.net, fast_config());
    for (net::GroupAddress g : groups) stack.set_rp(g, {topo.c->router_id()});
    stack.set_spt_policy(SptPolicy::never());
    topo.net.run_for(100 * sim::kMillisecond);
    for (net::GroupAddress g : groups) stack.host_agent(*topo.receiver).join(g);
    topo.net.run_for(200 * sim::kMillisecond);

    const std::uint64_t before = stack.pim_at(*topo.a).join_prune_messages_sent();
    // Three periodic refresh ticks (600 ms each at the 100× compression).
    topo.net.run_for(1850 * sim::kMillisecond);
    const std::uint64_t refresh_messages =
        stack.pim_at(*topo.a).join_prune_messages_sent() - before;
    const sim::Time now = topo.net.simulator().now();
    const int oif_to_a = topo.ifindex_toward(*topo.b, *topo.a);
    std::size_t live_groups_at_b = 0;
    for (net::GroupAddress g : groups) {
        auto* wc = stack.pim_at(*topo.b).cache().find_wc(g);
        if (wc != nullptr && wc->find_oif(oif_to_a) != nullptr &&
            wc->find_oif(oif_to_a)->alive(now)) {
            ++live_groups_at_b;
        }
    }

    // Every group's state stays alive on the upstream router — holdtime is
    // 3× the refresh interval, so surviving three ticks proves the
    // refreshes landed — on one message per (interface, neighbor) per tick.
    EXPECT_EQ(live_groups_at_b, groups.size());
    EXPECT_EQ(refresh_messages, 3u);
}

} // namespace
} // namespace pimlib::test
