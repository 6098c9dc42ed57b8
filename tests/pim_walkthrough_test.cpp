// Step-by-step reproduction of the paper's numbered walkthroughs:
//   Figure 3 — how senders rendezvous with receivers,
//   Figure 4 — how a receiver joins and sets up the shared tree,
//   Figure 5 — switching from the shared tree to the shortest-path tree.
// Each test drives the scenario event by event and asserts the exact entry
// fields the figures annotate.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace pimlib::test {
namespace {

using pim::SptPolicy;

class WalkthroughTest : public ::testing::Test {
protected:
    WalkthroughTest() : stack_(topo_.net, fast_config()) {
        stack_.set_rp(kGroup, {topo_.c->router_id()});
        topo_.net.run_for(100 * sim::kMillisecond);
    }

    Fig3Topology topo_;
    scenario::PimSmStack stack_;
};

// Figure 4, actions 1–6: IGMP report → DR creates (*,G) → join propagates
// hop by hop → RP terminates the join.
TEST_F(WalkthroughTest, Fig4SharedTreeSetup) {
    stack_.set_spt_policy(SptPolicy::never());

    // Action 1–2: host reports membership; A is the DR on LAN0.
    ASSERT_TRUE(stack_.pim_at(*topo_.a).is_dr_on(0));
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(50 * sim::kMillisecond);

    // Action 3 (annotated "Create (*,G) entry" at the DR):
    //   outgoing interface list = {receiver LAN}, incoming interface =
    //   toward the RP, RP address stored, RP-timer started.
    auto* wc_a = stack_.pim_at(*topo_.a).cache().find_wc(kGroup);
    ASSERT_NE(wc_a, nullptr);
    EXPECT_TRUE(wc_a->wildcard());
    EXPECT_EQ(wc_a->source_or_rp(), topo_.c->router_id());
    EXPECT_EQ(live_oifs(*wc_a, topo_.net.simulator().now()), std::vector<int>{0});
    EXPECT_EQ(wc_a->iif(), topo_.ifindex_toward(*topo_.a, *topo_.b));
    EXPECT_GT(wc_a->rp_timer_deadline(), 0); // "RP-Timer: Started"

    // Action 4–5: A sent a PIM join {RP, RPbit, WCbit} to B; B created its
    // own (*,G) with oif = {toward A}, iif = {toward C}.
    auto* wc_b = stack_.pim_at(*topo_.b).cache().find_wc(kGroup);
    ASSERT_NE(wc_b, nullptr);
    const int b_to_a = topo_.ifindex_toward(*topo_.b, *topo_.a);
    const int b_to_c = topo_.ifindex_toward(*topo_.b, *topo_.c);
    EXPECT_EQ(live_oifs(*wc_b, topo_.net.simulator().now()), std::vector<int>{b_to_a});
    EXPECT_EQ(wc_b->iif(), b_to_c);
    EXPECT_EQ(wc_b->source_or_rp(), topo_.c->router_id());

    // Action 6: C recognizes itself as the RP — (*,G) with oif = {toward B}
    // and *null* incoming interface.
    auto* wc_c = stack_.pim_at(*topo_.c).cache().find_wc(kGroup);
    ASSERT_NE(wc_c, nullptr);
    const int c_to_b = topo_.ifindex_toward(*topo_.c, *topo_.b);
    EXPECT_EQ(live_oifs(*wc_c, topo_.net.simulator().now()), std::vector<int>{c_to_b});
    EXPECT_EQ(wc_c->iif(), -1);
}

// Figure 3, actions 1–3: receiver joins toward RP; sender's DR registers;
// RP joins toward the source; data then flows natively end to end.
TEST_F(WalkthroughTest, Fig3Rendezvous) {
    stack_.set_spt_policy(SptPolicy::never());

    // Action 1: receiver side.
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    ASSERT_NE(stack_.pim_at(*topo_.c).cache().find_wc(kGroup), nullptr);

    // Action 2: sender sends; its DR (D) piggybacks the data in a register.
    const auto registers_before = topo_.net.stats().control_messages("pim-register");
    topo_.source->send_data(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    EXPECT_GT(topo_.net.stats().control_messages("pim-register"), registers_before);
    // The very first packet is delivered via register decapsulation.
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 1u);

    // Action 3: the RP sent a join toward the source, so D (the source DR)
    // now has (S,G) with oif toward B and iif on the source LAN.
    auto* sg_d = stack_.pim_at(*topo_.d).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_d, nullptr);
    const int d_to_b = topo_.ifindex_toward(*topo_.d, *topo_.b);
    EXPECT_TRUE(sg_d->has_oif(d_to_b));
    EXPECT_NE(sg_d->iif(), d_to_b); // iif is the source LAN

    // Subsequent packets flow natively over the (S,G) path and down the
    // shared tree, still exactly once per packet.
    topo_.source->send_data(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 2u);
    EXPECT_EQ(topo_.receiver->duplicate_count(), 0u);
}

// Figure 5, actions 1–5: the receiver's DR creates (Sn,G) with SPT bit
// cleared, joins toward the source, and the divergence router prunes the
// source off the shared tree once data arrives over the SPT.
TEST_F(WalkthroughTest, Fig5SptSwitch) {
    stack_.set_spt_policy(SptPolicy::immediate());
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);

    // First packet travels the shared tree; noticing the new source Sn, A
    // creates (Sn,G) — action 1 — with the oif list copied from (*,G).
    topo_.source->send_data(kGroup);
    topo_.net.run_for(30 * sim::kMillisecond); // enough for A to see data
    auto* sg_a = stack_.pim_at(*topo_.a).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_a, nullptr);
    EXPECT_EQ(live_oifs(*sg_a, topo_.net.simulator().now()), std::vector<int>{0});

    // Actions 2–4: join {Sn} propagated toward the source; B created (Sn,G)
    // with oif {toward A} and iif {toward D}.
    topo_.net.run_for(100 * sim::kMillisecond);
    auto* sg_b = stack_.pim_at(*topo_.b).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_b, nullptr);
    EXPECT_TRUE(sg_b->has_oif(topo_.ifindex_toward(*topo_.b, *topo_.a)));
    EXPECT_EQ(sg_b->iif(), topo_.ifindex_toward(*topo_.b, *topo_.d));

    // Action 5: after packets arrive from Sn over the SPT, the SPT bit is
    // set and the prune (JOIN=NULL, PRUNE={Sn}) reached the RP: C no longer
    // lists B in (Sn,G)'s oifs.
    topo_.source->send_data(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    EXPECT_TRUE(sg_b->spt_bit());
    auto* sg_c = stack_.pim_at(*topo_.c).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_c, nullptr);
    EXPECT_TRUE(sg_c->oif_list_empty(topo_.net.simulator().now()));

    // Every packet was delivered exactly once throughout.
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 2u);
    EXPECT_EQ(topo_.receiver->duplicate_count(), 0u);

    // §3.10 summary: data still travels from the source toward the RP so
    // new receivers can find it — D keeps an oif toward B for the RP path.
    auto* sg_d = stack_.pim_at(*topo_.d).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg_d, nullptr);
    EXPECT_FALSE(sg_d->oif_list_empty(topo_.net.simulator().now()));
}

// §3.10: "Multicast packets will arrive at some receivers before reaching
// the RP if the receivers and the source are both upstream to the RP." With
// the receiver behind B (on the source→RP path), data reaches it directly.
TEST_F(WalkthroughTest, ReceiversUpstreamOfRpServedDirectly) {
    stack_.set_spt_policy(SptPolicy::never());
    auto& lan_b = topo_.net.add_lan({topo_.b});
    auto& nearby = topo_.net.add_host("nearby", lan_b);
    topo_.routing->recompute();
    scenario::StackConfig cfg = fast_config();
    igmp::HostAgent agent(nearby, cfg.host);
    topo_.net.run_for(100 * sim::kMillisecond);

    agent.join(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    topo_.source->send_stream(kGroup, 3, 20 * sim::kMillisecond);
    topo_.net.run_for(500 * sim::kMillisecond);
    EXPECT_EQ(nearby.received_count(kGroup), 3u);
    EXPECT_EQ(nearby.duplicate_count(), 0u);
}

} // namespace
} // namespace pimlib::test
