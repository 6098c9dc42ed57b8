// PIM sparse mode behavior tests on the paper's Fig. 3–5 topology: shared
// tree setup (§3.2), the register path, SPT switchover (§3.3), soft-state
// expiry (§3.6), RP failover (§3.9), unicast rerouting (§3.8), and the
// shared tree's per-hop work (RP-Reachability forwarded as received, no
// allocation on a transit hop).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "alloc_count.hpp"
#include "pim/messages.hpp"
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

// --- the shared tree's per-hop work ---------------------------------------

/// One RP-Reachability frame seen on the wire.
struct RpReachFrame {
    const topo::Segment* segment;
    net::Ipv4Address from;
    net::Payload payload;
};

/// Every RP-Reachability frame `net`'s segments transmit from now on.
void tap_rp_reachability(topo::Network& net, std::vector<RpReachFrame>& frames) {
    net.add_packet_tap([&frames](const topo::Segment& segment, const net::Frame& frame) {
        if (pim::RpReachability::decode(frame.packet.payload)) {
            frames.push_back({&segment, frame.packet.src, frame.packet.payload});
        }
    });
}

// The RP's RP-Reachability reaches every router down the shared tree byte for
// byte as the RP encoded it — one shared payload, the RP's holdtime kept at
// every hop — and no router sends it back out the interface it arrived on.
void check_rp_reachability_forwarded_as_sent(bool fragile_holdtime) {
    Fig3Topology topo;
    scenario::StackConfig cfg = fast_config();
    cfg.pim.mutate_fragile_rp_holdtime = fragile_holdtime;
    scenario::PimSmStack stack(topo.net, cfg);
    stack.set_rp(kGroup, {topo.c->router_id()});
    stack.set_spt_policy(SptPolicy::never());
    topo.net.run_for(100 * sim::kMillisecond);
    stack.host_agent(*topo.receiver).join(kGroup);
    topo.net.run_for(200 * sim::kMillisecond);

    std::vector<RpReachFrame> frames;
    tap_rp_reachability(topo.net, frames);
    // Two RP ticks, ending mid-period so the last wave has gone all the way.
    topo.net.run_for(2 * cfg.pim.rp_reachability_interval +
                     cfg.pim.rp_reachability_interval / 2);

    const topo::Segment* c_b = topo.net.find_link(*topo.c, *topo.b);
    const topo::Segment* b_a = topo.net.find_link(*topo.b, *topo.a);
    const topo::Segment* lan0 = topo.receiver->interface(0).segment;
    const auto advertised = static_cast<std::uint32_t>(
        (fragile_holdtime ? cfg.pim.rp_reachability_interval * 11 / 10 : cfg.pim.rp_timeout) /
        sim::kMillisecond);
    const std::vector<std::uint8_t> sent =
        pim::RpReachability{kGroup.address(), topo.c->router_id(), advertised}.encode();
    // Frames grouped by the payload block they carry; a block the RP sent is
    // one wave down the tree.
    std::map<const std::uint8_t*, std::vector<const RpReachFrame*>> waves;
    for (const RpReachFrame& f : frames) {
        // C sends toward B, B toward A, A onto the receiver LAN: never back
        // toward the RP.
        const topo::Segment* expected = topo.c->owns_address(f.from)   ? c_b
                                        : topo.b->owns_address(f.from) ? b_a
                                        : topo.a->owns_address(f.from) ? lan0
                                                                       : nullptr;
        EXPECT_EQ(f.segment, expected) << "from " << f.from.to_string();
        EXPECT_TRUE(std::ranges::equal(f.payload.span(), sent)) << "from " << f.from.to_string();
        waves[f.payload.data()].push_back(&f);
    }
    int rp_waves = 0;
    for (const auto& [block, wave] : waves) {
        if (wave.front()->segment != c_b) continue; // began before the tap
        ++rp_waves;
        ASSERT_EQ(wave.size(), 3u) << "a hop forwarded a copy, or nothing";
        EXPECT_EQ(wave[1]->segment, b_a);
        EXPECT_EQ(wave[2]->segment, lan0);
    }
    EXPECT_EQ(rp_waves, 2);
}

TEST(PimSmSharedTreeHop, RpReachabilityForwardedAsTheRpSentIt) {
    check_rp_reachability_forwarded_as_sent(/*fragile_holdtime=*/false);
}

TEST(PimSmSharedTreeHop, FragileHoldtimeForwardedUnchanged) {
    check_rp_reachability_forwarded_as_sent(/*fragile_holdtime=*/true);
}

TEST_F(PimSmTest, RpReachabilityOffTheTreeIsNotForwarded) {
    join_receiver();
    std::vector<RpReachFrame> frames;
    tap_rp_reachability(topo_.net, frames);
    const int b_to_c = topo_.ifindex_toward(*topo_.b, *topo_.c);
    const int b_to_a = topo_.ifindex_toward(*topo_.b, *topo_.a);
    const auto* wc_b = stack_.pim_at(*topo_.b).cache().find_wc(kGroup);
    ASSERT_NE(wc_b, nullptr);
    ASSERT_EQ(wc_b->iif(), b_to_c);
    const sim::Time deadline = wc_b->rp_timer_deadline();

    // Frames B sends while handling one message that names `rp`.
    auto forwarded = [&](int ifindex, net::Ipv4Address rp) {
        frames.clear();
        inject_pim(*topo_.b, ifindex, topo_.c->router_id(),
                   pim::RpReachability{kGroup.address(), rp, 900000}.encode());
        return frames.size();
    };
    EXPECT_EQ(forwarded(b_to_a, topo_.c->router_id()), 0u) << "arrived off the iif";
    EXPECT_EQ(forwarded(b_to_c, topo_.d->router_id()), 0u) << "names another RP";
    EXPECT_EQ(wc_b->rp_timer_deadline(), deadline);
    // The same message from the RP direction goes on, to A only.
    ASSERT_EQ(forwarded(b_to_c, topo_.c->router_id()), 1u);
    EXPECT_EQ(frames[0].segment, topo_.net.find_link(*topo_.b, *topo_.a));
    EXPECT_GT(wc_b->rp_timer_deadline(), deadline);
}

// After warm-up, a transit router's shared-tree hops allocate nothing: an
// RP-Reachability forwarded down the tree, and a data packet forwarded on
// (*,G) (DataPlane → on_wildcard_forward → maybe_register, which turns the
// non-DR transit router away before any RP lookup).
TEST_F(PimSmTest, SharedTreeHopsAllocateNothing) {
    join_receiver();
    const int b_to_c = topo_.ifindex_toward(*topo_.b, *topo_.c);
    ASSERT_EQ(stack_.pim_at(*topo_.b).cache().find_wc(kGroup)->iif(), b_to_c);

    net::Packet reach;
    reach.src = topo_.c->router_id();
    reach.dst = net::kAllRouters;
    reach.proto = net::IpProto::kIgmp;
    reach.ttl = 1;
    reach.payload =
        pim::RpReachability{kGroup.address(), topo_.c->router_id(), 900000}.encode();
    net::Packet data;
    data.src = topo_.source->address();
    data.dst = kGroup.address();
    data.proto = net::IpProto::kUdp;
    data.ttl = 16;
    data.payload = std::vector<std::uint8_t>(64, 0xab);

    // Warm-up grows every pool the counted hops reuse (timer wheel,
    // delivery slots, the receiver's log).
    for (int i = 0; i < 4; ++i) {
        topo_.b->receive(b_to_c, reach);
        topo_.b->receive(b_to_c, data);
        topo_.net.run_for(10 * sim::kMillisecond);
    }
    ASSERT_EQ(topo_.receiver->received_count(kGroup), 4u);
    ASSERT_EQ(stack_.pim_at(*topo_.b).cache().find_sg(data.src, kGroup), nullptr);

    std::uint64_t before = g_alloc_count.load();
    topo_.b->receive(b_to_c, reach);
    EXPECT_EQ(g_alloc_count.load() - before, 0u) << "RP-Reachability hop allocated";
    before = g_alloc_count.load();
    topo_.b->receive(b_to_c, data);
    EXPECT_EQ(g_alloc_count.load() - before, 0u) << "(*,G) data hop allocated";
    topo_.net.run_for(10 * sim::kMillisecond);
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 5u);
}

// With tracing off, the SPT-bit hop formats nothing: a data packet arriving
// on a last-hop router's (S,G) iif before the SPT bit is set runs
// on_spt_bit_set (its spt-switch span lookup and kSptBitSet event) and
// forwards to the receiver LAN without one allocation. A second group is
// switched first so every pool and counter the hop uses is warm.
TEST_F(PimSmTest, SptBitHopWithTracingOffAllocatesNothing) {
    const net::GroupAddress warm{net::Ipv4Address(224, 1, 1, 2)};
    stack_.set_rp(warm, {topo_.c->router_id()});
    stack_.set_spt_policy(SptPolicy::immediate());
    join_receiver();
    stack_.host_agent(*topo_.receiver).join(warm);
    topo_.net.run_for(200 * sim::kMillisecond);
    topo_.source->send_stream(warm, 4, 20 * sim::kMillisecond);
    topo_.net.run_for(300 * sim::kMillisecond);
    topo_.source->send_stream(kGroup, 1, 20 * sim::kMillisecond);
    topo_.net.run_for(300 * sim::kMillisecond);

    // A switched kGroup to the SPT on the first packet; the second one,
    // arriving on the (S,G) iif, sets the SPT bit.
    const int a_to_b = topo_.ifindex_toward(*topo_.a, *topo_.b);
    const net::Ipv4Address source = topo_.source->address();
    const auto* sg = stack_.pim_at(*topo_.a).cache().find_sg(source, kGroup);
    ASSERT_NE(sg, nullptr);
    ASSERT_EQ(sg->iif(), a_to_b);
    ASSERT_FALSE(sg->spt_bit());
    ASSERT_TRUE(stack_.pim_at(*topo_.a).cache().find_sg(source, warm)->spt_bit());

    net::Packet data;
    data.src = source;
    data.dst = kGroup.address();
    data.proto = net::IpProto::kUdp;
    data.ttl = 16;
    data.seq = 2;
    data.payload = std::vector<std::uint8_t>(64, 0xab);
    const std::uint64_t before = g_alloc_count.load();
    topo_.a->receive(a_to_b, data);
    EXPECT_EQ(g_alloc_count.load() - before, 0u) << "SPT-bit hop allocated";
    EXPECT_TRUE(sg->spt_bit());
    topo_.net.run_for(10 * sim::kMillisecond);
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 2u);
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
