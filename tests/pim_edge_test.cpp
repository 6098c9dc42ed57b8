// Edge cases and adversarial inputs for PIM-SM: crafted join/prune
// messages, state machine corners (negative-cache conversion, footnote 12
// timer propagation, RP mismatch), RP-set precedence, and handler-level
// fuzzing of every control-plane entry point.
#include <gtest/gtest.h>

#include <random>

#include "pim/messages.hpp"
#include "test_util.hpp"
#include "topo/segment.hpp"

namespace pimlib::test {
namespace {

using pim::AddressEntry;
using pim::EntryFlags;

class PimEdgeTest : public ::testing::Test {
protected:
    PimEdgeTest() : stack_(topo_.net, fast_config()) {
        stack_.set_rp(kGroup, {topo_.c->router_id()});
        topo_.net.run_for(100 * sim::kMillisecond);
    }

    /// B's interface toward A and A's address on that link.
    std::pair<int, net::Ipv4Address> b_from_a() {
        auto* link = topo_.net.find_link(*topo_.a, *topo_.b);
        return {topo_.b->ifindex_on(*link).value(),
                topo_.a->interface(topo_.a->ifindex_on(*link).value()).address};
    }

    /// Delivers a one-record Join/Prune for `group` at B, sent by A to B.
    void inject_from_a(net::GroupAddress group, std::vector<AddressEntry> joins,
                       std::vector<AddressEntry> prunes) {
        auto [ifindex, from] = b_from_a();
        inject_pim(*topo_.b, ifindex, from,
                   join_prune(topo_.b->interface(ifindex).address,
                              {{group.address(), std::move(joins), std::move(prunes)}}));
    }

    Fig3Topology topo_;
    scenario::PimSmStack stack_;
};

TEST_F(PimEdgeTest, TransitRouterBuildsSharedTreeFromJoinAlone) {
    // B has no RP mapping configured for this group; the WC join carries the
    // RP address, which is all a transit router needs (§3.2: the RP address
    // is "included in upstream join messages").
    const net::GroupAddress g{net::Ipv4Address(229, 7, 7, 7)};
    const int ifindex = b_from_a().first;
    inject_from_a(g, {AddressEntry{topo_.c->router_id(), EntryFlags{true, true}}}, {});
    topo_.net.run_for(50 * sim::kMillisecond);

    auto* wc_b = stack_.pim_at(*topo_.b).cache().find_wc(g);
    ASSERT_NE(wc_b, nullptr);
    EXPECT_EQ(wc_b->source_or_rp(), topo_.c->router_id());
    EXPECT_TRUE(wc_b->has_oif(ifindex));
    // And it propagated: the RP terminated the join.
    EXPECT_NE(stack_.pim_at(*topo_.c).cache().find_wc(g), nullptr);
}

TEST_F(PimEdgeTest, WcJoinWithDifferentReachableRpKeepsCurrent) {
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    auto* wc_b = stack_.pim_at(*topo_.b).cache().find_wc(kGroup);
    ASSERT_NE(wc_b, nullptr);
    ASSERT_EQ(wc_b->source_or_rp(), topo_.c->router_id());

    // A rogue/partitioned downstream claims D is the RP. C is still
    // reachable, so B must not re-root its shared tree.
    inject_from_a(kGroup, {AddressEntry{topo_.d->router_id(), EntryFlags{true, true}}}, {});
    topo_.net.run_for(50 * sim::kMillisecond);
    EXPECT_EQ(stack_.pim_at(*topo_.b).cache().find_wc(kGroup)->source_or_rp(),
              topo_.c->router_id());
}

TEST_F(PimEdgeTest, PruneForUnknownStateIsHarmless) {
    inject_from_a(kGroup, {},
                  {
                      AddressEntry{topo_.source->address(), EntryFlags{false, false}}, // (S,G)
                      AddressEntry{topo_.c->router_id(), EntryFlags{true, true}},      // (*,G)
                  });
    topo_.net.run_for(50 * sim::kMillisecond);
    EXPECT_EQ(stack_.pim_at(*topo_.b).cache().size(), 0u);
}

TEST_F(PimEdgeTest, RpBitPruneWithoutSharedTreeIgnored) {
    // A negative cache only makes sense relative to an existing (*,G); an
    // RP-bit prune without one must not create state (§3.3).
    inject_from_a(kGroup, {}, {AddressEntry{topo_.source->address(), EntryFlags{false, true}}});
    topo_.net.run_for(50 * sim::kMillisecond);
    EXPECT_EQ(stack_.pim_at(*topo_.b).cache().size(), 0u);
}

TEST_F(PimEdgeTest, RpBitPruneCreatesNegativeCacheAndPropagates) {
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    // Craft A's RP-bit prune at B (as if A had switched to the SPT and its
    // SPT iif diverged — which it does not in this topology, so we build
    // the message by hand).
    const int ifindex = b_from_a().first;
    inject_from_a(kGroup, {}, {AddressEntry{topo_.source->address(), EntryFlags{false, true}}});
    topo_.net.run_for(100 * sim::kMillisecond);

    auto* neg = stack_.pim_at(*topo_.b).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(neg, nullptr);
    EXPECT_TRUE(neg->rp_bit());
    EXPECT_TRUE(neg->is_pruned(ifindex));
    // Its iif follows the shared tree toward the RP.
    EXPECT_EQ(neg->iif(), stack_.pim_at(*topo_.b).cache().find_wc(kGroup)->iif());
    // Empty negative cache propagated the prune: the RP's (*,G) branch to B
    // lost this source... i.e. C now holds a negative cache too.
    auto* neg_c = stack_.pim_at(*topo_.c).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(neg_c, nullptr);

    // A subsequent (*,G) join on the pruned interface reinstates delivery
    // (join overrides, §3.7 semantics).
    inject_from_a(kGroup, {AddressEntry{topo_.c->router_id(), EntryFlags{true, true}}}, {});
    EXPECT_FALSE(neg->is_pruned(ifindex));
    EXPECT_TRUE(neg->has_oif(ifindex));
}

TEST_F(PimEdgeTest, NegativeCacheConvertsToRealEntryOnSgJoin) {
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    const int ifindex = b_from_a().first;
    // First create the negative cache...
    inject_from_a(kGroup, {}, {AddressEntry{topo_.source->address(), EntryFlags{false, true}}});
    auto* entry = stack_.pim_at(*topo_.b).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(entry, nullptr);
    ASSERT_TRUE(entry->rp_bit());

    // ...then a genuine (S,G) join arrives: the entry becomes a real
    // shortest-path entry rooted toward the source.
    inject_from_a(kGroup, {AddressEntry{topo_.source->address(), EntryFlags{false, false}}}, {});
    topo_.net.run_for(50 * sim::kMillisecond);

    entry = stack_.pim_at(*topo_.b).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->rp_bit());
    EXPECT_EQ(entry->iif(), topo_.ifindex_toward(*topo_.b, *topo_.d));
    EXPECT_TRUE(entry->has_oif(ifindex));
}

TEST_F(PimEdgeTest, Footnote12WcJoinRefreshesSgOifTimers) {
    // "When a timer is reset for an outgoing interface listed in (*,G)
    // entry, we should also reset the interface timers for all (S,G)
    // entries which contain that interface."
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    const int ifindex = b_from_a().first;
    // Give B an (S,G) entry whose only refresh will come from (*,G) joins.
    inject_from_a(kGroup, {AddressEntry{topo_.source->address(), EntryFlags{false, false}}}, {});
    auto* sg = stack_.pim_at(*topo_.b).cache().find_sg(topo_.source->address(), kGroup);
    ASSERT_NE(sg, nullptr);
    ASSERT_NE(sg->find_oif(ifindex), nullptr);
    const sim::Time before = sg->find_oif(ifindex)->expires;

    topo_.net.run_for(100 * sim::kMillisecond);
    inject_from_a(kGroup, {AddressEntry{topo_.c->router_id(), EntryFlags{true, true}}}, {});
    ASSERT_NE(sg->find_oif(ifindex), nullptr);
    EXPECT_GT(sg->find_oif(ifindex)->expires, before);
}

TEST_F(PimEdgeTest, NonMulticastRecordSkippedLaterRecordApplied) {
    // A record whose group is not multicast is skipped; the records after
    // it in the same message still apply.
    const net::GroupAddress g{net::Ipv4Address(229, 7, 7, 7)};
    const AddressEntry wc_join{topo_.c->router_id(), EntryFlags{true, true}};
    auto [ifindex, from] = b_from_a();
    inject_pim(*topo_.b, ifindex, from,
               join_prune(topo_.b->interface(ifindex).address,
                          {{net::Ipv4Address(10, 9, 9, 9), {wc_join}, {}},
                           {g.address(), {wc_join}, {}}}));
    EXPECT_EQ(stack_.pim_at(*topo_.b).cache().size(), 1u);
    ASSERT_NE(stack_.pim_at(*topo_.b).cache().find_wc(g), nullptr);
    EXPECT_TRUE(stack_.pim_at(*topo_.b).cache().find_wc(g)->has_oif(ifindex));
}

TEST_F(PimEdgeTest, RetiredJoinPruneCodeChangesNoState) {
    // Code 2 was the single-group Join/Prune. A well-formed frame in that
    // layout is an unknown message now and must not touch any state.
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    auto [ifindex, from] = b_from_a();
    const net::Ipv4Address to_b = topo_.b->interface(ifindex).address;
    const AddressEntry wc{topo_.c->router_id(), EntryFlags{true, true}};
    const net::GroupAddress fresh{net::Ipv4Address(229, 7, 7, 7)};
    pim::PimSmRouter& pim_b = stack_.pim_at(*topo_.b);
    ASSERT_TRUE(pim_b.cache().find_wc(kGroup)->has_oif(ifindex));
    const std::size_t entries = pim_b.cache().size();
    const auto sent = pim_b.join_prune_messages_sent();

    const auto prune = join_prune(to_b, {{kGroup.address(), {}, {wc}}});
    inject_pim(*topo_.b, ifindex, from, as_retired_code(prune));
    inject_pim(*topo_.b, ifindex, from,
               as_retired_code(join_prune(to_b, {{fresh.address(), {wc}, {}}})));
    EXPECT_TRUE(pim_b.cache().find_wc(kGroup)->has_oif(ifindex));
    EXPECT_EQ(pim_b.cache().find_wc(fresh), nullptr);
    EXPECT_EQ(pim_b.cache().size(), entries);
    EXPECT_EQ(pim_b.join_prune_messages_sent(), sent);

    // The same prune as a Join/Prune does take effect.
    inject_pim(*topo_.b, ifindex, from, prune);
    EXPECT_FALSE(pim_b.cache().find_wc(kGroup)->has_oif(ifindex));
}

TEST_F(PimEdgeTest, RpReachabilityOnWrongInterfaceIgnored) {
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    auto* wc_a = stack_.pim_at(*topo_.a).cache().find_wc(kGroup);
    ASSERT_NE(wc_a, nullptr);
    const sim::Time deadline = wc_a->rp_timer_deadline();

    // Spoofed reachability arriving on the receiver LAN (not the iif).
    pim::RpReachability msg{kGroup.address(), topo_.c->router_id(), 900000};
    net::Packet packet;
    packet.src = net::Ipv4Address(10, 0, 0, 99);
    packet.dst = net::kAllRouters;
    packet.proto = net::IpProto::kIgmp;
    packet.ttl = 1;
    packet.payload = msg.encode();
    topo_.a->receive(/*ifindex=*/0, packet);
    EXPECT_EQ(wc_a->rp_timer_deadline(), deadline);
}

TEST_F(PimEdgeTest, JoinForOwnAddressAtRpDoesNotLoop) {
    // The RP "recognizes its own address and does not attempt to send join
    // messages for this entry upstream" (§3.2).
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(500 * sim::kMillisecond);
    auto* wc_c = stack_.pim_at(*topo_.c).cache().find_wc(kGroup);
    ASSERT_NE(wc_c, nullptr);
    EXPECT_EQ(wc_c->iif(), -1);
    EXPECT_FALSE(wc_c->upstream_neighbor().has_value());
}

TEST(RpSetTest, PrecedenceExactLearnedRange) {
    pim::RpSet set;
    const net::GroupAddress g1{net::Ipv4Address(224, 1, 0, 5)};
    const net::Ipv4Address rp_static(192, 168, 0, 1);
    const net::Ipv4Address rp_learned(192, 168, 0, 2);
    const net::Ipv4Address rp_range(192, 168, 0, 3);
    const net::Ipv4Address rp_wide(192, 168, 0, 4);

    EXPECT_FALSE(set.has_mapping(g1));
    set.configure_range(net::Prefix{net::Ipv4Address(224, 0, 0, 0), 4}, {rp_wide});
    set.configure_range(net::Prefix{net::Ipv4Address(224, 1, 0, 0), 16}, {rp_range});
    EXPECT_EQ(rps_of(set, g1), std::vector<net::Ipv4Address>{rp_range}); // longest range
    const net::GroupAddress other{net::Ipv4Address(230, 0, 0, 1)};
    EXPECT_EQ(rps_of(set, other), std::vector<net::Ipv4Address>{rp_wide});

    set.learn(g1, {rp_learned});
    EXPECT_EQ(rps_of(set, g1), std::vector<net::Ipv4Address>{rp_learned});
    set.configure(g1, {rp_static});
    EXPECT_EQ(rps_of(set, g1), std::vector<net::Ipv4Address>{rp_static}); // config wins
}

TEST(RpSetTest, DynamicLayerIsConsultedLast) {
    // Every static layer outranks the BSR-learned election; the dynamic
    // layer only answers when nothing else matches.
    pim::RpSet set;
    const net::GroupAddress g{net::Ipv4Address(224, 1, 0, 5)};
    const net::Ipv4Address rp_dynamic(192, 168, 0, 9);
    const net::Ipv4Address rp_range(192, 168, 0, 3);
    const net::Ipv4Address rp_static(192, 168, 0, 1);

    EXPECT_TRUE(set.set_dynamic(
        {{net::Prefix{net::Ipv4Address(224, 0, 0, 0), 4}, rp_dynamic, 0}}));
    EXPECT_EQ(rps_of(set, g), std::vector<net::Ipv4Address>{rp_dynamic});

    set.configure_range(net::Prefix{net::Ipv4Address(224, 1, 0, 0), 16}, {rp_range});
    EXPECT_EQ(rps_of(set, g), std::vector<net::Ipv4Address>{rp_range});
    set.configure(g, {rp_static});
    EXPECT_EQ(rps_of(set, g), std::vector<net::Ipv4Address>{rp_static});

    // Replacing the layer with the same contents is not a change; clearing
    // it is.
    EXPECT_FALSE(set.set_dynamic(
        {{net::Prefix{net::Ipv4Address(224, 0, 0, 0), 4}, rp_dynamic, 0}}));
    EXPECT_TRUE(set.set_dynamic({}));
    const net::GroupAddress uncovered{net::Ipv4Address(230, 0, 0, 1)};
    EXPECT_TRUE(set.rps_for(uncovered).empty());
}

TEST(RpSetTest, DynamicElectionPrecedence) {
    // §4.7.2 election order within the dynamic layer: longest matching
    // range, then highest priority, then highest hash value.
    pim::RpSet set;
    const net::GroupAddress g{net::Ipv4Address(224, 1, 0, 5)};
    const net::Ipv4Address rp_wide(192, 168, 0, 4);
    const net::Ipv4Address rp_long(192, 168, 0, 5);
    const net::Ipv4Address rp_long_hi(192, 168, 0, 6);

    (void)set.set_dynamic({
        {net::Prefix{net::Ipv4Address(224, 0, 0, 0), 4}, rp_wide, 200},
        {net::Prefix{net::Ipv4Address(224, 1, 0, 0), 16}, rp_long, 0},
    });
    // The /16 beats the /4 despite the /4's higher priority.
    EXPECT_EQ(set.dynamic_rp_for(g), rp_long);

    (void)set.set_dynamic({
        {net::Prefix{net::Ipv4Address(224, 1, 0, 0), 16}, rp_long, 0},
        {net::Prefix{net::Ipv4Address(224, 1, 0, 0), 16}, rp_long_hi, 7},
    });
    // Same range: priority wins.
    EXPECT_EQ(set.dynamic_rp_for(g), rp_long_hi);
}

TEST(RpSetTest, HashMatchesPublishedFunction) {
    // Value(G,M,C) = (1103515245 * ((1103515245 * (G&M) + 12345) XOR C)
    //                 + 12345) mod 2^31, straight from RFC 7761 §4.7.2.
    auto reference = [](std::uint32_t gm, std::uint32_t c) {
        const std::uint64_t inner = (1103515245ull * gm + 12345ull) ^ c;
        return static_cast<std::uint32_t>((1103515245ull * inner + 12345ull) &
                                          0x7fffffffu);
    };
    const std::uint32_t g = net::Ipv4Address(224, 1, 2, 3).to_uint() & 0xFFFFFFFCu;
    const std::uint32_t c1 = net::Ipv4Address(192, 168, 0, 1).to_uint();
    const std::uint32_t c2 = net::Ipv4Address(10, 9, 8, 7).to_uint();
    EXPECT_EQ(pim::RpSet::hash_value(g, c1), reference(g, c1));
    EXPECT_EQ(pim::RpSet::hash_value(g, c2), reference(g, c2));
    EXPECT_LT(pim::RpSet::hash_value(g, c1), 0x80000000u);
}

TEST(RpSetTest, HashElectionDeterministicAndMaskBlocks) {
    // Two candidates for the same wide range: every "router" (a fresh
    // RpSet handed the same flooded entries) elects the same RP, and with
    // the default /30 hash mask four consecutive group addresses land on
    // the same RP (RFC 7761's block-assignment property).
    const std::vector<pim::RpSet::DynamicRp> flooded = {
        {net::Prefix{net::Ipv4Address(224, 0, 0, 0), 4},
         net::Ipv4Address(192, 168, 0, 7), 0},
        {net::Prefix{net::Ipv4Address(224, 0, 0, 0), 4},
         net::Ipv4Address(192, 168, 0, 9), 0},
    };
    pim::RpSet a;
    pim::RpSet b;
    (void)a.set_dynamic(flooded);
    (void)b.set_dynamic(flooded);
    bool spread = false;
    std::optional<net::Ipv4Address> previous_block;
    for (std::uint32_t block = 0; block < 64; block += 4) {
        const net::GroupAddress g0{net::Ipv4Address(0xE1000000u + block)};
        const auto elected = a.dynamic_rp_for(g0);
        ASSERT_TRUE(elected.has_value());
        EXPECT_EQ(b.dynamic_rp_for(g0), elected); // domain-wide agreement
        for (std::uint32_t i = 1; i < 4; ++i) {
            const net::GroupAddress gi{net::Ipv4Address(0xE1000000u + block + i)};
            EXPECT_EQ(a.dynamic_rp_for(gi), elected) << "within one /30 block";
        }
        if (previous_block.has_value() && *previous_block != *elected) spread = true;
        previous_block = elected;
    }
    // The hash must actually spread groups over both candidates (64
    // consecutive groups all hashing to one RP would defeat the load
    // balancing the mask exists for).
    EXPECT_TRUE(spread);
}

TEST(PimConfigTest, ScalingIsUniform) {
    pim::PimConfig cfg;
    const pim::PimConfig scaled = cfg.scaled(0.5);
    EXPECT_EQ(scaled.join_prune_interval, cfg.join_prune_interval / 2);
    EXPECT_EQ(scaled.holdtime, cfg.holdtime / 2);
    EXPECT_EQ(scaled.query_interval, cfg.query_interval / 2);
    EXPECT_EQ(scaled.rp_timeout, cfg.rp_timeout / 2);
    EXPECT_EQ(scaled.override_delay, cfg.override_delay / 2);
    // Ratios preserved.
    EXPECT_EQ(scaled.holdtime, 3 * scaled.join_prune_interval);
}

// --- §3.7 multi-access LAN timing ---
//
// Two downstream routers share a transit LAN below one upstream router:
//
//   RP — U — transit LAN — { D1 — lan1 (r1),  D2 — lan2 (r2) }
//
// A prune on the LAN is held by the upstream for 2× the override delay so
// a router that still has members can override it with a join; periodic
// joins from one downstream suppress the other's.
class LanTimingTest : public ::testing::Test {
protected:
    LanTimingTest() {
        rp_ = &net_.add_router("RP");
        u_ = &net_.add_router("U");
        d1_ = &net_.add_router("D1");
        d2_ = &net_.add_router("D2");
        net_.add_link(*rp_, *u_);
        transit_ = &net_.add_lan({u_, d1_, d2_});
        auto& lan1 = net_.add_lan({d1_});
        r1_ = &net_.add_host("r1", lan1);
        auto& lan2 = net_.add_lan({d2_});
        r2_ = &net_.add_host("r2", lan2);
        auto& slan = net_.add_lan({rp_});
        source_ = &net_.add_host("source", slan);
        routing_ = std::make_unique<unicast::OracleRouting>(net_);
        stack_ = std::make_unique<scenario::PimSmStack>(net_, fast_config());
        stack_->set_rp(kGroup, {rp_->router_id()});
        stack_->set_spt_policy(pim::SptPolicy::never());
        net_.run_for(200 * sim::kMillisecond);
    }

    bool u_serves_lan() {
        auto* wc = stack_->pim_at(*u_).cache().find_wc(kGroup);
        return wc != nullptr && wc->has_oif(u_->ifindex_on(*transit_).value());
    }

    topo::Network net_;
    topo::Router* rp_ = nullptr;
    topo::Router* u_ = nullptr;
    topo::Router* d1_ = nullptr;
    topo::Router* d2_ = nullptr;
    topo::Segment* transit_ = nullptr;
    topo::Host* r1_ = nullptr;
    topo::Host* r2_ = nullptr;
    topo::Host* source_ = nullptr;
    std::unique_ptr<unicast::OracleRouting> routing_;
    std::unique_ptr<scenario::PimSmStack> stack_;
};

TEST_F(LanTimingTest, JoinOverrideRacesPendingPrune) {
    stack_->host_agent(*r1_).join(kGroup);
    stack_->host_agent(*r2_).join(kGroup);
    net_.run_for(300 * sim::kMillisecond);
    ASSERT_TRUE(u_serves_lan());

    // r2 falls silent; D2's membership ages out (IGMPv1 has no leave
    // message) and D2 prunes the LAN. D1 must overhear and override inside
    // U's 2×override_delay hold — across a full holdtime U never stops
    // serving the LAN and no packet is lost.
    const auto d2_before = stack_->pim_at(*d2_).join_prune_messages_sent();
    stack_->host_agent(*r2_).leave(kGroup);
    net_.run_for(2 * sim::kSecond);
    EXPECT_GT(stack_->pim_at(*d2_).join_prune_messages_sent(), d2_before)
        << "D2 never sent its prune; the override was not exercised";
    EXPECT_TRUE(u_serves_lan());

    source_->send_stream(kGroup, 5, 50 * sim::kMillisecond);
    net_.run_for(1 * sim::kSecond);
    EXPECT_EQ(r1_->received_count(kGroup), 5u);
    EXPECT_EQ(r1_->duplicate_count(), 0u);
    EXPECT_EQ(r2_->received_count(kGroup), 0u);
}

TEST_F(LanTimingTest, SuppressionExpiresAndRefreshResumes) {
    stack_->host_agent(*r1_).join(kGroup);
    stack_->host_agent(*r2_).join(kGroup);
    net_.run_for(300 * sim::kMillisecond);

    // While both are joined, each overhears the other's refresh of the same
    // (*,G) toward U and suppresses its own: the pair sends roughly one
    // join per refresh interval, not two.
    const auto d1_before = stack_->pim_at(*d1_).join_prune_messages_sent();
    const auto d2_before = stack_->pim_at(*d2_).join_prune_messages_sent();
    net_.run_for(6 * sim::kSecond); // 10 join/prune intervals
    const auto joint = (stack_->pim_at(*d1_).join_prune_messages_sent() - d1_before) +
                       (stack_->pim_at(*d2_).join_prune_messages_sent() - d2_before);
    EXPECT_LT(joint, 16u) << "suppression is not reducing LAN join traffic";
    EXPECT_GE(joint, 8u);

    // r2 departs, so D2 goes quiet for good. D1's suppression mark (1.5×
    // refresh, jittered) must expire rather than stick: D1 resumes its own
    // periodic joins and keeps U's LAN oif alive well past a holdtime.
    stack_->host_agent(*r2_).leave(kGroup);
    net_.run_for(1 * sim::kSecond); // membership ages out, prune + override settle
    const auto d1_solo_before = stack_->pim_at(*d1_).join_prune_messages_sent();
    net_.run_for(4 * sim::kSecond); // > 2 × holdtime with nobody else refreshing
    EXPECT_GE(stack_->pim_at(*d1_).join_prune_messages_sent() - d1_solo_before, 2u)
        << "D1 never came out of suppression";
    EXPECT_TRUE(u_serves_lan());

    source_->send_stream(kGroup, 3, 20 * sim::kMillisecond);
    net_.run_for(1 * sim::kSecond);
    EXPECT_EQ(r1_->received_count(kGroup), 3u);
}

TEST_F(LanTimingTest, OverrideAfterDepartureIsNoOp) {
    // Only r1 is a member. After it departs and D1's membership ages out,
    // D1 still holds the (*,G) entry in its soft-state grace period — but
    // with an empty oif list an overheard peer prune must NOT trigger an
    // override join (§3.7: overriding for state nobody downstream wants
    // would rebuild the tree arm for no one).
    stack_->host_agent(*r1_).join(kGroup);
    net_.run_for(300 * sim::kMillisecond);
    ASSERT_TRUE(u_serves_lan());
    stack_->host_agent(*r1_).leave(kGroup);
    net_.run_for(600 * sim::kMillisecond); // membership times out; oifs empty
    {
        auto* wc = stack_->pim_at(*d1_).cache().find_wc(kGroup);
        ASSERT_NE(wc, nullptr) << "entry should linger in its deletion grace";
        ASSERT_TRUE(wc->oif_list_empty(net_.simulator().now()));
    }
    // D1's ageout prune rides its next periodic refresh; U holds it for
    // 2× override delay and — with nobody overriding — drops the LAN oif.
    // Run past that refresh so the quiescent state is established before
    // the injection (and the next refresh stays outside the test window).
    net_.run_for(150 * sim::kMillisecond);
    ASSERT_FALSE(u_serves_lan()) << "U never processed D1's ageout prune";

    // A peer's (*,G) prune appears on the transit LAN (as D2 would send).
    auto* wc_d1 = stack_->pim_at(*d1_).cache().find_wc(kGroup);
    ASSERT_NE(wc_d1, nullptr) << "entry should linger in its deletion grace";
    const int d1_if = d1_->ifindex_on(*transit_).value();
    const int d2_if = d2_->ifindex_on(*transit_).value();
    const auto prune = join_prune(
        wc_d1->upstream_neighbor().value_or(
            u_->interface(u_->ifindex_on(*transit_).value()).address),
        {{kGroup.address(), {}, {AddressEntry{rp_->router_id(), EntryFlags{true, true}}}}});
    const auto d1_before = stack_->pim_at(*d1_).join_prune_messages_sent();
    inject_pim(*d1_, d1_if, d2_->interface(d2_if).address, prune);
    net_.run_for(100 * sim::kMillisecond); // >> 2 × override delay (5 ms)
    EXPECT_EQ(stack_->pim_at(*d1_).join_prune_messages_sent(), d1_before)
        << "D1 sent an override join for state it no longer wants";
    EXPECT_FALSE(u_serves_lan());
}

// Handler-level fuzz: random bytes thrown at every control-plane entry
// point of a live PIM network must neither crash nor corrupt delivery.
TEST_F(PimEdgeTest, HandlersSurviveGarbageControlTraffic) {
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);

    std::mt19937 rng(99);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> len(0, 48);
    std::uniform_int_distribution<int> proto_pick(0, 4);
    const net::IpProto protos[] = {net::IpProto::kIgmp, net::IpProto::kCbt,
                                   net::IpProto::kOspf, net::IpProto::kRip,
                                   net::IpProto::kUdp};
    for (int trial = 0; trial < 2000; ++trial) {
        net::Packet packet;
        packet.src = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(trial % 250 + 1));
        packet.dst = trial % 3 == 0 ? net::kAllRouters
                                    : net::Ipv4Address(224, 0, 0, 1);
        packet.proto = protos[proto_pick(rng)];
        packet.ttl = 1;
        std::vector<std::uint8_t> bytes(static_cast<std::size_t>(len(rng)));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(byte(rng));
        // Bias half the trials toward plausible PIM headers, cycling through
        // all eight code values (the retired 2 included), so every decoder
        // and handler gets exercised.
        if (trial % 2 == 0 && bytes.size() >= 2) {
            bytes[0] = 0x14;
            bytes[1] = static_cast<std::uint8_t>((trial / 2) % 8);
        }
        packet.payload = bytes; // payloads are immutable: build, then assign
        topo_.b->receive(trial % topo_.b->interface_count(), packet);
    }
    topo_.net.run_for(200 * sim::kMillisecond);

    // The network still works.
    topo_.source->send_stream(kGroup, 3, 20 * sim::kMillisecond);
    topo_.net.run_for(500 * sim::kMillisecond);
    EXPECT_EQ(topo_.receiver->received_count(kGroup), 3u);
    EXPECT_EQ(topo_.receiver->duplicate_count(), 0u);
}

} // namespace
} // namespace pimlib::test
