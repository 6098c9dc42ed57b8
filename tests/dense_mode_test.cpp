// Flood-and-prune behaviour that PIM dense mode and DVMRP share, run over
// both wires: entry expiry, the checks every decoded prune and graft
// passes (multicast group, not the entry's own iif, a real interface),
// and hostile bytes on each protocol's IGMP type.
#include <gtest/gtest.h>

#include <random>

#include "dvmrp/dvmrp.hpp"
#include "igmp/messages.hpp"
#include "test_util.hpp"

namespace pimlib::test {
namespace {

// source—LAN—R1—R2—{R3—memberLAN, R4—emptyLAN}
struct DenseWorld {
    topo::Network net;
    topo::Router* r1;
    topo::Router* r2;
    topo::Router* r3;
    topo::Router* r4;
    topo::Host* source;
    topo::Host* member;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<scenario::StackBase> stack;

    explicit DenseWorld(const std::string& protocol) {
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
        net.add_lan({r4});
        routing = std::make_unique<unicast::OracleRouting>(net);
        if (protocol == "pim-dm") {
            stack = std::make_unique<scenario::PimDmStack>(net, fast_config());
        } else {
            stack = std::make_unique<scenario::DvmrpStack>(net, fast_config());
        }
        net.run_for(100 * sim::kMillisecond); // neighbor discovery
    }

    [[nodiscard]] const mcast::ForwardingEntry* sg_at(const topo::Router& router) {
        return stack->cache_of(router)->find_sg(source->address(), kGroup);
    }

    /// Joins the member and floods one packet to it.
    void flood_once() {
        stack->host_agent(*member).join(kGroup);
        net.run_for(100 * sim::kMillisecond);
        source->send_data(kGroup);
        net.run_for(100 * sim::kMillisecond);
    }

    /// `at`'s interface toward `peer`, and the addresses on both ends.
    struct Hop {
        int ifindex;
        net::Ipv4Address local;
        net::Ipv4Address peer;
    };
    [[nodiscard]] Hop hop(const topo::Router& at, const topo::Router& peer) {
        topo::Segment* link = net.find_link(at, peer);
        const int ifindex = at.ifindex_on(*link).value();
        return {ifindex, at.interface(ifindex).address,
                peer.interface(peer.ifindex_on(*link).value()).address};
    }
};

/// A one-entry prune (or graft) of (source, group) in `protocol`'s wire
/// format, addressed to `upstream` where the format names it.
std::vector<std::uint8_t> prune_bytes(const std::string& protocol, bool graft,
                                      net::Ipv4Address upstream, net::Ipv4Address source,
                                      net::Ipv4Address group) {
    if (protocol == "pim-dm") {
        const pim::AddressEntry entry{source, {}};
        pim::JoinPruneBundle::GroupRecord rec{group, {}, {}};
        (graft ? rec.joins : rec.prunes).push_back(entry);
        return join_prune(upstream, {rec});
    }
    if (graft) return dvmrp::GraftMsg{source, group}.encode();
    return dvmrp::PruneMsg{source, group, 1800}.encode();
}

class DenseModeTest : public ::testing::TestWithParam<std::string> {
protected:
    DenseWorld w{GetParam()};
};

TEST_P(DenseModeTest, EntryExpiresWhenSourceStops) {
    w.flood_once();
    ASSERT_NE(w.sg_at(*w.r1), nullptr);
    // R2 regrew its pruned branch toward R4 meanwhile; that must not keep
    // the entry alive either.
    w.net.run_for(5 * sim::kSecond);
    for (const topo::Router* r : {w.r1, w.r2, w.r3, w.r4}) {
        EXPECT_EQ(w.sg_at(*r), nullptr) << r->name();
    }
}

TEST_P(DenseModeTest, NonMulticastGroupChangesNothing) {
    w.flood_once();
    const DenseWorld::Hop h = w.hop(*w.r2, *w.r3);
    const std::uint64_t key = w.stack->state_key();
    const std::uint64_t sent = w.net.stats().total_control_messages();
    for (const bool graft : {false, true}) {
        inject_pim(*w.r2, h.ifindex, h.peer,
                   prune_bytes(GetParam(), graft, h.local, w.source->address(),
                               net::Ipv4Address(10, 9, 9, 9)));
    }
    EXPECT_TRUE(w.sg_at(*w.r2)->has_oif(h.ifindex));
    EXPECT_EQ(w.stack->state_key(), key);
    EXPECT_EQ(w.net.stats().total_control_messages(), sent);
}

TEST_P(DenseModeTest, PruneOnOwnIifChangesNoOifAndSendsNothing) {
    w.flood_once();
    const sim::Time now = w.net.simulator().now();
    // At R2 the iif faces R1, and R3 is still downstream.
    const DenseWorld::Hop up = w.hop(*w.r2, *w.r1);
    ASSERT_EQ(w.sg_at(*w.r2)->iif(), up.ifindex);
    const std::vector<int> oifs = live_oifs(*w.sg_at(*w.r2), now);
    ASSERT_FALSE(oifs.empty());
    std::uint64_t sent = w.net.stats().total_control_messages();
    inject_pim(*w.r2, up.ifindex, up.peer,
               prune_bytes(GetParam(), false, up.local, w.source->address(),
                           kGroup.address()));
    EXPECT_EQ(live_oifs(*w.sg_at(*w.r2), now), oifs);
    EXPECT_EQ(w.net.stats().total_control_messages(), sent);

    // R3 with its member gone has nothing downstream and has not pruned
    // yet: a prune on its iif must still not send one upstream.
    w.stack->host_agent(*w.member).leave(kGroup);
    w.net.run_for(400 * sim::kMillisecond);
    const DenseWorld::Hop r3_up = w.hop(*w.r3, *w.r2);
    const mcast::ForwardingEntry* sg = w.sg_at(*w.r3);
    ASSERT_NE(sg, nullptr);
    ASSERT_EQ(sg->iif(), r3_up.ifindex);
    ASSERT_TRUE(sg->oif_list_empty(w.net.simulator().now()));
    sent = w.net.stats().total_control_messages();
    inject_pim(*w.r3, r3_up.ifindex, r3_up.peer,
               prune_bytes(GetParam(), false, r3_up.local, w.source->address(),
                           kGroup.address()));
    EXPECT_EQ(w.net.stats().total_control_messages(), sent);
}

TEST_P(DenseModeTest, FrameOffAnyInterfaceChangesNothing) {
    // A frame delivered with no interface (ifindex -1, a unicast packet
    // addressed to the router itself) is not a neighbor's message.
    w.flood_once();
    const DenseWorld::Hop h = w.hop(*w.r2, *w.r3);
    const std::uint64_t key = w.stack->state_key();
    const std::uint64_t sent = w.net.stats().total_control_messages();
    for (const bool graft : {false, true}) {
        inject_pim(*w.r2, -1, h.peer,
                   prune_bytes(GetParam(), graft, h.local, w.source->address(),
                               kGroup.address()));
    }
    EXPECT_EQ(w.stack->state_key(), key);
    EXPECT_EQ(w.net.stats().total_control_messages(), sent);
    EXPECT_TRUE(w.sg_at(*w.r2)->has_oif(h.ifindex));
}

TEST_P(DenseModeTest, RandomBytesChangeNoForwardingState) {
    w.flood_once();
    const std::uint64_t key = w.stack->state_key();
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> length(0, 40);
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::uint8_t> payload(length(rng));
        for (auto& b : payload) b = static_cast<std::uint8_t>(byte(rng));
        // Mostly well-typed headers, so the decoders past the demux run.
        if (!payload.empty()) payload[0] = i % 2 == 0 ? igmp::kTypePim : igmp::kTypeDvmrp;
        if (payload.size() > 1 && i % 3 != 0) payload[1] = static_cast<std::uint8_t>(i % 8);
        for (topo::Router* r : {w.r1, w.r2, w.r3, w.r4}) {
            const int ifindex = static_cast<int>(
                static_cast<std::size_t>(i) % r->interfaces().size());
            inject_pim(*r, ifindex, net::Ipv4Address(10, 77, 0, 1), payload);
        }
    }
    EXPECT_EQ(w.stack->state_key(), key);
}

INSTANTIATE_TEST_SUITE_P(Wires, DenseModeTest, ::testing::Values("pim-dm", "dvmrp"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             return info.param == "pim-dm" ? "PimDm" : "Dvmrp";
                         });

TEST(DenseModeWire, PimDmJoinPruneToAnotherRouterPrunesNothing) {
    DenseWorld w("pim-dm");
    w.flood_once();
    const DenseWorld::Hop h = w.hop(*w.r2, *w.r3);
    ASSERT_TRUE(w.sg_at(*w.r2)->has_oif(h.ifindex));
    // Addressed to R3 itself, the other router on the link.
    inject_pim(*w.r2, h.ifindex, h.peer,
               prune_bytes("pim-dm", false, h.peer, w.source->address(), kGroup.address()));
    EXPECT_TRUE(w.sg_at(*w.r2)->has_oif(h.ifindex));
    // The same prune addressed to R2 does take effect.
    inject_pim(*w.r2, h.ifindex, h.peer,
               prune_bytes("pim-dm", false, h.local, w.source->address(), kGroup.address()));
    EXPECT_FALSE(w.sg_at(*w.r2)->has_oif(h.ifindex));
}

} // namespace
} // namespace pimlib::test
