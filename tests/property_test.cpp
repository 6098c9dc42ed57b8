// Property tests over randomly generated internetworks: delivery
// exactly-once invariants for every protocol, soft-state cleanup, and
// structural invariants of PIM forwarding entries. Parameterized by seed.
#include <gtest/gtest.h>

#include <random>

#include "graph/random_graph.hpp"
#include "test_util.hpp"
#include "topo/segment.hpp"

namespace pimlib::test {
namespace {

using pim::SptPolicy;

/// A random internetwork: a connected router backbone from the graph
/// toolkit, with a member LAN hanging off each of `lan_count` distinct
/// routers; hosts[0] doubles as the source.
struct RandomInternet {
    topo::Network net;
    std::vector<topo::Router*> routers;
    std::vector<topo::Host*> hosts; // hosts[i] on LAN of lan_router[i]
    std::vector<topo::Router*> lan_routers;
    std::unique_ptr<unicast::OracleRouting> routing;

    RandomInternet(std::uint32_t seed, int router_count, int lan_count) {
        std::mt19937 rng(seed);
        graph::Graph g = graph::random_connected_graph(
            {.nodes = router_count, .average_degree = 3.0}, rng);
        for (int i = 0; i < router_count; ++i) {
            routers.push_back(&net.add_router("r" + std::to_string(i)));
        }
        for (int u = 0; u < router_count; ++u) {
            for (const auto& e : g.neighbors(u)) {
                if (e.to > u) net.add_link(*routers[u], *routers[e.to]);
            }
        }
        for (int idx : graph::sample_nodes(router_count, lan_count, rng)) {
            auto& lan = net.add_lan({routers[static_cast<std::size_t>(idx)]});
            hosts.push_back(&net.add_host("h" + std::to_string(idx), lan));
            lan_routers.push_back(routers[static_cast<std::size_t>(idx)]);
        }
        routing = std::make_unique<unicast::OracleRouting>(net);
    }
};

class PimSmPropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PimSmPropertyTest, ExactlyOnceDeliveryOnRandomTopology) {
    RandomInternet t(GetParam(), 12, 5);
    scenario::PimSmStack stack(t.net, fast_config());
    // Random RP choice: any backbone router.
    std::mt19937 rng(GetParam() * 7 + 1);
    std::uniform_int_distribution<std::size_t> pick(0, t.routers.size() - 1);
    stack.set_rp(kGroup, {t.routers[pick(rng)]->router_id()});
    stack.set_spt_policy(GetParam() % 2 == 0 ? SptPolicy::immediate()
                                             : SptPolicy::never());
    t.net.run_for(200 * sim::kMillisecond);

    // hosts[1..] are receivers; hosts[0] is the source.
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        stack.host_agent(*t.hosts[i]).join(kGroup);
    }
    t.net.run_for(400 * sim::kMillisecond);

    // Warm-up packet establishes register/native paths (and, under the
    // immediate policy, the SPTs); transients allowed here.
    t.hosts[0]->send_data(kGroup);
    t.net.run_for(1 * sim::kSecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) t.hosts[i]->clear_received();

    // The measured stream must arrive exactly once at every member.
    constexpr int kPackets = 10;
    t.hosts[0]->send_stream(kGroup, kPackets, 50 * sim::kMillisecond);
    t.net.run_for(2 * sim::kSecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        EXPECT_EQ(t.hosts[i]->received_count(kGroup), static_cast<std::size_t>(kPackets))
            << "receiver " << i << " seed " << GetParam();
        EXPECT_EQ(t.hosts[i]->duplicate_count(), 0u)
            << "receiver " << i << " seed " << GetParam();
    }
}

TEST_P(PimSmPropertyTest, EntryInvariantsHoldEverywhere) {
    RandomInternet t(GetParam() + 1000, 10, 4);
    scenario::PimSmStack stack(t.net, fast_config());
    stack.set_rp(kGroup, {t.routers[0]->router_id()});
    stack.set_spt_policy(SptPolicy::immediate());
    t.net.run_for(200 * sim::kMillisecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        stack.host_agent(*t.hosts[i]).join(kGroup);
    }
    t.net.run_for(300 * sim::kMillisecond);
    t.hosts[0]->send_stream(kGroup, 5, 50 * sim::kMillisecond);
    t.net.run_for(1 * sim::kSecond);

    const sim::Time now = t.net.simulator().now();
    for (auto* router : t.routers) {
        auto& cache = stack.pim_at(*router).cache();
        auto check = [&](mcast::ForwardingEntry& e) {
            // iif never appears among the live oifs (no reflection).
            e.for_each_live_oif(now, [&](int oif) {
                EXPECT_NE(oif, e.iif()) << router->name() << " " << e.describe();
            });
            // The iif matches the router's current RPF interface.
            if (e.iif() >= 0) {
                auto route = router->route_to(e.source_or_rp());
                ASSERT_TRUE(route.has_value());
                EXPECT_EQ(e.iif(), route->ifindex)
                    << router->name() << " " << e.describe();
            }
            // Wildcard entries always carry the RP bit (§3).
            if (e.wildcard()) {
                EXPECT_TRUE(e.rp_bit());
            }
        };
        cache.for_each_wc(check);
        cache.for_each_sg(check);
    }
}

TEST_P(PimSmPropertyTest, AllStateDissolvesAfterEveryoneLeaves) {
    RandomInternet t(GetParam() + 2000, 10, 4);
    scenario::PimSmStack stack(t.net, fast_config());
    stack.set_rp(kGroup, {t.routers[1]->router_id()});
    stack.set_spt_policy(SptPolicy::immediate());
    t.net.run_for(200 * sim::kMillisecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        stack.host_agent(*t.hosts[i]).join(kGroup);
    }
    t.net.run_for(300 * sim::kMillisecond);
    t.hosts[0]->send_stream(kGroup, 5, 50 * sim::kMillisecond);
    t.net.run_for(1 * sim::kSecond);

    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        stack.host_agent(*t.hosts[i]).leave(kGroup);
    }
    // Source also stops. All soft state must dissolve: memberships age out
    // (250 ms), oif timers expire (1.8 s), entries delete at 3 × refresh.
    t.net.run_for(8 * sim::kSecond);
    for (auto* router : t.routers) {
        EXPECT_EQ(stack.pim_at(*router).state_entry_count(), 0u)
            << router->name() << " seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PimSmPropertyTest, ::testing::Range(1u, 9u));

class DensePropertyTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DensePropertyTest, DvmrpExactlyOnceOnRandomTopology) {
    RandomInternet t(GetParam() + 3000, 10, 4);
    scenario::DvmrpStack stack(t.net, fast_config());
    t.net.run_for(200 * sim::kMillisecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        stack.host_agent(*t.hosts[i]).join(kGroup);
    }
    t.net.run_for(300 * sim::kMillisecond);
    t.hosts[0]->send_stream(kGroup, 10, 50 * sim::kMillisecond);
    t.net.run_for(2 * sim::kSecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        EXPECT_EQ(t.hosts[i]->received_count(kGroup), 10u) << "seed " << GetParam();
        EXPECT_EQ(t.hosts[i]->duplicate_count(), 0u) << "seed " << GetParam();
    }
}

TEST_P(DensePropertyTest, PimDmExactlyOnceOnRandomTopology) {
    RandomInternet t(GetParam() + 4000, 10, 4);
    scenario::PimDmStack stack(t.net, fast_config());
    t.net.run_for(200 * sim::kMillisecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        stack.host_agent(*t.hosts[i]).join(kGroup);
    }
    t.net.run_for(300 * sim::kMillisecond);
    t.hosts[0]->send_stream(kGroup, 10, 50 * sim::kMillisecond);
    t.net.run_for(2 * sim::kSecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        EXPECT_EQ(t.hosts[i]->received_count(kGroup), 10u) << "seed " << GetParam();
        EXPECT_EQ(t.hosts[i]->duplicate_count(), 0u) << "seed " << GetParam();
    }
}

TEST_P(DensePropertyTest, CbtExactlyOnceOnRandomTopology) {
    RandomInternet t(GetParam() + 5000, 10, 4);
    scenario::CbtStack stack(t.net, fast_config());
    std::mt19937 rng(GetParam());
    std::uniform_int_distribution<std::size_t> pick(0, t.routers.size() - 1);
    stack.set_core(kGroup, t.routers[pick(rng)]->router_id());
    t.net.run_for(200 * sim::kMillisecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        stack.host_agent(*t.hosts[i]).join(kGroup);
    }
    t.net.run_for(500 * sim::kMillisecond);
    t.hosts[0]->send_stream(kGroup, 10, 50 * sim::kMillisecond);
    t.net.run_for(2 * sim::kSecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        EXPECT_EQ(t.hosts[i]->received_count(kGroup), 10u) << "seed " << GetParam();
        EXPECT_EQ(t.hosts[i]->duplicate_count(), 0u) << "seed " << GetParam();
    }
}

TEST_P(DensePropertyTest, MospfExactlyOnceOnRandomTopology) {
    RandomInternet t(GetParam() + 6000, 10, 4);
    scenario::MospfStack stack(t.net, fast_config());
    t.net.run_for(200 * sim::kMillisecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        stack.host_agent(*t.hosts[i]).join(kGroup);
    }
    t.net.run_for(400 * sim::kMillisecond);
    t.hosts[0]->send_stream(kGroup, 10, 50 * sim::kMillisecond);
    t.net.run_for(2 * sim::kSecond);
    for (std::size_t i = 1; i < t.hosts.size(); ++i) {
        EXPECT_EQ(t.hosts[i]->received_count(kGroup), 10u) << "seed " << GetParam();
        EXPECT_EQ(t.hosts[i]->duplicate_count(), 0u) << "seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensePropertyTest, ::testing::Range(1u, 7u));

// Multi-sender property: several simultaneous sources on the shared tree
// and on SPTs; every (member, source) pair sees the full stream.
class MultiSenderTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MultiSenderTest, AllPairsDelivered) {
    RandomInternet t(GetParam() + 7000, 12, 5);
    scenario::PimSmStack stack(t.net, fast_config());
    stack.set_rp(kGroup, {t.routers[2]->router_id()});
    stack.set_spt_policy(GetParam() % 2 == 0 ? SptPolicy::immediate()
                                             : SptPolicy::never());
    t.net.run_for(200 * sim::kMillisecond);

    // Every host is both a member and a sender (like Fig. 2(b)'s setup).
    for (auto* host : t.hosts) stack.host_agent(*host).join(kGroup);
    t.net.run_for(400 * sim::kMillisecond);
    for (auto* host : t.hosts) host->send_data(kGroup); // warm-up
    t.net.run_for(1500 * sim::kMillisecond);
    for (auto* host : t.hosts) host->clear_received();

    constexpr int kPackets = 5;
    for (auto* host : t.hosts) {
        host->send_stream(kGroup, kPackets, 60 * sim::kMillisecond);
    }
    t.net.run_for(3 * sim::kSecond);
    for (auto* receiver : t.hosts) {
        for (auto* sender : t.hosts) {
            if (receiver == sender) continue;
            EXPECT_EQ(receiver->received_count_from(sender->address(), kGroup),
                      static_cast<std::size_t>(kPackets))
                << receiver->name() << " from " << sender->name() << " seed "
                << GetParam();
        }
        EXPECT_EQ(receiver->duplicate_count(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSenderTest, ::testing::Range(1u, 7u));

} // namespace
} // namespace pimlib::test
