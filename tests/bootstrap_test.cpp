// Bootstrap subsystem tests: BSR election (priority, address tiebreak,
// takeover after the elected BSR dies), candidate-RP advertisement and
// expiry, domain-wide RP-set agreement, tree re-homing on RP-set change,
// and the reboot semantics of the bootstrap soft state.
#include <gtest/gtest.h>

#include "fault/fault_injector.hpp"
#include "pim/bootstrap/bootstrap.hpp"
#include "test_util.hpp"

namespace pimlib {
namespace {

using test::kGroup;

/// The bsr-failover checker scenario's shape, trimmed to what these tests
/// need: one member DR with a host, two candidate RPs, one backup
/// candidate BSR.
///
///        h1 — lan0 — M —1— R1 —— B
///                     \3   |    /
///                      \   |   /
///                       \  |  /
///                         R2
struct BsrWorld {
    topo::Network net;
    topo::Router* m = nullptr;
    topo::Router* r1 = nullptr;
    topo::Router* r2 = nullptr;
    topo::Router* b = nullptr;
    topo::Host* h1 = nullptr;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<scenario::PimSmStack> stack;
    fault::FaultInjector faults;

    explicit BsrWorld(std::uint8_t r1_bsr_priority = 20,
                      std::uint8_t b_bsr_priority = 10)
        : faults(net) {
        m = &net.add_router("M");
        r1 = &net.add_router("R1");
        r2 = &net.add_router("R2");
        b = &net.add_router("B");
        auto& lan0 = net.add_lan({m});
        h1 = &net.add_host("h1", lan0);
        net.add_link(*m, *r1, sim::kMillisecond, 1);
        net.add_link(*m, *r2, sim::kMillisecond, 3);
        net.add_link(*r1, *r2, sim::kMillisecond, 1);
        net.add_link(*b, *r1, sim::kMillisecond, 1);
        net.add_link(*b, *r2, sim::kMillisecond, 1);
        routing = std::make_unique<unicast::OracleRouting>(net);
        stack = std::make_unique<scenario::PimSmStack>(net, test::fast_config());
        stack->set_spt_policy(pim::SptPolicy::never());
        const net::Prefix all_groups{net::Ipv4Address{224, 0, 0, 0}, 4};
        stack->set_candidate_bsr(*r1, r1_bsr_priority);
        stack->set_candidate_bsr(*b, b_bsr_priority);
        stack->set_candidate_rp(*r1, all_groups, 20);
        stack->set_candidate_rp(*r2, all_groups, 10);
        stack->wire_faults(faults);
    }

    [[nodiscard]] std::vector<topo::Router*> routers() {
        return {m, r1, r2, b};
    }
};

TEST(BootstrapTest, ElectionConvergesOnHighestPriority) {
    BsrWorld w;
    w.net.run_for(300 * sim::kMillisecond);
    for (topo::Router* r : w.routers()) {
        EXPECT_EQ(w.stack->bootstrap_at(*r).elected_bsr(), w.r1->router_id())
            << r->name();
    }
    EXPECT_TRUE(w.stack->bootstrap_at(*w.r1).is_elected_bsr());
    EXPECT_FALSE(w.stack->bootstrap_at(*w.b).is_elected_bsr());
}

TEST(BootstrapTest, EqualPriorityTiebreaksOnHigherAddress) {
    BsrWorld w(/*r1_bsr_priority=*/10, /*b_bsr_priority=*/10);
    ASSERT_GT(w.b->router_id(), w.r1->router_id());
    w.net.run_for(300 * sim::kMillisecond);
    for (topo::Router* r : w.routers()) {
        EXPECT_EQ(w.stack->bootstrap_at(*r).elected_bsr(), w.b->router_id())
            << r->name();
    }
    EXPECT_TRUE(w.stack->bootstrap_at(*w.b).is_elected_bsr());
    EXPECT_FALSE(w.stack->bootstrap_at(*w.r1).is_elected_bsr());
}

TEST(BootstrapTest, RpSetAgreesDomainWideAndElectsByPriority) {
    BsrWorld w;
    // Two bootstrap intervals: candidates advertise to the BSR, the BSR
    // floods the assembled set.
    w.net.run_for(1300 * sim::kMillisecond);
    const std::vector<net::Ipv4Address> want{w.r1->router_id()};
    for (topo::Router* r : w.routers()) {
        pim::RpSet& set = w.stack->pim_at(*r).rp_set();
        EXPECT_EQ(test::rps_of(set, kGroup), want) << r->name();
        EXPECT_EQ(set.dynamic_rp_for(kGroup), w.r1->router_id()) << r->name();
        EXPECT_EQ(set.dynamic_entries().size(), 2u) << r->name();
    }
}

TEST(BootstrapTest, MemberJoinsTheLearnedRp) {
    BsrWorld w;
    w.net.simulator().schedule_at(100 * sim::kMillisecond, [&] {
        w.stack->host_agent(*w.h1).join(kGroup);
    });
    w.net.run_for(1 * sim::kSecond);
    auto* wc = w.stack->pim_at(*w.m).cache().find_wc(kGroup);
    ASSERT_NE(wc, nullptr);
    EXPECT_EQ(wc->source_or_rp(), w.r1->router_id());
}

TEST(BootstrapTest, BsrCrashTriggersTakeoverRepublishAndRehoming) {
    BsrWorld w;
    w.net.simulator().schedule_at(100 * sim::kMillisecond, [&] {
        w.stack->host_agent(*w.h1).join(kGroup);
    });
    w.net.simulator().schedule_at(500 * sim::kMillisecond,
                                  [&] { w.faults.crash_router(*w.r1); });
    // Crash + BSR timeout (1.5 s scaled) + a republish wave.
    w.net.run_for(3300 * sim::kMillisecond);

    EXPECT_TRUE(w.stack->bootstrap_at(*w.b).is_elected_bsr());
    const std::vector<net::Ipv4Address> want{w.r2->router_id()};
    for (topo::Router* r : {w.m, w.r2, w.b}) {
        EXPECT_EQ(w.stack->bootstrap_at(*r).elected_bsr(), w.b->router_id())
            << r->name();
        EXPECT_EQ(test::rps_of(w.stack->pim_at(*r).rp_set(), kGroup), want)
            << r->name();
    }
    // The member's shared tree re-homed to the surviving candidate RP.
    auto* wc = w.stack->pim_at(*w.m).cache().find_wc(kGroup);
    ASSERT_NE(wc, nullptr);
    EXPECT_EQ(wc->source_or_rp(), w.r2->router_id());
    // The re-homing was driven by real RP-set replacements.
    EXPECT_GE(w.net.telemetry()
                  .registry()
                  .counter("pimlib_rp_set_changes_total", {})
                  .value(),
              2u);
}

TEST(BootstrapTest, CandidateRpExpiryShrinksTheFloodedSet) {
    BsrWorld w;
    // Crash the backup candidate RP (not the BSR): its advertisement stops
    // refreshing and must fall out of the flooded set after the 0.75 s
    // scaled holdtime plus a republish.
    w.net.simulator().schedule_at(500 * sim::kMillisecond,
                                  [&] { w.faults.crash_router(*w.r2); });
    w.net.run_for(2500 * sim::kMillisecond);
    for (topo::Router* r : {w.m, w.r1, w.b}) {
        pim::RpSet& set = w.stack->pim_at(*r).rp_set();
        ASSERT_EQ(set.dynamic_entries().size(), 1u) << r->name();
        EXPECT_EQ(set.dynamic_entries().front().rp, w.r1->router_id()) << r->name();
    }
}

TEST(BootstrapTest, RebootDropsTheViewAndThePeriodicFloodRestoresIt) {
    BsrWorld w;
    w.net.run_for(1300 * sim::kMillisecond);
    pim::BootstrapAgent& agent = w.stack->bootstrap_at(*w.m);
    ASSERT_EQ(agent.elected_bsr(), w.r1->router_id());
    agent.reboot();
    EXPECT_TRUE(agent.elected_bsr().is_unspecified());
    EXPECT_TRUE(agent.pim().rp_set().dynamic_entries().empty());
    // The next periodic origination (0.6 s scaled) re-teaches everything.
    w.net.run_for(700 * sim::kMillisecond);
    EXPECT_EQ(agent.elected_bsr(), w.r1->router_id());
    EXPECT_EQ(agent.pim().rp_set().dynamic_rp_for(kGroup), w.r1->router_id());
}

} // namespace
} // namespace pimlib
