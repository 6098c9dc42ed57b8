// Fault-injection subsystem tests: topology observers and batching, unicast
// auto-reconvergence, the multi-tap wiretap registry, probabilistic segment
// loss, router crash/restart with full protocol-state loss, partitions, and
// the ConvergenceProbe — ending with the paper's headline robustness claim
// (§3.9): killing the primary RP mid-stream converges to the alternate RP
// within the soft-state holdtime, with no permanent receiver starvation.
#include <gtest/gtest.h>

#include "fault/convergence_probe.hpp"
#include "fault/fault_injector.hpp"
#include "test_util.hpp"
#include "topo/segment.hpp"

namespace pimlib::test {
namespace {

TEST(TopologyObservers, FireOnStateChangesOnly) {
    topo::Network net;
    auto& a = net.add_router("A");
    auto& b = net.add_router("B");
    auto& link = net.add_link(a, b);

    int fired = 0;
    const int token = net.add_topology_observer([&] { ++fired; });

    link.set_up(false);
    EXPECT_EQ(fired, 1);
    link.set_up(false); // no change, no notification
    EXPECT_EQ(fired, 1);
    link.set_up(true);
    EXPECT_EQ(fired, 2);

    a.set_interface_up(0, false);
    EXPECT_EQ(fired, 3);
    a.set_interface_up(0, false);
    EXPECT_EQ(fired, 3);

    net.remove_topology_observer(token);
    link.set_up(false);
    EXPECT_EQ(fired, 3);
}

TEST(TopologyObservers, BatchCoalescesToOneNotification) {
    topo::Network net;
    auto& a = net.add_router("A");
    auto& b = net.add_router("B");
    auto& c = net.add_router("C");
    auto& ab = net.add_link(a, b);
    auto& bc = net.add_link(b, c);

    int fired = 0;
    net.add_topology_observer([&] { ++fired; });
    {
        topo::Network::TopologyBatch batch{net};
        ab.set_up(false);
        bc.set_up(false);
        a.set_interface_up(0, false);
        EXPECT_EQ(fired, 0); // deferred
    }
    EXPECT_EQ(fired, 1);

    { // a batch with no changes notifies nobody
        topo::Network::TopologyBatch batch{net};
    }
    EXPECT_EQ(fired, 1);
}

TEST(TopologyObservers, OracleRoutingReconvergesAutomatically) {
    Fig3Topology topo;
    ASSERT_TRUE(topo.routing->distance(*topo.a, *topo.c).has_value());
    // Cut the only path to C; no manual recompute() anywhere.
    net::Ipv4Address c_id = topo.c->router_id();
    topo.net.find_link(*topo.b, *topo.c)->set_up(false);
    EXPECT_FALSE(topo.routing->distance(*topo.a, *topo.c).has_value());
    EXPECT_EQ(topo.a->route_to(c_id), std::nullopt);
    topo.net.find_link(*topo.b, *topo.c)->set_up(true);
    EXPECT_TRUE(topo.routing->distance(*topo.a, *topo.c).has_value());
}

TEST(PacketTaps, SeveralTapsCoexist) {
    Fig3Topology topo;
    int tap1 = 0;
    int tap2 = 0;
    const int token1 =
        topo.net.add_packet_tap([&](const topo::Segment&, const net::Frame&) { ++tap1; });
    topo.net.add_packet_tap([&](const topo::Segment&, const net::Frame&) { ++tap2; });

    scenario::PimSmStack stack(topo.net, fast_config());
    topo.net.run_for(200 * sim::kMillisecond);
    EXPECT_GT(tap1, 0);
    EXPECT_EQ(tap1, tap2);

    topo.net.remove_packet_tap(token1);
    const int tap1_frozen = tap1;
    topo.net.run_for(200 * sim::kMillisecond);
    EXPECT_EQ(tap1, tap1_frozen);
    EXPECT_GT(tap2, tap1_frozen);
}

TEST(SegmentLoss, FullLossDestroysEveryFrameAndCounts) {
    Fig3Topology topo;
    fault::FaultInjector faults(topo.net);
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.c->router_id()});

    topo.net.run_for(100 * sim::kMillisecond);
    stack.host_agent(*topo.receiver).join(kGroup);
    topo.net.run_for(300 * sim::kMillisecond);

    auto& lan1 = *topo.source->interface(0).segment;
    faults.set_loss(lan1, 0.999999999); // effectively everything
    topo.source->send_stream(kGroup, 10, 10 * sim::kMillisecond);
    topo.net.run_for(500 * sim::kMillisecond);
    EXPECT_EQ(topo.receiver->received_count(kGroup), 0u);
    EXPECT_GE(lan1.frames_lost(), 10u);
    EXPECT_GE(topo.net.stats().drops(provenance::DropReason::kSegmentLoss), 10u);

    faults.set_loss(lan1, 0.0);
    topo.source->send_stream(kGroup, 5, 10 * sim::kMillisecond);
    topo.net.run_for(500 * sim::kMillisecond);
    EXPECT_EQ(topo.receiver->received_count(kGroup), 5u);
}

TEST(SegmentLoss, ModerateLossIsRiddenOutBySoftState) {
    Fig3Topology topo;
    fault::FaultInjector faults(topo.net);
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.c->router_id()});
    stack.set_spt_policy(pim::SptPolicy::never());

    topo.net.run_for(100 * sim::kMillisecond);
    stack.host_agent(*topo.receiver).join(kGroup);
    // 30% loss on the shared tree's B-C hop: joins and refreshes are lost
    // too, but the periodic machinery keeps the tree alive.
    faults.set_loss(*topo.net.find_link(*topo.b, *topo.c), 0.3);
    topo.source->send_stream(kGroup, 200, 10 * sim::kMillisecond,
                             200 * sim::kMillisecond);
    topo.net.run_for(4 * sim::kSecond);
    // Deliveries continue (well over half arrive) and state never expires
    // for good.
    EXPECT_GT(topo.receiver->received_count(kGroup), 100u);
}

TEST(RouterCrash, DropsAllProtocolStateAndRestartsClean) {
    Fig3Topology topo;
    fault::FaultInjector faults(topo.net);
    fault::ConvergenceProbe probe(topo.net);
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.c->router_id()});
    stack.set_spt_policy(pim::SptPolicy::never());
    stack.wire_faults(faults);

    topo.net.run_for(100 * sim::kMillisecond);
    stack.host_agent(*topo.receiver).join(kGroup);
    topo.source->send_stream(kGroup, 400, 10 * sim::kMillisecond,
                             200 * sim::kMillisecond);
    topo.net.run_for(900 * sim::kMillisecond);

    // Steady state: B is on the shared tree and knows its neighbors.
    ASSERT_GT(stack.pim_at(*topo.b).state_entry_count(), 0u);
    ASSERT_FALSE(stack.pim_at(*topo.b).neighbors_on(0).empty());
    ASSERT_GT(topo.receiver->received_count(kGroup), 0u);

    const sim::Time crash_at = topo.net.simulator().now();
    faults.crash_router(*topo.b);
    EXPECT_TRUE(faults.is_crashed(*topo.b));
    EXPECT_EQ(stack.pim_at(*topo.b).state_entry_count(), 0u);
    EXPECT_TRUE(stack.pim_at(*topo.b).neighbors_on(0).empty());
    // B is a cut vertex: the receiver is starved while B is down.
    const std::size_t received_at_crash = topo.receiver->received_count(kGroup);
    topo.net.run_for(500 * sim::kMillisecond);
    EXPECT_EQ(topo.receiver->received_count(kGroup), received_at_crash);

    faults.restart_router(*topo.b);
    EXPECT_FALSE(faults.is_crashed(*topo.b));
    topo.net.run_for(2 * sim::kSecond);

    // B relearned everything from hellos, IGMP and refreshes; stream heals.
    EXPECT_GT(stack.pim_at(*topo.b).state_entry_count(), 0u);
    EXPECT_GT(topo.receiver->received_count(kGroup), received_at_crash);

    const auto report = probe.measure(kGroup, {topo.receiver}, crash_at);
    EXPECT_TRUE(report.converged);
    EXPECT_GT(report.control_messages, 0u);
    // JSON is well-formed enough for the bench's consumers.
    const std::string json = report.to_json();
    EXPECT_NE(json.find("\"converged\":true"), std::string::npos);
    EXPECT_NE(json.find("\"recovery_s\":"), std::string::npos);
    EXPECT_NE(json.find("\"receiver\""), std::string::npos);
}

TEST(RouterCrash, PartitionCutsAndHealsAtomically) {
    Fig3Topology topo;
    fault::FaultInjector faults(topo.net);
    int notifications = 0;
    topo.net.add_topology_observer([&] { ++notifications; });

    faults.partition({topo.net.find_link(*topo.a, *topo.b),
                      topo.net.find_link(*topo.b, *topo.c)});
    EXPECT_EQ(notifications, 1); // one batched recompute for the whole cut
    EXPECT_FALSE(topo.routing->distance(*topo.a, *topo.c).has_value());

    faults.heal_partition();
    EXPECT_EQ(notifications, 2);
    EXPECT_TRUE(topo.routing->distance(*topo.a, *topo.c).has_value());
    EXPECT_EQ(faults.events().size(), 2u);
}

TEST(RouterCrash, ScheduledFaultsFireAtTheRightTime) {
    Fig3Topology topo;
    fault::FaultInjector faults(topo.net);
    auto& link = *topo.net.find_link(*topo.b, *topo.c);

    faults.cut_link_at(300 * sim::kMillisecond, link);
    faults.restore_link_at(600 * sim::kMillisecond, link);
    topo.net.run_for(299 * sim::kMillisecond);
    EXPECT_TRUE(link.is_up());
    topo.net.run_for(2 * sim::kMillisecond);
    EXPECT_FALSE(link.is_up());
    topo.net.run_for(300 * sim::kMillisecond);
    EXPECT_TRUE(link.is_up());

    ASSERT_EQ(faults.events().size(), 2u);
    EXPECT_EQ(faults.events()[0].at, 300 * sim::kMillisecond);
    EXPECT_EQ(faults.events()[1].at, 600 * sim::kMillisecond);
}

/// The acceptance scenario: primary RP killed mid-stream, receivers fail
/// over to the alternate RP (§3.9) within the 3x-refresh soft-state bound,
/// and delivery resumes — no permanent starvation.
TEST(RpFailover, RpCrashConvergesToAlternateRpWithinHoldtime) {
    // receiver—A—B—C(RP1), B—E(RP2), B—D—source
    // (examples/scenarios/rp_failover.pimsim).
    topo::Network net;
    auto& a = net.add_router("A");
    auto& b = net.add_router("B");
    auto& c = net.add_router("C");
    auto& e = net.add_router("E");
    auto& d = net.add_router("D");
    auto& lan0 = net.add_lan({&a});
    auto& receiver = net.add_host("receiver", lan0);
    net.add_link(a, b);
    net.add_link(b, c);
    net.add_link(b, e);
    net.add_link(b, d);
    auto& lan1 = net.add_lan({&d});
    auto& source = net.add_host("source", lan1);
    unicast::OracleRouting routing(net);

    fault::FaultInjector faults(net);
    fault::ConvergenceProbe probe(net);
    scenario::PimSmStack stack(net, fast_config());
    stack.set_rp(kGroup, {c.router_id(), e.router_id()});
    stack.set_spt_policy(pim::SptPolicy::never());
    stack.wire_faults(faults);

    net.run_for(100 * sim::kMillisecond);
    stack.host_agent(receiver).join(kGroup);
    source.send_stream(kGroup, 600, 10 * sim::kMillisecond, 200 * sim::kMillisecond);

    const sim::Time crash_at = 1 * sim::kSecond;
    faults.crash_router_at(crash_at, c);
    net.run_for(6 * sim::kSecond);

    // The shared tree re-homed onto the alternate RP.
    const auto* wc = stack.pim_at(a).cache().find_wc(kGroup);
    ASSERT_NE(wc, nullptr);
    EXPECT_EQ(wc->source_or_rp(), e.router_id());

    // Delivery resumed within the soft-state holdtime (3x refresh).
    const auto report = probe.measure(kGroup, {&receiver}, crash_at);
    ASSERT_TRUE(report.converged);
    const sim::Time bound = 3 * stack.pim_at(a).config().join_prune_interval;
    EXPECT_LE(report.recovery, bound);

    // And kept flowing afterwards: no permanent starvation.
    const std::size_t after_failover = receiver.received_count(kGroup);
    net.run_for(500 * sim::kMillisecond);
    EXPECT_GT(receiver.received_count(kGroup), after_failover);
}

TEST(IgmpReboot, MembershipRelearnedFromHostReports) {
    Fig3Topology topo;
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.c->router_id()});

    topo.net.run_for(100 * sim::kMillisecond);
    stack.host_agent(*topo.receiver).join(kGroup);
    topo.net.run_for(200 * sim::kMillisecond);
    ASSERT_FALSE(stack.igmp_at(*topo.a).member_interfaces(kGroup).empty());

    stack.igmp_at(*topo.a).reboot();
    EXPECT_TRUE(stack.igmp_at(*topo.a).member_interfaces(kGroup).empty());
    // The reboot queries immediately; the host's report restores membership
    // within the query-response window.
    topo.net.run_for(200 * sim::kMillisecond);
    EXPECT_FALSE(stack.igmp_at(*topo.a).member_interfaces(kGroup).empty());
}

} // namespace
} // namespace pimlib::test
