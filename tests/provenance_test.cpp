// Flight-recorder and typed-drop-accounting tests: one scenario per
// DropReason asserting that (a) the labeled pimlib_data_dropped_total
// series rises by exactly one per discarded packet, recorder attached or
// not, and (b) the recorded HopRecord carries the reason — plus the
// mtrace-style path attribution on the walkthrough pentagon, covering both
// the shared-tree and the post-switchover SPT phase.
#include <gtest/gtest.h>

#include <algorithm>

#include "fault/fault_injector.hpp"
#include "mcast/forwarding_cache.hpp"
#include "provenance/provenance.hpp"
#include "test_util.hpp"
#include "topo/segment.hpp"

namespace pimlib::provenance {
// Test parameters print as their labels, not as raw bytes.
void PrintTo(DropReason reason, std::ostream* os) { *os << drop_reason_label(reason); }
} // namespace pimlib::provenance

namespace pimlib::test {
namespace {

using provenance::DropReason;
using provenance::EntryKind;
using provenance::Recorder;

std::uint64_t drops_counter(telemetry::Registry& reg, DropReason reason) {
    return reg
        .counter("pimlib_data_dropped_total",
                 {{"reason", provenance::drop_reason_label(reason)}})
        .value();
}

/// The dump names the reason on a per-record basis; asserting on the JSON
/// checks the record itself, not just the aggregate counter.
bool dump_names_reason(const Recorder& rec, const topo::Network& net, DropReason reason) {
    const std::string needle =
        std::string("\"drop\":\"") + provenance::drop_reason_label(reason) + "\"";
    return rec.dump_json(net.node_names()).find(needle) != std::string::npos;
}

// --- data-plane drops on a one-router topology ----------------------------

class DropRecorderTest : public ::testing::Test, public mcast::DataPlane::Delegate {
protected:
    DropRecorderTest() {
        r = &net.add_router("r");
        lan_in = &net.add_lan({r});  // ifindex 0
        lan_out = &net.add_lan({r}); // ifindex 1
        source = &net.add_host("src", *lan_in);
        member = &net.add_host("m", *lan_out);
        member->join_group(kGroup);
        net.set_provenance(&recorder);
        plane = std::make_unique<mcast::DataPlane>(*r, cache);
        plane->set_delegate(this);
    }

    void send_from_source() {
        source->send_data(kGroup);
        net.run_for(10 * sim::kMillisecond);
    }

    [[nodiscard]] telemetry::Registry& registry() {
        return net.telemetry().registry();
    }

    topo::Network net;
    Recorder recorder;
    topo::Router* r;
    topo::Segment* lan_in;
    topo::Segment* lan_out;
    topo::Host* source;
    topo::Host* member;
    mcast::ForwardingCache cache;
    std::unique_ptr<mcast::DataPlane> plane;
};

TEST_F(DropRecorderTest, RpfFailIsCountedAndRecorded) {
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(1); // wrong on purpose: data arrives on 0
    sg.set_spt_bit(true);
    sg.pin_oif(1);
    send_from_source();
    EXPECT_EQ(drops_counter(registry(), DropReason::kRpfFail), 1u);
    EXPECT_TRUE(dump_names_reason(recorder, net, DropReason::kRpfFail));
    EXPECT_EQ(member->received_count(kGroup), 0u);
}

TEST_F(DropRecorderTest, NegCacheIsCountedAndRecorded) {
    // An RP-bit entry whose every oif has been pruned away discards by
    // design (§3.3): the drop must read "neg-cache", not "no-oif".
    auto& wc = cache.ensure_wc(net::Ipv4Address(192, 168, 0, 9), kGroup);
    wc.set_iif(0);
    send_from_source();
    EXPECT_EQ(drops_counter(registry(), DropReason::kNegCache), 1u);
    EXPECT_TRUE(dump_names_reason(recorder, net, DropReason::kNegCache));
    EXPECT_EQ(net.stats().drops(DropReason::kNoOif), 0u);
}

TEST_F(DropRecorderTest, NoOifIsCountedAndRecorded) {
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(0);
    sg.set_spt_bit(true); // no live oifs, not an RP-bit entry
    send_from_source();
    EXPECT_EQ(drops_counter(registry(), DropReason::kNoOif), 1u);
    EXPECT_TRUE(dump_names_reason(recorder, net, DropReason::kNoOif));
    EXPECT_EQ(net.stats().drops(DropReason::kNegCache), 0u);
}

TEST_F(DropRecorderTest, TtlExpiryIsCountedAndRecorded) {
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(0);
    sg.set_spt_bit(true);
    sg.pin_oif(1);
    net::Packet packet;
    packet.src = source->address();
    packet.dst = kGroup.address();
    packet.ttl = 1; // the router would decrement to zero: not forwardable
    packet.seq = 7;
    packet.pid = provenance::packet_id(packet.src, packet.dst, packet.seq);
    plane->on_multicast_data(0, packet);
    EXPECT_EQ(drops_counter(registry(), DropReason::kTtl), 1u);
    EXPECT_TRUE(dump_names_reason(recorder, net, DropReason::kTtl));
}

TEST_F(DropRecorderTest, SegmentLossIsCountedAndRecorded) {
    fault::FaultInjector faults(net);
    faults.set_loss(*lan_in, 1.0); // every frame on the source LAN vanishes
    send_from_source();
    EXPECT_GE(drops_counter(registry(), DropReason::kSegmentLoss), 1u);
    EXPECT_TRUE(dump_names_reason(recorder, net, DropReason::kSegmentLoss));
    EXPECT_EQ(member->received_count(kGroup), 0u);
}

// --- protocol-level drops (PIM-SM classification) -------------------------

TEST(ProvenanceProtocolDrops, NoStateWhenGroupHasNoRpMapping) {
    Fig3Topology topo;
    Recorder recorder;
    topo.net.set_provenance(&recorder);
    scenario::PimSmStack stack(topo.net, fast_config());
    // No set_rp: the source's DR can neither register nor build state.
    topo.net.run_for(500 * sim::kMillisecond);
    topo.source->send_data(kGroup);
    topo.net.run_for(50 * sim::kMillisecond);
    EXPECT_GE(drops_counter(topo.net.telemetry().registry(), DropReason::kNoState),
              1u);
    EXPECT_TRUE(dump_names_reason(recorder, topo.net, DropReason::kNoState));
}

TEST(ProvenanceProtocolDrops, AssertLoserOnSharedSourceLan) {
    // Two routers on the source LAN, neither of them on the shared tree:
    // the non-DR one must cede origination to the DR and account its
    // discard as "assert-loser" (the '94 architecture's duplicate
    // suppression), not as a generic no-state drop.
    topo::Network net;
    topo::Router& a = net.add_router("A");
    topo::Router& b = net.add_router("B");
    topo::Router& c = net.add_router("C"); // RP, off the source LAN
    topo::Router& d = net.add_router("D");
    topo::Router& x = net.add_router("X"); // second router on the source LAN
    auto& lan0 = net.add_lan({&a});
    topo::Host& receiver = net.add_host("receiver", lan0);
    net.add_link(a, b);
    net.add_link(b, c);
    net.add_link(b, d);
    auto& lan1 = net.add_lan({&d, &x});
    topo::Host& source = net.add_host("source", lan1);
    unicast::OracleRouting routing(net);
    Recorder recorder;
    net.set_provenance(&recorder);
    scenario::PimSmStack stack(net, fast_config());
    stack.set_rp(kGroup, {c.router_id()});
    net.run_for(800 * sim::kMillisecond); // hellos elect the LAN's DR
    stack.host_agent(receiver).join(kGroup);
    net.run_for(200 * sim::kMillisecond);
    source.send_stream(kGroup, 5, 10 * sim::kMillisecond);
    net.run_for(200 * sim::kMillisecond);
    EXPECT_GE(drops_counter(net.telemetry().registry(), DropReason::kAssertLoser),
              1u);
    EXPECT_TRUE(dump_names_reason(recorder, net, DropReason::kAssertLoser));
    EXPECT_GE(receiver.received_count(kGroup), 1u); // the DR still delivers
}

TEST(ProvenanceProtocolDrops, NoRouteWhenRegisterTargetUnreachable) {
    Fig3Topology topo;
    Recorder recorder;
    topo.net.set_provenance(&recorder);
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.c->router_id()});
    fault::FaultInjector faults(topo.net);
    stack.wire_faults(faults);
    topo.net.run_for(500 * sim::kMillisecond);
    faults.crash_router(*topo.c); // the RP vanishes; no alternate exists
    topo.net.run_for(100 * sim::kMillisecond);
    topo.source->send_data(kGroup);
    topo.net.run_for(100 * sim::kMillisecond);
    EXPECT_GE(drops_counter(topo.net.telemetry().registry(), DropReason::kNoRoute),
              1u);
    EXPECT_TRUE(dump_names_reason(recorder, topo.net, DropReason::kNoRoute));
}

// --- one discarded packet, one count, recorder or not ---------------------

/// Builds the world that discards a packet for `reason`, warms it up,
/// attaches a Recorder when `record` is set, then discards exactly one
/// packet. Returns how far pimlib_data_dropped_total{reason} rose across
/// that packet, checking the NetworkStats query reads the same series.
std::uint64_t one_discard_delta(DropReason reason, bool record) {
    Recorder recorder;
    std::uint64_t before = 0;
    const auto series = [&](topo::Network& net) {
        const std::uint64_t exported = drops_counter(net.telemetry().registry(), reason);
        EXPECT_EQ(net.stats().drops(reason), exported);
        return exported;
    };
    const auto attach = [&](topo::Network& net) {
        if (record) net.set_provenance(&recorder);
        before = series(net);
    };

    switch (reason) {
    case DropReason::kRpfFail:
    case DropReason::kNegCache:
    case DropReason::kNoOif:
    case DropReason::kTtl:
    case DropReason::kSegmentLoss: {
        // One router, bare DataPlane: the cache entry alone decides.
        topo::Network net;
        topo::Router& r = net.add_router("r");
        topo::Segment& lan_in = net.add_lan({&r});   // ifindex 0
        topo::Segment& lan_out = net.add_lan({&r});  // ifindex 1
        topo::Host& source = net.add_host("src", lan_in);
        net.add_host("m", lan_out).join_group(kGroup);
        mcast::ForwardingCache cache;
        mcast::DataPlane plane(r, cache);
        fault::FaultInjector faults(net);
        net::Packet packet;
        packet.src = source.address();
        packet.dst = kGroup.address();
        packet.proto = net::IpProto::kUdp;
        packet.seq = 1;
        packet.pid = provenance::packet_id(packet.src, packet.dst, packet.seq);
        if (reason == DropReason::kNegCache) {
            cache.ensure_wc(net::Ipv4Address(192, 168, 0, 9), kGroup).set_iif(0);
        } else {
            auto& sg = cache.ensure_sg(source.address(), kGroup);
            sg.set_iif(reason == DropReason::kRpfFail ? 1 : 0);
            sg.set_spt_bit(true);
            if (reason != DropReason::kNoOif) sg.pin_oif(1);
        }
        if (reason == DropReason::kTtl) packet.ttl = 1;
        if (reason == DropReason::kSegmentLoss) faults.set_loss(lan_in, 1.0);
        attach(net);
        source.send(0, net::Frame{std::nullopt, packet});
        net.run_for(10 * sim::kMillisecond);
        return series(net) - before;
    }
    case DropReason::kNoState: {
        Fig3Topology topo;
        scenario::PimSmStack stack(topo.net, fast_config());
        // No set_rp: the source's DR can neither register nor build state.
        topo.net.run_for(500 * sim::kMillisecond);
        attach(topo.net);
        topo.source->send_data(kGroup);
        topo.net.run_for(50 * sim::kMillisecond);
        return series(topo.net) - before;
    }
    case DropReason::kAssertLoser: {
        // X shares the source LAN with the DR D and cedes the packet to it.
        topo::Network net;
        topo::Router& a = net.add_router("A");
        topo::Router& b = net.add_router("B");
        topo::Router& c = net.add_router("C");
        topo::Router& d = net.add_router("D");
        topo::Router& x = net.add_router("X");
        topo::Host& receiver = net.add_host("receiver", net.add_lan({&a}));
        net.add_link(a, b);
        net.add_link(b, c);
        net.add_link(b, d);
        topo::Host& source = net.add_host("source", net.add_lan({&d, &x}));
        unicast::OracleRouting routing(net);
        scenario::PimSmStack stack(net, fast_config());
        stack.set_rp(kGroup, {c.router_id()});
        net.run_for(800 * sim::kMillisecond);
        stack.host_agent(receiver).join(kGroup);
        net.run_for(200 * sim::kMillisecond);
        attach(net);
        source.send_data(kGroup);
        net.run_for(200 * sim::kMillisecond);
        return series(net) - before;
    }
    case DropReason::kNoRoute: {
        Fig3Topology topo;
        scenario::PimSmStack stack(topo.net, fast_config());
        stack.set_rp(kGroup, {topo.c->router_id()});
        fault::FaultInjector faults(topo.net);
        stack.wire_faults(faults);
        topo.net.run_for(500 * sim::kMillisecond);
        faults.crash_router(*topo.c); // the register has nowhere to go
        topo.net.run_for(100 * sim::kMillisecond);
        attach(topo.net);
        topo.source->send_data(kGroup);
        topo.net.run_for(100 * sim::kMillisecond);
        return series(topo.net) - before;
    }
    case DropReason::kNone:
        break;
    }
    ADD_FAILURE() << "no scenario for " << provenance::drop_reason_label(reason);
    return 0;
}

class OneDiscardOneCount
    : public ::testing::TestWithParam<std::tuple<DropReason, bool>> {};

TEST_P(OneDiscardOneCount, RaisesItsReasonByExactlyOne) {
    const auto [reason, record] = GetParam();
    EXPECT_EQ(one_discard_delta(reason, record), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    EveryReachableReason, OneDiscardOneCount,
    ::testing::Combine(::testing::Values(DropReason::kRpfFail, DropReason::kNegCache,
                                         DropReason::kNoOif, DropReason::kTtl,
                                         DropReason::kSegmentLoss, DropReason::kNoState,
                                         DropReason::kAssertLoser, DropReason::kNoRoute),
                       ::testing::Bool()),
    [](const auto& info) {
        std::string name = provenance::drop_reason_label(std::get<0>(info.param));
        std::replace(name.begin(), name.end(), '-', '_');
        return name + (std::get<1>(info.param) ? "_recorded" : "_unrecorded");
    });

// --- mtrace path attribution on the walkthrough pentagon ------------------

// On the walkthrough pentagon (test_util.hpp), A's unicast route to the
// source runs A-E-B (metric 2), so the immediate SPT switchover moves the
// receiver's delivery path off the RP.

std::vector<std::string> hop_nodes(const Recorder::TraceResult& result) {
    std::vector<std::string> nodes;
    for (const auto& hop : result.hops) nodes.push_back(hop.node_name);
    return nodes;
}

bool ordered_subpath(const std::vector<std::string>& nodes,
                     const std::vector<std::string>& expect) {
    std::size_t at = 0;
    for (const std::string& want : expect) {
        while (at < nodes.size() && nodes[at] != want) ++at;
        if (at == nodes.size()) return false;
        ++at;
    }
    return true;
}

TEST(ProvenancePentagon, TraceShowsSharedTreeThenSptPath) {
    constexpr sim::Time kMs = sim::kMillisecond;
    WalkthroughPentagon topo;
    Recorder recorder;
    topo.net.set_provenance(&recorder);
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.builder.router("C").router_id()});
    stack.set_spt_policy(pim::SptPolicy::immediate());

    topo.net.simulator().schedule_at(
        120 * kMs, [&] { stack.host_agent(topo.builder.host("receiver")).join(kGroup); });
    topo.net.simulator().schedule_at(
        130 * kMs, [&] { stack.host_agent(topo.builder.host("viewer")).join(kGroup); });
    topo.builder.host("source").send_stream(kGroup, 30, 10 * kMs, 250 * kMs);

    // Phase 1 — the first packet travels the shared tree while the
    // triggered (S,G) joins are still propagating: register at the source
    // DR, decapsulation at the RP, (*,G) down to the receiver.
    topo.net.run_for(259 * kMs);
    const Recorder::TraceResult shared =
        recorder.trace(topo.builder.host("source").address(), kGroup.address(), "receiver",
                       topo.net.node_names());
    ASSERT_TRUE(shared.found);
    EXPECT_EQ(shared.seq, 1u);
    EXPECT_TRUE(ordered_subpath(hop_nodes(shared),
                                {"source", "B", "C", "A", "receiver"}))
        << recorder.format_trace(shared);
    bool saw_register = false;
    bool saw_wildcard_at_rp = false;
    for (const auto& hop : shared.hops) {
        if (hop.node_name == "B" && hop.rec.kind == EntryKind::kRegister) {
            saw_register = true;
        }
        if (hop.node_name == "C" && hop.rec.kind == EntryKind::kWildcard) {
            saw_wildcard_at_rp = true;
        }
    }
    EXPECT_TRUE(saw_register) << recorder.format_trace(shared);
    EXPECT_TRUE(saw_wildcard_at_rp) << recorder.format_trace(shared);

    // Phase 2 — steady state on the SPT: the receiver's path now runs
    // source → B → E → A, native (S,G) forwarding with the SPT bit set,
    // and no register hop anywhere.
    topo.net.run_for(1241 * kMs); // to t = 1.5 s
    const Recorder::TraceResult spt =
        recorder.trace(topo.builder.host("source").address(), kGroup.address(), "receiver",
                       topo.net.node_names());
    ASSERT_TRUE(spt.found);
    EXPECT_EQ(spt.seq, 30u);
    EXPECT_TRUE(ordered_subpath(hop_nodes(spt),
                                {"source", "B", "E", "A", "receiver"}))
        << recorder.format_trace(spt);
    for (const auto& hop : spt.hops) {
        EXPECT_NE(hop.rec.kind, EntryKind::kRegister)
            << recorder.format_trace(spt);
        if (hop.node_name == "E" || hop.node_name == "A") {
            EXPECT_EQ(hop.rec.kind, EntryKind::kSg);
            EXPECT_TRUE(hop.rec.spt_bit);
        }
    }
    // Per-hop latency attribution: the E hop sits behind the 20 ms link.
    for (std::size_t i = 1; i < spt.hops.size(); ++i) {
        if (spt.hops[i].node_name == "E") {
            EXPECT_GE(spt.hops[i].latency, 15 * kMs);
        }
    }
}

TEST(ProvenancePentagon, DropSummaryNamesRouterAndReason) {
    // The SPT switchover's transition window drops straggler shared-tree
    // copies at A with an rpf-fail: the one-line summary must name both.
    WalkthroughPentagon topo;
    Recorder recorder;
    topo.net.set_provenance(&recorder);
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.builder.router("C").router_id()});
    stack.set_spt_policy(pim::SptPolicy::immediate());
    topo.net.simulator().schedule_at(120 * sim::kMillisecond, [&] {
        stack.host_agent(topo.builder.host("receiver")).join(kGroup);
    });
    topo.net.simulator().schedule_at(130 * sim::kMillisecond, [&] {
        stack.host_agent(topo.builder.host("viewer")).join(kGroup);
    });
    topo.builder.host("source").send_stream(kGroup, 30, 10 * sim::kMillisecond,
                                            250 * sim::kMillisecond);
    topo.net.run_for(1500 * sim::kMillisecond);
    ASSERT_GT(topo.net.stats().drops(DropReason::kRpfFail), 0u);
    const std::string summary = recorder.drop_summary(topo.net.node_names());
    EXPECT_NE(summary.find("A"), std::string::npos) << summary;
    EXPECT_NE(summary.find("rpf-fail"), std::string::npos) << summary;
}

// --- every protocol records through the same hop builder -----------------

// Fig. 3's topology under each of the five stacks, with the RP (or CBT
// core) at B so the delivered path D→B→A is the whole tree. The last
// delivered packet's trace must be bracketed by the two host records with
// a forwarding decision at every router between them, and a copy heard on
// the wrong interface must be recorded as an RPF failure.
TEST(ProvenanceProtocols, EveryStackRecordsTheDeliveredPathAndRpfFailures) {
    for (const auto& [protocol, make] : scenario::kStackProtocols) {
        SCOPED_TRACE(protocol);
        Fig3Topology topo;
        Recorder recorder;
        topo.net.set_provenance(&recorder);
        const std::unique_ptr<scenario::StackBase> stack = make(topo.net, fast_config());
        stack->set_rp(kGroup, {topo.b->router_id()});
        topo.net.run_for(200 * sim::kMillisecond);
        stack->host_agent(*topo.receiver).join(kGroup);
        // A CBT sender's DR forwards natively only from on the tree; off it,
        // the DR encapsulates toward the core instead.
        if (protocol == "cbt") stack->host_agent(*topo.source).join(kGroup);
        topo.net.run_for(500 * sim::kMillisecond);
        topo.source->send_stream(kGroup, 10, 50 * sim::kMillisecond);
        topo.net.run_for(1 * sim::kSecond);

        const auto trace = recorder.trace(topo.source->address(), kGroup.address(), "receiver",
                                          topo.net.node_names());
        ASSERT_TRUE(trace.found);
        ASSERT_GE(trace.hops.size(), 3u);
        EXPECT_EQ(trace.hops.front().rec.kind, EntryKind::kOrigin);
        EXPECT_EQ(trace.hops.front().node_name, "source");
        EXPECT_EQ(trace.hops.back().rec.kind, EntryKind::kDeliver);
        EXPECT_EQ(trace.hops.back().node_name, "receiver");
        for (std::size_t i = 1; i + 1 < trace.hops.size(); ++i) {
            const auto& hop = trace.hops[i];
            EXPECT_GT(hop.rec.oif_count, 0) << hop.node_name << "\n"
                                            << recorder.format_trace(trace);
            EXPECT_EQ(hop.rec.drop, DropReason::kNone) << hop.node_name;
        }

        // The first packet reaches B and A before they hold (S,G) state:
        // the dense protocols forward it from on_no_entry, PIM-SM's RP from
        // the register decapsulation. Each must record the oifs it sent on.
        const auto first = recorder.records_for(
            provenance::packet_id(topo.source->address(), kGroup.address(), 1));
        for (const std::string router : {"B", "A", "receiver"}) {
            EXPECT_TRUE(std::any_of(first.begin(), first.end(), [&](const auto& rec) {
                return topo.net.node(rec.node).name() == router &&
                       rec.drop == DropReason::kNone &&
                       (rec.oif_count > 0 || rec.kind == EntryKind::kDeliver);
            })) << router;
        }

        // The source's data heard on B's link to C fails B's RPF check.
        const std::uint64_t before =
            drops_counter(topo.net.telemetry().registry(), DropReason::kRpfFail);
        net::Packet stray;
        stray.src = topo.source->address();
        stray.dst = kGroup.address();
        stray.proto = net::IpProto::kUdp;
        stray.seq = 1000;
        stray.pid = provenance::packet_id(stray.src, stray.dst, stray.seq);
        topo.b->receive(topo.ifindex_toward(*topo.b, *topo.c), stray);
        const auto records = recorder.records_for(stray.pid);
        ASSERT_EQ(records.size(), 1u);
        EXPECT_EQ(topo.net.node(records[0].node).name(), "B");
        EXPECT_EQ(records[0].drop, DropReason::kRpfFail);
        EXPECT_FALSE(records[0].rpf_ok);
        EXPECT_EQ(drops_counter(topo.net.telemetry().registry(), DropReason::kRpfFail),
                  before + 1);
    }
}

// --- recorder mechanics ---------------------------------------------------

TEST(ProvenanceRecorder, RingStaysBounded) {
    Recorder rec;
    rec.add_rings(1);
    const std::uint64_t total = 2 * provenance::kRingCapacity + 3;
    for (std::uint64_t i = 0; i < total; ++i) {
        net::Packet packet;
        packet.pid = 1000 + i;
        ASSERT_NE(rec.begin(0, packet, static_cast<sim::Time>(i)), nullptr);
    }
    EXPECT_EQ(rec.total_records(), total);
    // Only the kRingCapacity newest survive.
    EXPECT_EQ(rec.all_records().size(), provenance::kRingCapacity);
    EXPECT_EQ(rec.records_for(1000 + total - provenance::kRingCapacity).size(), 1u);
    EXPECT_TRUE(rec.records_for(1000 + total - provenance::kRingCapacity - 1).empty());
    // Unstamped (control) packets never take a slot.
    EXPECT_EQ(rec.begin(0, net::Packet{}, 0), nullptr);
    EXPECT_EQ(rec.total_records(), total);
}

TEST(ProvenanceRecorder, ReusedSlotCarriesNothingFromItsPreviousOccupant) {
    Recorder rec;
    net::Packet old_packet;
    old_packet.pid = 7;
    for (std::size_t i = 0; i < provenance::kRingCapacity; ++i) {
        provenance::HopRecord* hop = rec.begin(0, old_packet, 1);
        hop->iif = 3;
        hop->segment = 5;
        hop->kind = EntryKind::kSg;
        hop->drop = DropReason::kNoOif;
        hop->rpf_ok = false;
        hop->spt_bit = true;
        hop->rp_bit = true;
        hop->add_oif(1);
        hop->add_oif(2);
    }
    // The ring is full: the next hop overwrites the oldest slot.
    net::Packet packet;
    packet.src = net::Ipv4Address(10, 0, 0, 1);
    packet.dst = kGroup.address();
    packet.seq = 9;
    packet.ttl = 12;
    packet.pid = 8;
    provenance::HopRecord* hop = rec.begin(0, packet, 100);
    ASSERT_NE(hop, nullptr);
    EXPECT_EQ(hop->pid, 8u);
    EXPECT_EQ(hop->at, 100);
    EXPECT_EQ(hop->node, 0);
    EXPECT_EQ(hop->src, packet.src);
    EXPECT_EQ(hop->group, packet.dst);
    EXPECT_EQ(hop->seq, 9u);
    EXPECT_EQ(hop->ttl, 12);
    EXPECT_EQ(hop->oif_count, 0);
    EXPECT_EQ(hop->oifs, (std::array<std::int8_t, provenance::kMaxRecordedOifs>{}));
    EXPECT_EQ(hop->drop, DropReason::kNone);
    EXPECT_EQ(hop->segment, -1);
    EXPECT_EQ(hop->iif, -1);
    EXPECT_EQ(hop->kind, EntryKind::kNone);
    EXPECT_TRUE(hop->rpf_ok);
    EXPECT_FALSE(hop->spt_bit);
    EXPECT_FALSE(hop->rp_bit);
    EXPECT_EQ(rec.records_for(8).size(), 1u);
    EXPECT_EQ(rec.records_for(7).size(), provenance::kRingCapacity - 1);
}

TEST(ProvenanceRecorder, PacketIdIsDeterministicAndNeverZero) {
    const net::Ipv4Address s(10, 0, 0, 1);
    const net::Ipv4Address g(224, 1, 1, 1);
    EXPECT_EQ(provenance::packet_id(s, g, 1), provenance::packet_id(s, g, 1));
    EXPECT_NE(provenance::packet_id(s, g, 1), provenance::packet_id(s, g, 2));
    for (std::uint64_t seq = 0; seq < 1000; ++seq) {
        EXPECT_NE(provenance::packet_id(s, g, seq), 0u);
    }
}

} // namespace
} // namespace pimlib::test
