// Flight-recorder and typed-drop-accounting tests: one scenario per
// DropReason asserting that (a) the labeled pimlib_forward_drops_total
// counter increments and (b) the recorded HopRecord carries the reason —
// plus the mtrace-style path attribution on the walkthrough pentagon,
// covering both the shared-tree and the post-switchover SPT phase.
#include <gtest/gtest.h>

#include <algorithm>

#include "fault/fault_injector.hpp"
#include "mcast/forwarding_cache.hpp"
#include "provenance/provenance.hpp"
#include "test_util.hpp"
#include "topo/segment.hpp"

namespace pimlib::test {
namespace {

using provenance::DropReason;
using provenance::EntryKind;
using provenance::Recorder;

std::uint64_t drops_counter(telemetry::Registry& reg, DropReason reason) {
    return reg
        .counter("pimlib_forward_drops_total",
                 {{"reason", provenance::drop_reason_label(reason)}})
        .value();
}

/// The dump names the reason on a per-record basis; asserting on the JSON
/// checks the record itself, not just the aggregate counter.
bool dump_names_reason(const Recorder& rec, DropReason reason) {
    const std::string needle =
        std::string("\"drop\":\"") + provenance::drop_reason_label(reason) + "\"";
    return rec.dump_json().find(needle) != std::string::npos;
}

// --- data-plane drops on a one-router topology ----------------------------

class DropRecorderTest : public ::testing::Test, public mcast::DataPlane::Delegate {
protected:
    DropRecorderTest() : recorder(net.telemetry().registry()) {
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
    EXPECT_EQ(recorder.drop_count(DropReason::kRpfFail), 1u);
    EXPECT_EQ(drops_counter(registry(), DropReason::kRpfFail), 1u);
    EXPECT_TRUE(dump_names_reason(recorder, DropReason::kRpfFail));
    EXPECT_EQ(member->received_count(kGroup), 0u);
}

TEST_F(DropRecorderTest, NegCacheIsCountedAndRecorded) {
    // An RP-bit entry whose every oif has been pruned away discards by
    // design (§3.3): the drop must read "neg-cache", not "no-oif".
    auto& wc = cache.ensure_wc(net::Ipv4Address(192, 168, 0, 9), kGroup);
    wc.set_iif(0);
    send_from_source();
    EXPECT_EQ(recorder.drop_count(DropReason::kNegCache), 1u);
    EXPECT_EQ(drops_counter(registry(), DropReason::kNegCache), 1u);
    EXPECT_TRUE(dump_names_reason(recorder, DropReason::kNegCache));
    EXPECT_EQ(recorder.drop_count(DropReason::kNoOif), 0u);
}

TEST_F(DropRecorderTest, NoOifIsCountedAndRecorded) {
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(0);
    sg.set_spt_bit(true); // no live oifs, not an RP-bit entry
    send_from_source();
    EXPECT_EQ(recorder.drop_count(DropReason::kNoOif), 1u);
    EXPECT_EQ(drops_counter(registry(), DropReason::kNoOif), 1u);
    EXPECT_TRUE(dump_names_reason(recorder, DropReason::kNoOif));
    EXPECT_EQ(recorder.drop_count(DropReason::kNegCache), 0u);
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
    EXPECT_EQ(recorder.drop_count(DropReason::kTtl), 1u);
    EXPECT_EQ(drops_counter(registry(), DropReason::kTtl), 1u);
    EXPECT_TRUE(dump_names_reason(recorder, DropReason::kTtl));
}

TEST_F(DropRecorderTest, SegmentLossIsCountedAndRecorded) {
    fault::FaultInjector faults(net);
    faults.set_loss(*lan_in, 1.0); // every frame on the source LAN vanishes
    send_from_source();
    EXPECT_GE(recorder.drop_count(DropReason::kSegmentLoss), 1u);
    EXPECT_GE(drops_counter(registry(), DropReason::kSegmentLoss), 1u);
    EXPECT_TRUE(dump_names_reason(recorder, DropReason::kSegmentLoss));
    EXPECT_EQ(member->received_count(kGroup), 0u);
}

// --- protocol-level drops (PIM-SM classification) -------------------------

TEST(ProvenanceProtocolDrops, NoStateWhenGroupHasNoRpMapping) {
    Fig3Topology topo;
    Recorder recorder(topo.net.telemetry().registry());
    topo.net.set_provenance(&recorder);
    scenario::PimSmStack stack(topo.net, fast_config());
    // No set_rp: the source's DR can neither register nor build state.
    topo.net.run_for(500 * sim::kMillisecond);
    topo.source->send_data(kGroup);
    topo.net.run_for(50 * sim::kMillisecond);
    EXPECT_GE(recorder.drop_count(DropReason::kNoState), 1u);
    EXPECT_GE(drops_counter(topo.net.telemetry().registry(), DropReason::kNoState),
              1u);
    EXPECT_TRUE(dump_names_reason(recorder, DropReason::kNoState));
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
    Recorder recorder(net.telemetry().registry());
    net.set_provenance(&recorder);
    scenario::PimSmStack stack(net, fast_config());
    stack.set_rp(kGroup, {c.router_id()});
    net.run_for(800 * sim::kMillisecond); // hellos elect the LAN's DR
    stack.host_agent(receiver).join(kGroup);
    net.run_for(200 * sim::kMillisecond);
    source.send_stream(kGroup, 5, 10 * sim::kMillisecond);
    net.run_for(200 * sim::kMillisecond);
    EXPECT_GE(recorder.drop_count(DropReason::kAssertLoser), 1u);
    EXPECT_GE(drops_counter(net.telemetry().registry(), DropReason::kAssertLoser),
              1u);
    EXPECT_TRUE(dump_names_reason(recorder, DropReason::kAssertLoser));
    EXPECT_GE(receiver.received_count(kGroup), 1u); // the DR still delivers
}

TEST(ProvenanceProtocolDrops, NoRouteWhenRegisterTargetUnreachable) {
    Fig3Topology topo;
    Recorder recorder(topo.net.telemetry().registry());
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
    EXPECT_GE(recorder.drop_count(DropReason::kNoRoute), 1u);
    EXPECT_GE(drops_counter(topo.net.telemetry().registry(), DropReason::kNoRoute),
              1u);
    EXPECT_TRUE(dump_names_reason(recorder, DropReason::kNoRoute));
}

// --- mtrace path attribution on the walkthrough pentagon ------------------

/// The five-router pentagon of the checker's walkthrough scenario
/// (src/check/scenarios/walkthrough.pimsim): receiver
/// behind A, source behind B, RP at C, viewer behind D. A's unicast route
/// to the source runs A-E-B (metric 2), so the immediate SPT switchover
/// moves the receiver's delivery path off the RP.
struct Pentagon {
    topo::Network net;
    topo::Router* a;
    topo::Router* b;
    topo::Router* c;
    topo::Router* d;
    topo::Router* e;
    topo::Host* receiver;
    topo::Host* source;
    topo::Host* viewer;
    std::unique_ptr<unicast::OracleRouting> routing;

    Pentagon() {
        constexpr sim::Time kMs = sim::kMillisecond;
        a = &net.add_router("A");
        b = &net.add_router("B");
        c = &net.add_router("C");
        d = &net.add_router("D");
        e = &net.add_router("E");
        net.add_link(*a, *e, 1 * kMs, 1);
        net.add_link(*e, *b, 20 * kMs, 1);
        net.add_link(*a, *c, 1 * kMs, 1);
        net.add_link(*b, *c, 1 * kMs, 2);
        net.add_link(*c, *d, 1 * kMs, 1);
        auto& lan0 = net.add_lan({a});
        auto& lan1 = net.add_lan({b});
        auto& lan2 = net.add_lan({d});
        receiver = &net.add_host("receiver", lan0);
        source = &net.add_host("source", lan1);
        viewer = &net.add_host("viewer", lan2);
        routing = std::make_unique<unicast::OracleRouting>(net);
    }
};

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
    Pentagon topo;
    Recorder recorder(topo.net.telemetry().registry());
    topo.net.set_provenance(&recorder);
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.c->router_id()});
    stack.set_spt_policy(pim::SptPolicy::immediate());

    topo.net.simulator().schedule_at(
        120 * kMs, [&] { stack.host_agent(*topo.receiver).join(kGroup); });
    topo.net.simulator().schedule_at(
        130 * kMs, [&] { stack.host_agent(*topo.viewer).join(kGroup); });
    topo.source->send_stream(kGroup, 30, 10 * kMs, 250 * kMs);

    // Phase 1 — the first packet travels the shared tree while the
    // triggered (S,G) joins are still propagating: register at the source
    // DR, decapsulation at the RP, (*,G) down to the receiver.
    topo.net.run_for(259 * kMs);
    const Recorder::TraceResult shared =
        recorder.trace(topo.source->address(), kGroup.address(), "receiver");
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
        recorder.trace(topo.source->address(), kGroup.address(), "receiver");
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
    Pentagon topo;
    Recorder recorder(topo.net.telemetry().registry());
    topo.net.set_provenance(&recorder);
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.c->router_id()});
    stack.set_spt_policy(pim::SptPolicy::immediate());
    topo.net.simulator().schedule_at(120 * sim::kMillisecond, [&] {
        stack.host_agent(*topo.receiver).join(kGroup);
    });
    topo.net.simulator().schedule_at(130 * sim::kMillisecond, [&] {
        stack.host_agent(*topo.viewer).join(kGroup);
    });
    topo.source->send_stream(kGroup, 30, 10 * sim::kMillisecond,
                             250 * sim::kMillisecond);
    topo.net.run_for(1500 * sim::kMillisecond);
    ASSERT_GT(recorder.drop_count(DropReason::kRpfFail), 0u);
    const std::string summary = recorder.drop_summary();
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
    for (const std::string protocol : {"pim-sm", "pim-dm", "dvmrp", "mospf", "cbt"}) {
        SCOPED_TRACE(protocol);
        Fig3Topology topo;
        Recorder recorder(topo.net.telemetry().registry());
        topo.net.set_provenance(&recorder);
        std::unique_ptr<scenario::StackBase> stack;
        if (protocol == "pim-sm") {
            auto sm = std::make_unique<scenario::PimSmStack>(topo.net, fast_config());
            sm->set_rp(kGroup, {topo.b->router_id()});
            stack = std::move(sm);
        } else if (protocol == "pim-dm") {
            stack = std::make_unique<scenario::PimDmStack>(topo.net, fast_config());
        } else if (protocol == "dvmrp") {
            stack = std::make_unique<scenario::DvmrpStack>(topo.net, fast_config());
        } else if (protocol == "mospf") {
            stack = std::make_unique<scenario::MospfStack>(topo.net, fast_config());
        } else {
            auto cbt = std::make_unique<scenario::CbtStack>(topo.net, fast_config());
            cbt->set_core(kGroup, topo.b->router_id());
            stack = std::move(cbt);
        }
        topo.net.run_for(200 * sim::kMillisecond);
        stack->host_agent(*topo.receiver).join(kGroup);
        // A CBT sender's DR forwards natively only from on the tree; off it,
        // the DR encapsulates toward the core instead.
        if (protocol == "cbt") stack->host_agent(*topo.source).join(kGroup);
        topo.net.run_for(500 * sim::kMillisecond);
        topo.source->send_stream(kGroup, 10, 50 * sim::kMillisecond);
        topo.net.run_for(1 * sim::kSecond);

        const auto trace = recorder.trace(topo.source->address(), kGroup.address(), "receiver");
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
                return recorder.node_name(rec.node) == router &&
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
        EXPECT_EQ(recorder.node_name(records[0].node), "B");
        EXPECT_EQ(records[0].drop, DropReason::kRpfFail);
        EXPECT_FALSE(records[0].rpf_ok);
        EXPECT_EQ(drops_counter(topo.net.telemetry().registry(), DropReason::kRpfFail),
                  before + 1);
    }
}

// --- recorder mechanics ---------------------------------------------------

TEST(ProvenanceRecorder, RingStaysBounded) {
    telemetry::Registry reg;
    Recorder rec(reg);
    rec.register_node(0, "r", false);
    const std::uint64_t total = 2 * provenance::kRingCapacity + 3;
    for (std::uint64_t i = 0; i < total; ++i) {
        net::Packet packet;
        packet.pid = 1000 + i;
        rec.commit(*rec.begin(0, packet, static_cast<sim::Time>(i)));
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
    telemetry::Registry reg;
    Recorder rec(reg);
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
        rec.commit(*hop);
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
    rec.commit(*hop);
    EXPECT_EQ(rec.records_for(8).size(), 1u);
    EXPECT_EQ(rec.records_for(7).size(), provenance::kRingCapacity - 1);
    EXPECT_EQ(rec.drop_count(DropReason::kNoOif), provenance::kRingCapacity);
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
