// Packet tracer tests: capture, filters, and protocol-aware decoding of
// every control message family.
#include <gtest/gtest.h>

#include "test_util.hpp"
#include "trace/tracer.hpp"

namespace pimlib::test {
namespace {

class TraceTest : public ::testing::Test {
protected:
    TraceTest() : tracer_(topo_.net), stack_(topo_.net, fast_config()) {
        stack_.set_rp(kGroup, {topo_.c->router_id()});
        stack_.set_spt_policy(pim::SptPolicy::never());
    }

    Fig3Topology topo_;
    trace::PacketTracer tracer_;
    scenario::PimSmStack stack_;
};

TEST_F(TraceTest, CapturesAndDecodesPimExchange) {
    topo_.net.run_for(100 * sim::kMillisecond);
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    topo_.source->send_data(kGroup);
    topo_.net.run_for(300 * sim::kMillisecond);

    EXPECT_GT(tracer_.count_matching("PIM Query"), 0u);
    EXPECT_GT(tracer_.count_matching("IGMP Report grp=224.1.1.1"), 0u);
    EXPECT_GT(tracer_.count_matching("PIM Join/Prune to="), 0u);
    EXPECT_GT(tracer_.count_matching("[grp=224.1.1.1 join="), 0u);
    EXPECT_GT(tracer_.count_matching("WC|RP"), 0u); // the shared-tree join flags
    // One register message, captured once per segment it crosses (D→B, B→C).
    EXPECT_EQ(tracer_.count_matching("PIM Register grp=224.1.1.1 src=" +
                                     topo_.source->address().to_string()),
              2u);
    EXPECT_GT(tracer_.count_matching("PIM RP-Reachability grp=224.1.1.1 rp=" +
                                     topo_.c->router_id().to_string()),
              0u);
    EXPECT_GT(tracer_.count_matching("DATA grp=224.1.1.1 seq=1"), 0u);

    const std::string dump = tracer_.dump();
    EXPECT_NE(dump.find("ms"), std::string::npos);
    EXPECT_NE(dump.find("seg"), std::string::npos);
}

TEST_F(TraceTest, ProtoFilterRestrictsCapture) {
    tracer_.set_proto_filter(net::IpProto::kUdp);
    topo_.net.run_for(100 * sim::kMillisecond);
    stack_.host_agent(*topo_.receiver).join(kGroup);
    topo_.net.run_for(200 * sim::kMillisecond);
    topo_.source->send_data(kGroup);
    topo_.net.run_for(300 * sim::kMillisecond);
    ASSERT_FALSE(tracer_.records().empty());
    for (const auto& r : tracer_.records()) {
        EXPECT_EQ(r.packet.proto, net::IpProto::kUdp);
    }
}

TEST_F(TraceTest, GroupFilterDropsOtherGroups) {
    const net::GroupAddress other{net::Ipv4Address(224, 9, 9, 9)};
    stack_.set_rp(other, {topo_.c->router_id()});
    tracer_.set_group_filter(kGroup);
    topo_.net.run_for(100 * sim::kMillisecond);
    tracer_.clear();
    stack_.host_agent(*topo_.receiver).join(other);
    topo_.net.run_for(300 * sim::kMillisecond);
    // Joins/reports for the other group were filtered out.
    EXPECT_EQ(tracer_.count_matching("224.9.9.9"), 0u);
}

TEST_F(TraceTest, EnableToggleAndClear) {
    topo_.net.run_for(50 * sim::kMillisecond);
    EXPECT_FALSE(tracer_.records().empty());
    tracer_.clear();
    tracer_.set_enabled(false);
    topo_.net.run_for(200 * sim::kMillisecond);
    EXPECT_TRUE(tracer_.records().empty());
    tracer_.set_enabled(true);
    topo_.net.run_for(200 * sim::kMillisecond);
    EXPECT_FALSE(tracer_.records().empty());
}

TEST(TraceDescribe, DecodesAllFamilies) {
    using trace::describe_packet;
    net::Packet p;
    p.proto = net::IpProto::kIgmp;

    p.payload = igmp::Query{net::Ipv4Address{}}.encode();
    EXPECT_EQ(describe_packet(p), "IGMP Query (general)");

    p.payload = igmp::RpMapReport{kGroup.address(), {net::Ipv4Address(1, 2, 3, 4)}}.encode();
    EXPECT_EQ(describe_packet(p), "IGMP RP-Map grp=224.1.1.1 rps=[1.2.3.4]");

    p.payload = dvmrp::PruneMsg{net::Ipv4Address(10, 0, 1, 3), kGroup.address(), 5}.encode();
    EXPECT_EQ(describe_packet(p), "DVMRP Prune src=10.0.1.3 grp=224.1.1.1");

    p.payload = dvmrp::GraftMsg{net::Ipv4Address(10, 0, 1, 3), kGroup.address()}.encode();
    EXPECT_EQ(describe_packet(p), "DVMRP Graft src=10.0.1.3 grp=224.1.1.1");

    p.proto = net::IpProto::kCbt;
    p.payload = cbt::JoinRequest{kGroup.address(), net::Ipv4Address(9, 9, 9, 9)}.encode();
    EXPECT_EQ(describe_packet(p), "CBT Join-Request grp=224.1.1.1 core=9.9.9.9");

    p.proto = net::IpProto::kOspf;
    mospf::MembershipLsa lsa;
    lsa.origin = net::Ipv4Address(192, 168, 0, 1);
    lsa.seq = 1;
    lsa.groups = {kGroup.address()};
    p.payload = lsa.encode();
    EXPECT_EQ(describe_packet(p), "MOSPF Membership-LSA origin=192.168.0.1 groups=1");

    p.proto = net::IpProto::kRip;
    p.payload = {};
    EXPECT_EQ(describe_packet(p), "DV Update");

    p.proto = net::IpProto::kUdp;
    p.dst = kGroup.address();
    p.seq = 7;
    EXPECT_EQ(describe_packet(p), "DATA grp=224.1.1.1 seq=7");

    // Malformed inputs decode to explicit markers, never crash.
    p.proto = net::IpProto::kIgmp;
    p.payload = {0x14, 0x04, 0x01};
    EXPECT_EQ(describe_packet(p), "PIM Join/Prune (malformed)");
    // The retired single-group Join/Prune code is not a PIM message.
    p.payload = {0x14, 0x02, 0x01};
    EXPECT_EQ(describe_packet(p), "PIM (malformed)");
}

TEST(TraceDescribe, DecodesEveryPimMessage) {
    using trace::describe_packet;
    net::Packet p;
    p.proto = net::IpProto::kIgmp;

    p.payload = pim::Query{30000}.encode();
    EXPECT_EQ(describe_packet(p), "PIM Query");

    pim::Register reg;
    reg.group = kGroup.address();
    reg.inner_src = net::Ipv4Address(10, 0, 5, 2);
    reg.inner_seq = 3;
    p.payload = reg.encode();
    EXPECT_EQ(describe_packet(p), "PIM Register grp=224.1.1.1 src=10.0.5.2 seq=3");

    // Join/Prune with every flag combination: a WC|RP shared-tree join, an
    // RP-bit prune (the §3.3 negative cache), and a plain (S,G) prune.
    pim::JoinPruneBundle jp;
    jp.upstream_neighbor = net::Ipv4Address(10, 0, 1, 2);
    pim::JoinPruneBundle::GroupRecord rec;
    rec.group = kGroup.address();
    rec.joins = {pim::AddressEntry{net::Ipv4Address(192, 168, 0, 3),
                                   pim::EntryFlags{true, true}}};
    rec.prunes = {pim::AddressEntry{net::Ipv4Address(10, 0, 5, 2),
                                    pim::EntryFlags{false, true}},
                  pim::AddressEntry{net::Ipv4Address(10, 0, 5, 2),
                                    pim::EntryFlags{false, false}}};
    jp.groups = {rec};
    p.payload = jp.encode();
    EXPECT_EQ(describe_packet(p),
              "PIM Join/Prune to=10.0.1.2 groups=1 [grp=224.1.1.1 "
              "join=[192.168.0.3(WC|RP)] prune=[10.0.5.2(RP) 10.0.5.2(-)]]");

    // WC without RP renders alone; empty prune list renders as []. A second
    // record follows the first in message order.
    rec.joins = {pim::AddressEntry{net::Ipv4Address(192, 168, 0, 3),
                                   pim::EntryFlags{true, false}}};
    rec.prunes.clear();
    jp.groups = {rec, pim::JoinPruneBundle::GroupRecord{
                          net::Ipv4Address(224, 1, 1, 2), {}, rec.joins}};
    p.payload = jp.encode();
    EXPECT_EQ(describe_packet(p),
              "PIM Join/Prune to=10.0.1.2 groups=2 [grp=224.1.1.1 "
              "join=[192.168.0.3(WC)] prune=[]] [grp=224.1.1.2 join=[] "
              "prune=[192.168.0.3(WC)]]");

    p.payload = pim::RpReachability{kGroup.address(),
                                    net::Ipv4Address(192, 168, 0, 3), 90000}
                    .encode();
    EXPECT_EQ(describe_packet(p), "PIM RP-Reachability grp=224.1.1.1 rp=192.168.0.3");

    // Truncated register decodes to a marker, never crashes.
    p.payload = {0x14, 0x01};
    EXPECT_EQ(describe_packet(p), "PIM Register (malformed)");
}

TEST(TraceDescribe, DecodesIgmpQueriesReportsAndDvmrpProbe) {
    using trace::describe_packet;
    net::Packet p;
    p.proto = net::IpProto::kIgmp;

    p.payload = igmp::Query{kGroup.address()}.encode();
    EXPECT_EQ(describe_packet(p), "IGMP Query grp=224.1.1.1");

    p.payload = igmp::Report{kGroup.address()}.encode();
    EXPECT_EQ(describe_packet(p), "IGMP Report grp=224.1.1.1");

    p.payload = dvmrp::Probe{10000}.encode();
    EXPECT_EQ(describe_packet(p), "DVMRP Probe");

    p.payload = {};
    EXPECT_EQ(describe_packet(p), "IGMP (empty)");
}

TEST(TraceDescribe, DecodesEveryCbtMessage) {
    using trace::describe_packet;
    net::Packet p;
    p.proto = net::IpProto::kCbt;
    const net::Ipv4Address core(9, 9, 9, 9);

    p.payload = cbt::JoinAck{kGroup.address(), core}.encode();
    EXPECT_EQ(describe_packet(p), "CBT Join-Ack");

    p.payload = cbt::GroupOnly{cbt::Code::kQuit, kGroup.address()}.encode();
    EXPECT_EQ(describe_packet(p), "CBT Quit");

    p.payload = cbt::GroupOnly{cbt::Code::kEchoRequest, kGroup.address()}.encode();
    EXPECT_EQ(describe_packet(p), "CBT Echo-Request");

    p.payload = cbt::GroupOnly{cbt::Code::kEchoReply, kGroup.address()}.encode();
    EXPECT_EQ(describe_packet(p), "CBT Echo-Reply");

    p.payload = cbt::GroupOnly{cbt::Code::kFlush, kGroup.address()}.encode();
    EXPECT_EQ(describe_packet(p), "CBT Flush");

    p.payload = {};
    EXPECT_EQ(describe_packet(p), "CBT (malformed)");
}

TEST(TraceDescribe, DecodesUnicastDataAndLinkState) {
    using trace::describe_packet;
    net::Packet p;

    // Register/CBT-encapsulated data rides unicast UDP (fig. 3).
    p.proto = net::IpProto::kUdp;
    p.dst = net::Ipv4Address(192, 168, 0, 3);
    p.seq = 12;
    EXPECT_EQ(describe_packet(p), "DATA (unicast-encapsulated) seq=12");

    p.proto = net::IpProto::kOspf;
    p.payload = {1};
    EXPECT_EQ(describe_packet(p), "LS Hello");
    p.payload = {2};
    EXPECT_EQ(describe_packet(p), "LS LSA");
    p.payload = {9};
    EXPECT_EQ(describe_packet(p), "OSPF (unknown)");
}

} // namespace
} // namespace pimlib::test
