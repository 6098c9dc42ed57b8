// CBT baseline tests: ACKed join handshake, bidirectional shared-tree
// forwarding (one hop at a time, through the shared DataPlane), sender-to-core
// encapsulation, QUIT teardown, ECHO keepalive with FLUSH + rebuild, and the
// traffic-concentration behavior the paper critiques (§1.3).
#include <gtest/gtest.h>

#include <string>

#include "alloc_count.hpp"
#include "cbt/cbt.hpp"
#include "check/watchdog.hpp"
#include "provenance/provenance.hpp"
#include "scenario/world.hpp"
#include "test_util.hpp"
#include "topo/segment.hpp"

namespace pimlib::test {
namespace {

TEST(CbtMessages, CodecRoundTrips) {
    const cbt::JoinRequest join{kGroup.address(), net::Ipv4Address(192, 168, 0, 1)};
    auto j = cbt::JoinRequest::decode(join.encode());
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(j->group, join.group);
    EXPECT_EQ(j->core, join.core);

    const cbt::JoinAck ack{kGroup.address(), net::Ipv4Address(192, 168, 0, 1)};
    ASSERT_TRUE(cbt::JoinAck::decode(ack.encode()).has_value());
    EXPECT_FALSE(cbt::JoinAck::decode(join.encode()).has_value());

    const cbt::GroupOnly quit{cbt::Code::kQuit, kGroup.address()};
    auto q = cbt::GroupOnly::decode(quit.encode());
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->code, cbt::Code::kQuit);

    cbt::DataEncap encap;
    encap.group = kGroup.address();
    encap.inner_src = net::Ipv4Address(10, 0, 1, 3);
    encap.inner_ttl = 9;
    encap.inner_seq = 77;
    encap.inner_payload = {9, 8, 7};
    auto e = cbt::DataEncap::decode(encap.encode());
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->inner_src, encap.inner_src);
    EXPECT_EQ(e->inner_seq, 77u);
    EXPECT_EQ(e->inner_payload, encap.inner_payload);
}

// member1—LAN—A—B(core)—C—LAN—member2, plus D—B with a non-member sender.
struct CbtFixture : public ::testing::Test {
    topo::Network net;
    topo::Router* a;
    topo::Router* b; // core
    topo::Router* c;
    topo::Router* d;
    topo::Host* member1;
    topo::Host* member2;
    topo::Host* sender;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<scenario::CbtStack> stack;

    CbtFixture() {
        a = &net.add_router("A");
        b = &net.add_router("B");
        c = &net.add_router("C");
        d = &net.add_router("D");
        auto& lan1 = net.add_lan({a});
        member1 = &net.add_host("m1", lan1);
        net.add_link(*a, *b);
        net.add_link(*b, *c);
        net.add_link(*b, *d);
        auto& lan2 = net.add_lan({c});
        member2 = &net.add_host("m2", lan2);
        auto& lan3 = net.add_lan({d});
        sender = &net.add_host("sender", lan3);
        routing = std::make_unique<unicast::OracleRouting>(net);
        stack = std::make_unique<scenario::CbtStack>(net, fast_config());
        stack->set_rp(kGroup, {b->router_id()});
        net.run_for(100 * sim::kMillisecond);
    }

    void join_members() {
        stack->host_agent(*member1).join(kGroup);
        stack->host_agent(*member2).join(kGroup);
        net.run_for(200 * sim::kMillisecond);
    }
};

TEST_F(CbtFixture, JoinAckBuildsTree) {
    join_members();
    EXPECT_TRUE(stack->cbt_at(*a).on_tree(kGroup));
    EXPECT_TRUE(stack->cbt_at(*b).on_tree(kGroup));
    EXPECT_TRUE(stack->cbt_at(*c).on_tree(kGroup));
    EXPECT_FALSE(stack->cbt_at(*d).on_tree(kGroup));

    const auto* state_b = stack->cbt_at(*b).tree_state(kGroup);
    ASSERT_NE(state_b, nullptr);
    EXPECT_EQ(state_b->parent_ifindex, -1); // the core has no parent
    EXPECT_EQ(state_b->children.size(), 2u); // A and C

    const auto* state_a = stack->cbt_at(*a).tree_state(kGroup);
    ASSERT_NE(state_a, nullptr);
    EXPECT_EQ(state_a->parent_address,
              b->interface(b->ifindex_on(*net.find_link(*a, *b)).value()).address);
}

TEST_F(CbtFixture, MemberSenderFloodsBidirectionally) {
    join_members();
    // member1 is on the tree at A; its packets go up and across without
    // passing an encapsulation to the core first.
    member1->send_stream(kGroup, 3, 20 * sim::kMillisecond);
    net.run_for(300 * sim::kMillisecond);
    EXPECT_EQ(member2->received_count(kGroup), 3u);
    EXPECT_EQ(member2->duplicate_count(), 0u);
    // The sender's own LAN copy is the only one member1 sees (no echo).
    EXPECT_EQ(member1->received_count_from(member1->address(), kGroup), 0u);
}

TEST_F(CbtFixture, NonMemberSenderEncapsulatesToCore) {
    join_members();
    sender->send_stream(kGroup, 3, 20 * sim::kMillisecond);
    net.run_for(300 * sim::kMillisecond);
    EXPECT_EQ(member1->received_count(kGroup), 3u);
    EXPECT_EQ(member2->received_count(kGroup), 3u);
    EXPECT_EQ(member1->duplicate_count(), 0u);
    // All three senders' flows cross the links around the core — the
    // traffic-concentration effect: the B—D link carried the encapsulated
    // data as data packets.
    const auto* bd = net.find_link(*b, *d);
    EXPECT_GE(net.stats().data_packets_on(bd->id()), 3u);
}

TEST_F(CbtFixture, QuitPrunesEmptyBranch) {
    join_members();
    stack->host_agent(*member2).leave(kGroup);
    net.run_for(2 * sim::kSecond); // membership ages out; C quits
    EXPECT_FALSE(stack->cbt_at(*c).on_tree(kGroup));
    const auto* state_b = stack->cbt_at(*b).tree_state(kGroup);
    ASSERT_NE(state_b, nullptr);
    EXPECT_EQ(state_b->children.size(), 1u);

    member1->clear_received();
    sender->send_data(kGroup);
    net.run_for(200 * sim::kMillisecond);
    EXPECT_EQ(member1->received_count(kGroup), 1u);
    EXPECT_EQ(member2->received_count(kGroup), 0u);
}

TEST_F(CbtFixture, EchoTimeoutFlushesAndRebuilds) {
    join_members();
    // Partition A from the core; ECHO replies stop; A flushes its subtree.
    net.find_link(*a, *b)->set_up(false);
    net.run_for(3 * sim::kSecond);
    EXPECT_FALSE(stack->cbt_at(*a).on_tree(kGroup));

    // Heal the link: the periodic rejoin re-attaches A.
    net.find_link(*a, *b)->set_up(true);
    routing->recompute();
    net.run_for(2 * sim::kSecond);
    EXPECT_TRUE(stack->cbt_at(*a).on_tree(kGroup));
    sender->send_data(kGroup);
    net.run_for(200 * sim::kMillisecond);
    EXPECT_EQ(member1->received_count(kGroup), 1u);
}

TEST_F(CbtFixture, SharedTreePathLongerThanUnicast) {
    // The Fig. 1(c) complaint: member2→member1 packets travel via the core
    // even when a shorter unicast path exists. Add a direct A—C link so the
    // shortest path avoids B, then verify CBT still routes via B.
    net.add_link(*a, *c);
    routing->recompute();
    net.run_for(500 * sim::kMillisecond);
    join_members();
    member2->send_data(kGroup);
    net.run_for(200 * sim::kMillisecond);
    EXPECT_EQ(member1->received_count(kGroup), 1u);
    // The direct A—C link carried no data: traffic went C—B—A.
    const auto* ac = net.find_link(*a, *c);
    EXPECT_EQ(net.stats().data_packets_on(ac->id()), 0u);
    const auto* ab = net.find_link(*a, *b);
    EXPECT_GT(net.stats().data_packets_on(ab->id()), 0u);
}

// Three branches meet at M below the core X; M's interfaces are numbered
// in attach order:
//
//   h1 — lan1 — C1 —(0)— M —(2)— C2 — lan2 — h2
//                       (1)  (3)  (4)
//                        |    |    lans — s (not a member)
//                        |   lanm — hm
//                       up — hp          (a LAN: X, M and a member host)
//                        |
//                        X (core)
struct CbtBranchFixture : public ::testing::Test {
    topo::Network net;
    topo::Router* x = &net.add_router("X");
    topo::Router* m = &net.add_router("M");
    topo::Router* c1 = &net.add_router("C1");
    topo::Router* c2 = &net.add_router("C2");
    topo::Host* h1 = nullptr;
    topo::Host* h2 = nullptr;
    topo::Host* hm = nullptr;
    topo::Host* hp = nullptr;
    topo::Host* s = nullptr;
    provenance::Recorder recorder;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<scenario::CbtStack> stack;

    CbtBranchFixture() {
        net.add_link(*m, *c1);
        auto& up = net.add_lan({m, x});
        net.add_link(*m, *c2);
        hm = &net.add_host("hm", net.add_lan({m}));
        s = &net.add_host("s", net.add_lan({m}));
        hp = &net.add_host("hp", up);
        h1 = &net.add_host("h1", net.add_lan({c1}));
        h2 = &net.add_host("h2", net.add_lan({c2}));
        net.set_provenance(&recorder);
        routing = std::make_unique<unicast::OracleRouting>(net);
        stack = std::make_unique<scenario::CbtStack>(net, fast_config());
        stack->set_rp(kGroup, {x->router_id()});
        net.run_for(100 * sim::kMillisecond);
        for (topo::Host* h : {h1, h2, hm, hp}) stack->host_agent(*h).join(kGroup);
        net.run_for(200 * sim::kMillisecond);
    }

    /// M's records of one kind, oldest first.
    std::vector<provenance::HopRecord> records_at_m(provenance::EntryKind kind) const {
        std::vector<provenance::HopRecord> out;
        for (const provenance::HopRecord& rec : recorder.all_records()) {
            if (rec.node == m->id() && rec.kind == kind) out.push_back(rec);
        }
        return out;
    }

    static std::vector<int> oifs_of(const provenance::HopRecord& rec) {
        return {rec.oifs.begin(), rec.oifs.begin() + rec.oif_count};
    }
};

TEST_F(CbtBranchFixture, TreeIsTheLayoutAbove) {
    const mcast::ForwardingEntry* entry = stack->cbt_at(*m).cache().find_wc(kGroup);
    ASSERT_NE(entry, nullptr);
    EXPECT_TRUE(entry->bidirectional());
    EXPECT_EQ(entry->iif(), 1);
    std::vector<int> oifs;
    for (const auto& [ifindex, oif] : entry->oifs()) {
        EXPECT_TRUE(oif.pinned) << ifindex;
        oifs.push_back(ifindex);
    }
    // The parent LAN carries a member, so it is an oif as well as the iif.
    EXPECT_EQ(oifs, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(stack->cbt_at(*x).cache().find_wc(kGroup)->iif(), -1); // the core
}

TEST_F(CbtBranchFixture, WatchdogAcceptsAMemberLanOnTheParent) {
    // M's iif is also an oif, which a one-way entry must never have.
    check::Watchdog watchdog(net, stack->caches());
    watchdog.start();
    net.run_for(2 * sim::kSecond);
    EXPECT_GT(watchdog.entries_scanned(), 0u);
    EXPECT_TRUE(watchdog.violations().empty()) << watchdog.dump();
}

TEST_F(CbtBranchFixture, ChildArrivalGoesUpAndAcrossInAscendingOrder) {
    h1->send_data(kGroup);
    net.run_for(100 * sim::kMillisecond);
    h2->send_data(kGroup);
    net.run_for(100 * sim::kMillisecond);
    const auto hops = records_at_m(provenance::EntryKind::kTree);
    ASSERT_EQ(hops.size(), 2u);
    // The parent (1) joins the walk in its place and the arrival interface
    // is skipped; the parent LAN's member gets the one copy sent up.
    EXPECT_EQ(hops[0].iif, 0);
    EXPECT_EQ(oifs_of(hops[0]), (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(hops[1].iif, 2);
    EXPECT_EQ(oifs_of(hops[1]), (std::vector<int>{0, 1, 3}));
    for (topo::Host* h : {h1, h2, hm, hp}) {
        // A sender hears its own packet only on its LAN, as no delivery.
        EXPECT_EQ(h->received_count(kGroup), h == h1 || h == h2 ? 1u : 2u) << h->name();
        EXPECT_EQ(h->duplicate_count(), 0u) << h->name();
    }
}

TEST_F(CbtBranchFixture, ParentArrivalNeverGoesBackUp) {
    hp->send_data(kGroup);
    net.run_for(100 * sim::kMillisecond);
    const auto hops = records_at_m(provenance::EntryKind::kTree);
    ASSERT_EQ(hops.size(), 1u);
    EXPECT_EQ(hops[0].iif, 1);
    EXPECT_EQ(oifs_of(hops[0]), (std::vector<int>{0, 2, 3}));
    for (topo::Host* h : {h1, h2, hm}) {
        EXPECT_EQ(h->received_count(kGroup), 1u) << h->name();
        EXPECT_EQ(h->duplicate_count(), 0u) << h->name();
    }
    EXPECT_EQ(hp->received_count(kGroup), 0u);
}

TEST_F(CbtBranchFixture, OffTreeArrivalAtAnOnTreeDrIsEncapsulatedToTheCore) {
    s->send_data(kGroup);
    net.run_for(100 * sim::kMillisecond);
    const auto registers = records_at_m(provenance::EntryKind::kRegister);
    ASSERT_EQ(registers.size(), 1u);
    EXPECT_EQ(registers[0].iif, 4);
    EXPECT_EQ(registers[0].drop, provenance::DropReason::kNone);
    // The core injects it into the tree; it comes back down to M on the
    // parent LAN and goes out every other tree interface, not the sender's.
    const auto hops = records_at_m(provenance::EntryKind::kTree);
    ASSERT_EQ(hops.size(), 1u);
    EXPECT_EQ(hops[0].iif, 1);
    EXPECT_EQ(oifs_of(hops[0]), (std::vector<int>{0, 2, 3}));
    for (topo::Host* h : {h1, h2, hm, hp}) {
        EXPECT_EQ(h->received_count(kGroup), 1u) << h->name();
        EXPECT_EQ(h->duplicate_count(), 0u) << h->name();
    }
}

TEST_F(CbtBranchFixture, TransitHopsAllocateNothing) {
    net::Packet data;
    data.src = h1->address();
    data.dst = kGroup.address();
    data.proto = net::IpProto::kUdp;
    data.ttl = 16;
    data.payload = std::vector<std::uint8_t>(64, 0xab);
    net.set_provenance(nullptr);
    // Warm-up grows every pool the counted hop reuses (timer wheel,
    // delivery slots, the receivers' logs).
    for (int i = 0; i < 4; ++i) {
        m->receive(0, data);
        net.run_for(10 * sim::kMillisecond);
    }
    ASSERT_EQ(h2->received_count(kGroup), 4u);

    const std::uint64_t before = g_alloc_count.load();
    m->receive(0, data);
    EXPECT_EQ(g_alloc_count.load() - before, 0u) << "CBT data hop allocated";
    net.run_for(10 * sim::kMillisecond);
    EXPECT_EQ(h2->received_count(kGroup), 5u);
}

// The walkthrough pentagon (examples/scenarios/walkthrough_pentagon.pimsim)
// under CBT with the core at C, plus a group with no core (no-state drops
// at the source's DR) and the viewer leaving (D quits its branch): every
// hop's provenance record (node, kind, iif, oifs, drop) and the drop series,
// pinned as recorded before CBT moved onto the shared DataPlane. A change to
// CBT's data path must not move one.
TEST(CbtGolden, PentagonHopsAndDropsUnchanged) {
    const scenario::Blueprint plan(scenario::parse_script(R"(topology
  router A B C D E
  link A E delay=1ms metric=1
  link E B delay=20ms metric=1
  link A C delay=1ms metric=1
  link B C delay=1ms metric=2
  link C D delay=1ms metric=1
  lan lan0 A
  lan lan1 B
  lan lan2 D
  host receiver lan0
  host source lan1
  host viewer lan2
end
protocol cbt
rp 224.1.1.1 C
at 120ms join receiver 224.1.1.1
at 130ms join viewer 224.1.1.1
at 250ms send source 224.1.1.1 count=30 interval=10ms
at 260ms send source 224.2.2.2 count=2 interval=10ms
at 400ms leave viewer 224.1.1.1
run 1200ms
)"));
    const scenario::Script& script = plan.script();
    scenario::World world(plan);
    provenance::Recorder recorder;
    world.net.set_provenance(&recorder);
    world.schedule_actions();
    world.net.run_for(script.run_until);

    // FNV-1a over one rendered line per record, in recorder order.
    std::uint64_t digest = 0xcbf29ce484222325ull;
    const std::vector<provenance::HopRecord> records = recorder.all_records();
    for (const provenance::HopRecord& rec : records) {
        std::string line = world.net.node(rec.node).name() + ' ' +
                           provenance::entry_kind_label(rec.kind) + ' ' +
                           std::to_string(rec.iif) + ' ';
        for (int i = 0; i < std::min<int>(rec.oif_count, provenance::kMaxRecordedOifs); ++i) {
            line += std::to_string(rec.oifs[static_cast<std::size_t>(i)]) + ',';
        }
        line += provenance::drop_reason_label(rec.drop);
        line += '\n';
        for (const char ch : line) {
            digest ^= static_cast<unsigned char>(ch);
            digest *= 0x100000001b3ull;
        }
    }
    EXPECT_EQ(records.size(), 199u);
    EXPECT_EQ(digest, 6080194281924122226ull);
    std::string drops;
    for (std::size_t r = 0; r < provenance::kDropReasonCount; ++r) {
        const auto reason = static_cast<provenance::DropReason>(r);
        drops += std::string(provenance::drop_reason_label(reason)) + '=' +
                 std::to_string(world.net.stats().drops(reason)) + ' ';
    }
    EXPECT_EQ(drops, "none=0 rpf-fail=0 neg-cache=0 no-oif=0 ttl=0 segment-loss=0 "
                     "no-state=2 assert-loser=0 no-route=0 ");
}

} // namespace
} // namespace pimlib::test
