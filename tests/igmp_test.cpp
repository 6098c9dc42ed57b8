// IGMP tests: message codecs, report/query exchange, LAN report
// suppression, membership expiry, querier election, RP-map distribution,
// the order and reuse rules of the membership and pending-response tables,
// and allocation-free repeat queries and re-reports.
#include <gtest/gtest.h>

#include <algorithm>

#include "alloc_count.hpp"
#include "igmp/host_agent.hpp"
#include "igmp/messages.hpp"
#include "igmp/router_agent.hpp"
#include "test_util.hpp"
#include "topo/segment.hpp"

namespace pimlib::test {
namespace {

TEST(IgmpMessages, QueryRoundTrip) {
    const igmp::Query general{net::Ipv4Address{}};
    auto decoded = igmp::Query::decode(general.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->group.is_unspecified());

    const igmp::Query specific{kGroup.address()};
    decoded = igmp::Query::decode(specific.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->group, kGroup.address());
}

TEST(IgmpMessages, ReportRoundTrip) {
    const igmp::Report report{kGroup.address()};
    auto decoded = igmp::Report::decode(report.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->group, kGroup.address());
    // A report does not decode as a query and vice versa.
    EXPECT_FALSE(igmp::Query::decode(report.encode()).has_value());
}

TEST(IgmpMessages, RpMapRoundTrip) {
    igmp::RpMapReport map;
    map.group = kGroup.address();
    map.rps = {net::Ipv4Address(192, 168, 0, 1), net::Ipv4Address(192, 168, 0, 9)};
    auto decoded = igmp::RpMapReport::decode(map.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->group, map.group);
    EXPECT_EQ(decoded->rps, map.rps);
    const auto bytes = map.encode();
    EXPECT_FALSE(igmp::RpMapReport::decode({bytes.data(), bytes.size() - 3}).has_value());
}

struct IgmpLan {
    topo::Network net;
    topo::Router* router;
    topo::Segment* lan;
    igmp::RouterConfig router_cfg;
    igmp::HostConfig host_cfg;

    IgmpLan() {
        router = &net.add_router("r");
        lan = &net.add_lan({router});
        router_cfg.query_interval = 100 * sim::kMillisecond;
        router_cfg.membership_timeout = 250 * sim::kMillisecond;
        router_cfg.other_querier_timeout = 250 * sim::kMillisecond;
        host_cfg.query_response_max = 10 * sim::kMillisecond;
        host_cfg.unsolicited_report_interval = sim::kMillisecond;
    }
};

TEST(IgmpAgents, JoinNotifiesRouterOnce) {
    IgmpLan t;
    igmp::RouterAgent agent(*t.router, t.router_cfg);
    auto& host = t.net.add_host("h", *t.lan);
    igmp::HostAgent hagent(host, t.host_cfg);

    std::vector<std::pair<net::GroupAddress, bool>> events;
    agent.subscribe([&](int ifindex, net::GroupAddress g, bool present) {
        EXPECT_EQ(ifindex, 0);
        events.emplace_back(g, present);
    });
    hagent.join(kGroup);
    t.net.run_for(500 * sim::kMillisecond);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front(), std::make_pair(kGroup, true));
    // Membership kept alive by query/report: exactly one "joined" event.
    EXPECT_EQ(events.size(), 1u);
    EXPECT_TRUE(agent.has_members(0, kGroup));
    EXPECT_EQ(agent.groups_on(0).size(), 1u);
    EXPECT_EQ(agent.member_interfaces(kGroup), std::vector<int>{0});
}

TEST(IgmpAgents, LeaveAgesOutMembership) {
    IgmpLan t;
    igmp::RouterAgent agent(*t.router, t.router_cfg);
    auto& host = t.net.add_host("h", *t.lan);
    igmp::HostAgent hagent(host, t.host_cfg);

    std::vector<bool> events;
    agent.subscribe([&](int, net::GroupAddress, bool present) { events.push_back(present); });
    hagent.join(kGroup);
    t.net.run_for(300 * sim::kMillisecond);
    hagent.leave(kGroup);
    t.net.run_for(600 * sim::kMillisecond);
    ASSERT_GE(events.size(), 2u);
    EXPECT_TRUE(events.front());
    EXPECT_FALSE(events.back());
    EXPECT_FALSE(agent.has_members(0, kGroup));
}

TEST(IgmpAgents, ReportSuppressionOnSharedLan) {
    IgmpLan t;
    igmp::RouterAgent agent(*t.router, t.router_cfg);
    auto& h1 = t.net.add_host("h1", *t.lan);
    auto& h2 = t.net.add_host("h2", *t.lan);
    auto& h3 = t.net.add_host("h3", *t.lan);
    igmp::HostAgent a1(h1, t.host_cfg);
    igmp::HostAgent a2(h2, t.host_cfg);
    igmp::HostAgent a3(h3, t.host_cfg);
    a1.join(kGroup);
    a2.join(kGroup);
    a3.join(kGroup);
    t.net.run_for(sim::kSecond);
    // All report unsolicited (2 each); afterwards each query round elicits
    // roughly ONE report thanks to suppression — not one per member.
    const auto igmp_messages = t.net.stats().control_messages("igmp");
    // ~10 query rounds in 1s. Unsuppressed would give ~30 reports + queries.
    EXPECT_LT(igmp_messages, 30u);
    EXPECT_TRUE(agent.has_members(0, kGroup));
}

TEST(IgmpAgents, QuerierElectionLowestAddressWins) {
    IgmpLan t;
    auto& r2 = t.net.add_router("r2");
    t.net.attach_to_lan(r2, *t.lan);
    igmp::RouterAgent a1(*t.router, t.router_cfg); // 10.0.0.1 — lower, wins
    igmp::RouterAgent a2(r2, t.router_cfg);        // 10.0.0.2 — silenced
    t.net.run_for(sim::kSecond);
    const auto total = t.net.stats().control_messages("igmp");
    // Two unsuppressed queriers would send ~20 queries in 1 s; election
    // should roughly halve that.
    EXPECT_LT(total, 16u);
}

TEST(IgmpAgents, RpMapReachesRouterCallback) {
    IgmpLan t;
    igmp::RouterAgent agent(*t.router, t.router_cfg);
    auto& host = t.net.add_host("h", *t.lan);
    igmp::HostAgent hagent(host, t.host_cfg);

    net::GroupAddress seen_group;
    std::vector<net::Ipv4Address> seen_rps;
    agent.set_rp_map_callback([&](net::GroupAddress g, const std::vector<net::Ipv4Address>& rps) {
        seen_group = g;
        seen_rps = rps;
    });
    const net::Ipv4Address rp(192, 168, 0, 42);
    hagent.set_rp_mapping(kGroup, {rp});
    t.net.run_for(100 * sim::kMillisecond);
    EXPECT_EQ(seen_group, kGroup);
    EXPECT_EQ(seen_rps, std::vector<net::Ipv4Address>{rp});
}

TEST(IgmpAgents, MultipleGroupsTrackedIndependently) {
    IgmpLan t;
    igmp::RouterAgent agent(*t.router, t.router_cfg);
    auto& host = t.net.add_host("h", *t.lan);
    igmp::HostAgent hagent(host, t.host_cfg);
    const net::GroupAddress g2{net::Ipv4Address(224, 2, 2, 2)};
    hagent.join(kGroup);
    hagent.join(g2);
    t.net.run_for(300 * sim::kMillisecond);
    EXPECT_TRUE(agent.has_members(0, kGroup));
    EXPECT_TRUE(agent.has_members(0, g2));
    hagent.leave(g2);
    t.net.run_for(600 * sim::kMillisecond);
    EXPECT_TRUE(agent.has_members(0, kGroup));
    EXPECT_FALSE(agent.has_members(0, g2));
}

// --- membership and pending-response tables ------------------------------

const net::GroupAddress kG1{net::Ipv4Address(224, 1, 1, 1)};
const net::GroupAddress kG2{net::Ipv4Address(224, 2, 2, 2)};
const net::GroupAddress kG3{net::Ipv4Address(224, 3, 3, 3)};

net::Packet igmp_packet(net::Ipv4Address src, net::Ipv4Address dst,
                        std::vector<std::uint8_t> payload) {
    net::Packet packet;
    packet.src = src;
    packet.dst = dst;
    packet.proto = net::IpProto::kIgmp;
    packet.ttl = 1;
    packet.payload = std::move(payload);
    return packet;
}

net::Packet general_query() {
    return igmp_packet(net::Ipv4Address(10, 0, 0, 99), net::kAllSystems,
                       igmp::Query{net::Ipv4Address{}}.encode());
}

net::Packet report_for(net::GroupAddress group,
                       net::Ipv4Address from = net::Ipv4Address(10, 0, 0, 77)) {
    return igmp_packet(from, group.address(), igmp::Report{group.address()}.encode());
}

/// One router on three LANs (ifindex 0, 1, 2) whose agent records every
/// membership callback; reports are injected straight into the router.
struct ThreeLanRouter {
    struct Event {
        int ifindex;
        net::GroupAddress group;
        bool present;
        bool operator==(const Event&) const = default;
    };

    IgmpLan t;
    igmp::RouterAgent agent;
    std::vector<Event> events;

    ThreeLanRouter() : agent(*t.router, t.router_cfg) {
        t.net.add_lan({t.router});
        t.net.add_lan({t.router});
        agent.subscribe([this](int ifindex, net::GroupAddress g, bool present) {
            events.push_back({ifindex, g, present});
        });
    }
    void report(int ifindex, net::GroupAddress group) {
        t.router->receive(ifindex, report_for(group));
    }
};

TEST(IgmpMembershipTable, AgingFiresOnceEachInIfindexThenGroupOrder) {
    ThreeLanRouter r;
    r.t.net.run_for(10 * sim::kMillisecond);
    const std::vector<std::pair<int, net::GroupAddress>> arrivals{
        {2, kG3}, {0, kG2}, {1, kG1}, {2, kG1}, {0, kG3}, {1, kG3}, {0, kG1}};
    for (const auto& [ifindex, group] : arrivals) r.report(ifindex, group);
    ASSERT_EQ(r.events.size(), arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        EXPECT_EQ(r.events[i], (ThreeLanRouter::Event{arrivals[i].first,
                                                      arrivals[i].second, true}));
    }

    // Each callback sees its own entry gone and the later ones still there.
    std::size_t left = arrivals.size();
    r.agent.subscribe([&](int ifindex, net::GroupAddress g, bool present) {
        if (present) return;
        --left;
        EXPECT_FALSE(r.agent.has_members(ifindex, g));
        std::size_t members = 0;
        for (int i = 0; i < 3; ++i) members += r.agent.groups_on(i).size();
        EXPECT_EQ(members, left);
    });
    r.events.clear();
    // Reported at 10 ms, expiring at 260 ms: all age out on the 300 ms tick.
    r.t.net.run_for(sim::kSecond);
    const std::vector<ThreeLanRouter::Event> expected{
        {0, kG1, false}, {0, kG2, false}, {0, kG3, false}, {1, kG1, false},
        {1, kG3, false}, {2, kG1, false}, {2, kG3, false}};
    EXPECT_EQ(r.events, expected);
    EXPECT_EQ(left, 0u);
}

TEST(IgmpMembershipTable, ReReportBeforeExpiryKeepsEntryWithoutCallback) {
    ThreeLanRouter r;
    r.t.net.run_for(10 * sim::kMillisecond);
    r.report(1, kG2);
    r.t.net.run_for(200 * sim::kMillisecond); // 210 ms: expiry was 260 ms
    r.report(1, kG2);                         // now expires at 460 ms
    r.t.net.run_for(200 * sim::kMillisecond); // past the 300 and 400 ms ticks
    EXPECT_TRUE(r.agent.has_members(1, kG2));
    EXPECT_EQ(r.events, (std::vector<ThreeLanRouter::Event>{{1, kG2, true}}));
    r.t.net.run_for(200 * sim::kMillisecond); // the 500 ms tick ages it out
    EXPECT_FALSE(r.agent.has_members(1, kG2));
    EXPECT_EQ(r.events, (std::vector<ThreeLanRouter::Event>{{1, kG2, true},
                                                           {1, kG2, false}}));
}

TEST(IgmpMembershipTable, QueriesAnswerInAscendingOrder) {
    ThreeLanRouter r;
    r.report(2, kG3);
    r.report(0, kG3);
    r.report(2, kG1);
    r.report(1, kG3);
    r.report(0, kG2);
    r.report(0, kG1);
    EXPECT_EQ(r.agent.groups_on(0), (std::vector<net::GroupAddress>{kG1, kG2, kG3}));
    EXPECT_EQ(r.agent.groups_on(1), (std::vector<net::GroupAddress>{kG3}));
    EXPECT_EQ(r.agent.groups_on(2), (std::vector<net::GroupAddress>{kG1, kG3}));
    EXPECT_TRUE(r.agent.groups_on(3).empty());
    EXPECT_TRUE(r.agent.groups_on(-1).empty());
    EXPECT_EQ(r.agent.member_interfaces(kG3), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(r.agent.member_interfaces(kG1), (std::vector<int>{0, 2}));
    EXPECT_EQ(r.agent.member_interfaces(kG2), (std::vector<int>{0}));
    EXPECT_FALSE(r.agent.has_members(1, kG1));
    EXPECT_FALSE(r.agent.has_members(7, kG1));
}

TEST(IgmpMembershipTable, RebootForgetsSilentlyAndNextReportsRepopulate) {
    IgmpLan t;
    igmp::RouterAgent agent(*t.router, t.router_cfg);
    auto& host = t.net.add_host("h", *t.lan);
    igmp::HostAgent hagent(host, t.host_cfg);
    std::vector<std::pair<net::GroupAddress, bool>> events;
    agent.subscribe([&](int, net::GroupAddress g, bool present) { events.emplace_back(g, present); });
    hagent.join(kG2);
    hagent.join(kG1);
    t.net.run_for(150 * sim::kMillisecond);
    ASSERT_EQ(events.size(), 2u);
    ASSERT_EQ(agent.groups_on(0), (std::vector<net::GroupAddress>{kG1, kG2}));

    events.clear();
    agent.reboot();
    EXPECT_TRUE(agent.groups_on(0).empty());
    EXPECT_TRUE(agent.member_interfaces(kG1).empty());
    EXPECT_TRUE(events.empty());
    // The reboot's immediate query draws a report per group within 10 ms.
    t.net.run_for(20 * sim::kMillisecond);
    EXPECT_EQ(agent.groups_on(0), (std::vector<net::GroupAddress>{kG1, kG2}));
    ASSERT_EQ(events.size(), 2u);
    EXPECT_TRUE(events[0].second && events[1].second);
}

/// A host agent on a LAN with no router agent, so queries come only from
/// the test; a second host logs every report it overhears.
struct QueriedHost {
    IgmpLan t;
    topo::Host* host;
    topo::Host* observer;
    igmp::HostAgent agent;
    std::vector<net::GroupAddress> reports;

    QueriedHost()
        : host(&t.net.add_host("h", *t.lan)),
          observer(&t.net.add_host("o", *t.lan)),
          agent(*host, t.host_cfg) {
        observer->set_control_handler([this](int, const net::Packet& packet) {
            auto report = igmp::Report::decode(packet.payload);
            if (report && packet.src == host->address()) {
                reports.push_back(net::GroupAddress{report->group});
            }
        });
    }
    /// Joins, lets the unsolicited reports go out, and clears the log.
    void join(std::initializer_list<net::GroupAddress> groups) {
        for (net::GroupAddress g : groups) agent.join(g);
        t.net.run_for(20 * sim::kMillisecond);
        reports.clear();
    }
    void query() { host->receive(0, general_query()); }
    [[nodiscard]] std::size_t pending() { return t.net.simulator().pending(); }
};

TEST(IgmpPendingResponses, LeaveCancelsOnlyThatGroup) {
    QueriedHost q;
    q.join({kG1, kG2, kG3});
    const std::size_t idle = q.pending();
    q.query();
    ASSERT_EQ(q.pending(), idle + 3);
    q.agent.leave(kG2);
    EXPECT_EQ(q.pending(), idle + 2);
    q.t.net.run_for(20 * sim::kMillisecond);
    std::sort(q.reports.begin(), q.reports.end());
    EXPECT_EQ(q.reports, (std::vector<net::GroupAddress>{kG1, kG3}));
}

TEST(IgmpPendingResponses, OverheardReportCancelsOnlyItsGroup) {
    QueriedHost q;
    q.join({kG1, kG2, kG3});
    const std::size_t idle = q.pending();
    q.query();
    q.host->receive(0, report_for(kG3));
    EXPECT_EQ(q.pending(), idle + 2);
    q.t.net.run_for(20 * sim::kMillisecond);
    std::sort(q.reports.begin(), q.reports.end());
    EXPECT_EQ(q.reports, (std::vector<net::GroupAddress>{kG1, kG2}));
    EXPECT_TRUE(q.host->is_member(kG3));
}

TEST(IgmpPendingResponses, RequeryAfterReportSchedulesAgain) {
    QueriedHost q;
    q.join({kG1, kG2});
    const std::size_t idle = q.pending();
    q.query();
    q.query(); // already pending: nothing new
    EXPECT_EQ(q.pending(), idle + 2);
    q.t.net.run_for(20 * sim::kMillisecond);
    EXPECT_EQ(q.reports.size(), 2u);

    q.query(); // both slots fired: both are scheduled again
    EXPECT_EQ(q.pending(), idle + 2);
    q.t.net.run_for(20 * sim::kMillisecond);
    std::sort(q.reports.begin(), q.reports.end());
    EXPECT_EQ(q.reports, (std::vector<net::GroupAddress>{kG1, kG1, kG2, kG2}));

    // A cancelled slot is reusable too.
    q.query();
    q.host->receive(0, report_for(kG1));
    q.t.net.run_for(20 * sim::kMillisecond);
    q.query();
    EXPECT_EQ(q.pending(), idle + 2);
}

TEST(IgmpPendingResponses, SlotsShiftedWhilePendingStillClearOnFire) {
    QueriedHost q;
    q.join({kG2, kG3});
    const std::size_t idle = q.pending();
    q.query(); // slots: g2, g3, both pending
    q.agent.join(kG1);
    q.query(); // g1's slot goes in front of theirs while they are pending
    q.t.net.run_for(20 * sim::kMillisecond);
    q.agent.leave(kG1); // and out again, shifting them back
    q.reports.clear();

    q.query();
    EXPECT_EQ(q.pending(), idle + 2);
    q.t.net.run_for(20 * sim::kMillisecond);
    std::sort(q.reports.begin(), q.reports.end());
    EXPECT_EQ(q.reports, (std::vector<net::GroupAddress>{kG2, kG3}));
}

// --- allocation-free repeat traffic ---------------------------------------

TEST(IgmpAllocation, RepeatGeneralQueryAllocatesNothing) {
    QueriedHost q;
    q.join({kG3, kG1, kG2});
    const net::Packet query = general_query();
    q.host->receive(0, query);
    q.t.net.run_for(20 * sim::kMillisecond); // the first round fires

    const std::uint64_t before = g_alloc_count.load();
    q.host->receive(0, query);
    const std::uint64_t allocations = g_alloc_count.load() - before;
    EXPECT_EQ(allocations, 0u) << "a repeat general query must not allocate";
    q.t.net.run_for(20 * sim::kMillisecond);
    EXPECT_EQ(q.reports.size(), 6u);
}

// The report is encoded once per joined group and sent as a shared copy:
// after the first round, answering more general queries (each response
// scheduled, fired and sent on the LAN) allocates nothing at all, so in
// particular no payload block.
TEST(IgmpAllocation, AnsweringQueriesEncodesTheReportOnce) {
    QueriedHost q;
    q.join({kG1});
    constexpr int kQueries = 50;
    q.reports.reserve(kQueries + 1);
    const net::Packet query = general_query();
    q.host->receive(0, query);
    q.t.net.run_for(20 * sim::kMillisecond); // the first round fires

    const std::uint64_t before = g_alloc_count.load();
    for (int i = 0; i < kQueries; ++i) {
        q.host->receive(0, query);
        q.t.net.run_for(20 * sim::kMillisecond);
    }
    const std::uint64_t allocations = g_alloc_count.load() - before;
    EXPECT_EQ(allocations, 0u) << "a report must not be re-encoded per response";
    EXPECT_EQ(q.reports.size(), std::size_t{kQueries + 1});
}

TEST(IgmpAllocation, ReReportOfKnownGroupAllocatesNothing) {
    ThreeLanRouter r;
    const net::Packet report = report_for(kG2);
    r.t.router->receive(1, report);
    ASSERT_TRUE(r.agent.has_members(1, kG2));

    const std::uint64_t before = g_alloc_count.load();
    r.t.router->receive(1, report);
    const std::uint64_t allocations = g_alloc_count.load() - before;
    EXPECT_EQ(allocations, 0u) << "a re-report of a known group must not allocate";
    EXPECT_EQ(r.events.size(), 1u);
}

} // namespace
} // namespace pimlib::test
