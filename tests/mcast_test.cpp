// Forwarding-entry and data-plane tests: oif timers, pinning, the §3.5
// forwarding rules including both SPT-bit transition exceptions, the
// negative-cache prune bookkeeping, and the cache's key-ordered indexes
// checked against an ordered-map model.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "mcast/forwarding_cache.hpp"
#include "test_util.hpp"
#include "topo/segment.hpp"

namespace pimlib::test {
namespace {

using mcast::ForwardingCache;
using mcast::ForwardingEntry;

const net::Ipv4Address kSrc(10, 0, 1, 3);
const net::Ipv4Address kRp(192, 168, 0, 3);

TEST(ForwardingEntry, FactoryFlags) {
    auto sg = ForwardingEntry::make_sg(kSrc, kGroup);
    EXPECT_FALSE(sg.wildcard());
    EXPECT_FALSE(sg.rp_bit());
    EXPECT_FALSE(sg.spt_bit());
    EXPECT_EQ(sg.source_or_rp(), kSrc);

    auto wc = ForwardingEntry::make_wc(kRp, kGroup);
    EXPECT_TRUE(wc.wildcard());
    EXPECT_TRUE(wc.rp_bit()); // shared tree iif faces the RP
    EXPECT_EQ(wc.source_or_rp(), kRp); // "saves the RP address in place of the source"
}

TEST(ForwardingEntry, OifTimersExpireAndRefresh) {
    auto e = ForwardingEntry::make_sg(kSrc, kGroup);
    e.add_oif(1, 100);
    e.add_oif(2, 200);
    EXPECT_EQ(live_oifs(e, 50).size(), 2u);
    EXPECT_EQ(live_oifs(e, 150).size(), 1u);
    e.refresh_oif(1, 300);
    EXPECT_EQ(live_oifs(e, 150).size(), 2u);
    // refresh never shortens a timer
    e.refresh_oif(1, 120);
    ASSERT_NE(e.find_oif(1), nullptr);
    EXPECT_TRUE(e.find_oif(1)->expires == 300);
    auto removed = e.expire_oifs(250);
    EXPECT_EQ(removed, std::vector<int>{2});
    EXPECT_FALSE(e.has_oif(2));
}

TEST(ForwardingEntry, PinnedOifsNeverExpire) {
    auto e = ForwardingEntry::make_wc(kRp, kGroup);
    e.pin_oif(1);
    EXPECT_EQ(live_oifs(e, 1'000'000).size(), 1u);
    EXPECT_TRUE(e.expire_oifs(1'000'000).empty());
    e.unpin_oif(1);
    EXPECT_FALSE(e.has_oif(1));
    // Pinned + timed: unpin keeps the timed part.
    e.add_oif(2, 500);
    e.pin_oif(2);
    e.unpin_oif(2);
    EXPECT_TRUE(e.has_oif(2));
    EXPECT_EQ(live_oifs(e, 400).size(), 1u);
    EXPECT_EQ(live_oifs(e, 600).size(), 0u);
}

TEST(ForwardingEntry, AddOifClearsDeletionTimer) {
    auto e = ForwardingEntry::make_sg(kSrc, kGroup);
    e.set_delete_at(500);
    e.add_oif(1, 100);
    EXPECT_EQ(e.delete_at(), 0);
}

TEST(ForwardingEntry, PrunedOifBookkeeping) {
    auto e = ForwardingEntry::make_sg(kSrc, kGroup);
    e.set_rp_bit(true);
    e.add_oif(1, 100);
    e.add_oif(2, 100);
    e.mark_pruned(1);
    EXPECT_FALSE(e.has_oif(1));
    EXPECT_TRUE(e.is_pruned(1));
    EXPECT_TRUE(e.has_oif(2));
    e.clear_pruned(1);
    EXPECT_FALSE(e.is_pruned(1));
}

TEST(ForwardingCache, LookupPrecedence) {
    ForwardingCache cache;
    cache.ensure_wc(kRp, kGroup);
    cache.ensure_sg(kSrc, kGroup);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.sg_count(), 1u);
    EXPECT_EQ(cache.wc_count(), 1u);
    EXPECT_NE(cache.find_sg(kSrc, kGroup), nullptr);
    EXPECT_NE(cache.find_wc(kGroup), nullptr);
    EXPECT_EQ(cache.find_sg(net::Ipv4Address(9, 9, 9, 9), kGroup), nullptr);
    cache.remove_sg(kSrc, kGroup);
    cache.remove_wc(kGroup);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ForwardingCache, ReapExpiredEntries) {
    ForwardingCache cache;
    auto& a = cache.ensure_sg(kSrc, kGroup);
    a.set_delete_at(100);
    auto& b = cache.ensure_sg(net::Ipv4Address(10, 0, 2, 3), kGroup);
    b.set_delete_at(300);
    auto removed = cache.reap_expired_entries(200);
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0].first, kSrc);
    EXPECT_EQ(cache.sg_count(), 1u);
}

// A randomized ensure/remove/expire/reap sequence against std::map models
// of both indexes. After every step each iteration surface (for_each_*,
// snapshot, reap) must visit exactly the model's keys in the model's order,
// and a visit_entries walk with budgets 1-3, with keys removed between its
// calls, must resume where the model's upper_bound says.
class CacheModel {
public:
    using SgKey = ForwardingCache::SgKey;

    void ensure_sg(net::Ipv4Address s, net::GroupAddress g) {
        cache.ensure_sg(s, g);
        sg.try_emplace({s, g}, 0);
    }
    void ensure_wc(net::GroupAddress g) {
        cache.ensure_wc(kRp, g);
        wc.insert(g);
    }
    void remove_sg(net::Ipv4Address s, net::GroupAddress g) {
        cache.remove_sg(s, g);
        sg.erase({s, g});
    }
    void remove_wc(net::GroupAddress g) {
        cache.remove_wc(g);
        wc.erase(g);
    }
    void expire(const SgKey& key, sim::Time at) {
        cache.find_sg(key.first, key.second)->set_delete_at(at);
        sg[key] = at;
    }
    void reap(sim::Time now) {
        std::vector<SgKey> expected;
        for (auto it = sg.begin(); it != sg.end();) {
            if (it->second != 0 && now >= it->second) {
                expected.push_back(it->first);
                it = sg.erase(it);
            } else {
                ++it;
            }
        }
        EXPECT_EQ(cache.reap_expired_entries(now), expected);
    }

    void check() {
        std::vector<SgKey> sg_seen;
        cache.for_each_sg([&](ForwardingEntry& e) {
            sg_seen.emplace_back(e.source_or_rp(), e.group());
        });
        std::vector<SgKey> sg_want;
        for (const auto& [key, at] : sg) sg_want.push_back(key);
        EXPECT_EQ(sg_seen, sg_want);

        std::vector<net::GroupAddress> wc_seen;
        cache.for_each_wc([&](ForwardingEntry& e) { wc_seen.push_back(e.group()); });
        EXPECT_EQ(wc_seen, std::vector<net::GroupAddress>(wc.begin(), wc.end()));

        for (net::GroupAddress g : kGroups) {
            std::vector<SgKey> of_seen;
            cache.for_each_sg_of(g, [&](ForwardingEntry& e) {
                of_seen.emplace_back(e.source_or_rp(), e.group());
            });
            std::vector<SgKey> of_want;
            for (const auto& [key, at] : sg) {
                if (key.second == g) of_want.push_back(key);
            }
            EXPECT_EQ(of_seen, of_want);
            EXPECT_EQ(cache.find_wc(g) != nullptr, wc.contains(g));
            for (net::Ipv4Address s : kSources) {
                EXPECT_EQ(cache.find_sg(s, g) != nullptr, sg.contains({s, g}));
            }
        }

        const telemetry::RouterMrib mrib = cache.snapshot("r", 0);
        std::vector<std::string> snap_seen;
        for (const auto& e : mrib.entries) {
            snap_seen.push_back((e.wildcard ? "*" : e.source_or_rp) + "," + e.group);
        }
        std::vector<std::string> snap_want;
        for (net::GroupAddress g : wc) snap_want.push_back("*," + g.to_string());
        for (const auto& [key, at] : sg) {
            snap_want.push_back(key.first.to_string() + "," + key.second.to_string());
        }
        EXPECT_EQ(snap_seen, snap_want);
        EXPECT_EQ(cache.size(), sg.size() + wc.size());
    }

    /// One visit_entries call, checked against the model's own cursor.
    void visit(std::size_t budget) {
        std::vector<std::string> seen;
        const std::size_t n = cache.visit_entries(cursor, budget, [&](const ForwardingEntry& e) {
            seen.push_back(name(e.wildcard(), e.source_or_rp(), e.group()));
        });
        std::vector<std::string> want;
        bool wrapped = false;
        if (!model_on_sg) {
            auto it = have_wc ? wc.upper_bound(wc_after) : wc.begin();
            for (; it != wc.end() && want.size() < budget; ++it) {
                want.push_back(name(true, kRp, *it));
                wc_after = *it;
                have_wc = true;
            }
            if (it == wc.end()) model_on_sg = true;
        }
        if (model_on_sg) {
            auto it = have_sg ? sg.upper_bound(sg_after) : sg.begin();
            for (; it != sg.end() && want.size() < budget; ++it) {
                want.push_back(name(false, it->first.first, it->first.second));
                sg_after = it->first;
                have_sg = true;
            }
            if (it == sg.end()) {
                model_on_sg = have_wc = have_sg = false;
                wrapped = true;
            }
        }
        EXPECT_EQ(seen, want);
        EXPECT_EQ(n, want.size());
        EXPECT_EQ(cursor.wrapped, wrapped);
        walked += want.size();
    }

    static std::string name(bool wildcard, net::Ipv4Address s, net::GroupAddress g) {
        return (wildcard ? "*" : s.to_string()) + "," + g.to_string();
    }

    static inline const std::vector<net::Ipv4Address> kSources = {
        net::Ipv4Address(10, 0, 0, 9), net::Ipv4Address(10, 0, 0, 1),
        net::Ipv4Address(10, 0, 2, 5), net::Ipv4Address(172, 16, 0, 1),
        net::Ipv4Address(10, 0, 1, 7)};
    static inline const std::vector<net::GroupAddress> kGroups = {
        net::GroupAddress(net::Ipv4Address(224, 1, 1, 3)),
        net::GroupAddress(net::Ipv4Address(224, 1, 1, 1)),
        net::GroupAddress(net::Ipv4Address(239, 0, 0, 2)),
        net::GroupAddress(net::Ipv4Address(224, 1, 2, 1))};

    ForwardingCache cache;
    std::map<SgKey, sim::Time> sg;
    std::set<net::GroupAddress> wc;
    ForwardingCache::VisitCursor cursor;
    bool model_on_sg = false;
    bool have_wc = false;
    bool have_sg = false;
    net::GroupAddress wc_after{};
    SgKey sg_after{};
    std::size_t walked = 0;
};

TEST(ForwardingCache, IndexesMatchAnOrderedMapModel) {
    CacheModel m;
    std::mt19937 rng(20240611);
    const auto pick = [&](const auto& v) { return v[rng() % v.size()]; };
    for (int step = 0; step < 3000; ++step) {
        const net::Ipv4Address s = pick(CacheModel::kSources);
        const net::GroupAddress g = pick(CacheModel::kGroups);
        switch (rng() % 8) {
        case 0:
        case 1:
            m.ensure_sg(s, g);
            break;
        case 2:
            m.ensure_wc(g);
            break;
        case 3:
            m.remove_sg(s, g);
            break;
        case 4:
            m.remove_wc(g);
            break;
        case 5:
            if (m.sg.contains({s, g})) m.expire({s, g}, 1 + static_cast<sim::Time>(rng() % 100));
            break;
        case 6:
            m.reap(static_cast<sim::Time>(rng() % 100));
            break;
        default:
            m.visit(1 + rng() % 3);
            break;
        }
        m.check();
        if (::testing::Test::HasFailure()) FAIL() << "diverged at step " << step;
    }
    EXPECT_GT(m.walked, 500u);
}

// --- Data-plane tests on a tiny real topology ---

class DataPlaneTest : public ::testing::Test, public mcast::DataPlane::Delegate {
protected:
    DataPlaneTest() {
        r = &net.add_router("r");
        lan_in = &net.add_lan({r});   // ifindex 0
        lan_a = &net.add_lan({r});    // ifindex 1
        lan_b = &net.add_lan({r});    // ifindex 2
        source = &net.add_host("src", *lan_in);
        member_a = &net.add_host("a", *lan_a);
        member_b = &net.add_host("b", *lan_b);
        member_a->join_group(kGroup);
        member_b->join_group(kGroup);
        plane = std::make_unique<mcast::DataPlane>(*r, cache);
        plane->set_delegate(this);
    }

    void send_from_source() {
        source->send_data(kGroup);
        net.run_for(10 * sim::kMillisecond);
    }

    // Delegate counters.
    void on_no_entry(int, const net::Packet&) override { ++no_entry; }
    void on_wildcard_forward(int, const net::Packet&) override { ++wildcard_forward; }
    void on_spt_bit_set(mcast::ForwardingEntry&) override { ++spt_set; }
    void on_iif_check_failed(int, const net::Packet&) override { ++iif_failed; }

    topo::Network net;
    topo::Router* r;
    topo::Segment* lan_in;
    topo::Segment* lan_a;
    topo::Segment* lan_b;
    topo::Host* source;
    topo::Host* member_a;
    topo::Host* member_b;
    ForwardingCache cache;
    std::unique_ptr<mcast::DataPlane> plane;
    int no_entry = 0;
    int wildcard_forward = 0;
    int spt_set = 0;
    int iif_failed = 0;
};

TEST_F(DataPlaneTest, NoEntryInvokesDelegateOnly) {
    send_from_source();
    EXPECT_EQ(no_entry, 1);
    EXPECT_EQ(member_a->received_count(kGroup), 0u);
}

TEST_F(DataPlaneTest, SgEntryReplicatesToLiveOifs) {
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(0);
    sg.set_spt_bit(true);
    sg.pin_oif(1);
    sg.pin_oif(2);
    send_from_source();
    EXPECT_EQ(member_a->received_count(kGroup), 1u);
    EXPECT_EQ(member_b->received_count(kGroup), 1u);
    EXPECT_GT(sg.last_data_at(), 0);
}

TEST_F(DataPlaneTest, IifCheckDropsWrongInterface) {
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(1); // wrong on purpose: data arrives on 0
    sg.set_spt_bit(true);
    sg.pin_oif(2);
    send_from_source();
    EXPECT_EQ(iif_failed, 1);
    EXPECT_EQ(member_b->received_count(kGroup), 0u);
    EXPECT_EQ(net.stats().drops(provenance::DropReason::kRpfFail), 1u);
}

TEST_F(DataPlaneTest, WildcardMatchForwardsAndNotifies) {
    auto& wc = cache.ensure_wc(kRp, kGroup);
    wc.set_iif(0);
    wc.pin_oif(1);
    send_from_source();
    EXPECT_EQ(wildcard_forward, 1);
    EXPECT_EQ(member_a->received_count(kGroup), 1u);
    EXPECT_EQ(member_b->received_count(kGroup), 0u);
}

TEST_F(DataPlaneTest, ClearedSptBitFirstException) {
    // (S,G) exists with cleared SPT bit and iif 1 (the SPT side), but data
    // still arrives on the shared iif 0: must forward per (*,G).
    auto& wc = cache.ensure_wc(kRp, kGroup);
    wc.set_iif(0);
    wc.pin_oif(2);
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(1);
    sg.pin_oif(2);
    send_from_source();
    EXPECT_EQ(member_b->received_count(kGroup), 1u);
    EXPECT_FALSE(sg.spt_bit());
    EXPECT_EQ(spt_set, 0);
    EXPECT_EQ(wildcard_forward, 1);
}

TEST_F(DataPlaneTest, ClearedSptBitSecondExceptionSetsBit) {
    // Data arrives on the (S,G) iif: forward and set the SPT bit.
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(0);
    sg.pin_oif(1);
    send_from_source();
    EXPECT_TRUE(sg.spt_bit());
    EXPECT_EQ(spt_set, 1);
    EXPECT_EQ(member_a->received_count(kGroup), 1u);
}

TEST_F(DataPlaneTest, ClearedSptBitWrongEverywhereDrops) {
    auto& wc = cache.ensure_wc(kRp, kGroup);
    wc.set_iif(1);
    wc.pin_oif(2);
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(2);
    sg.pin_oif(1);
    send_from_source();
    EXPECT_EQ(iif_failed, 1);
    EXPECT_EQ(member_a->received_count(kGroup), 0u);
    EXPECT_EQ(member_b->received_count(kGroup), 0u);
}

TEST_F(DataPlaneTest, ExpiredOifNotUsed) {
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(0);
    sg.set_spt_bit(true);
    sg.add_oif(1, net.simulator().now() + 1); // expires ~immediately
    sg.pin_oif(2);
    net.run_for(10 * sim::kMillisecond);
    send_from_source();
    EXPECT_EQ(member_a->received_count(kGroup), 0u);
    EXPECT_EQ(member_b->received_count(kGroup), 1u);
}

TEST_F(DataPlaneTest, TtlOneNotReplicated) {
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(0);
    sg.set_spt_bit(true);
    sg.pin_oif(1);
    net::Packet p;
    p.src = source->address();
    p.dst = kGroup.address();
    p.proto = net::IpProto::kUdp;
    p.ttl = 1;
    p.seq = 1;
    source->send(0, net::Frame{std::nullopt, std::move(p)});
    net.run_for(10 * sim::kMillisecond);
    EXPECT_EQ(member_a->received_count(kGroup), 0u);
    EXPECT_EQ(net.stats().drops(provenance::DropReason::kTtl), 1u);
}

TEST_F(DataPlaneTest, ReplicateNeverSendsBackOutArrivalInterface) {
    auto& sg = cache.ensure_sg(source->address(), kGroup);
    sg.set_iif(0);
    sg.set_spt_bit(true);
    sg.pin_oif(0); // deliberately include the iif in the oif list
    sg.pin_oif(1);
    auto& echo_listener = net.add_host("echo", *lan_in);
    echo_listener.join_group(kGroup);
    send_from_source();
    EXPECT_EQ(member_a->received_count(kGroup), 1u);
    // The host on the source LAN hears the original LAN transmission (1)
    // but must not get a router-echoed copy.
    EXPECT_EQ(echo_listener.received_count(kGroup), 1u);
}

} // namespace
} // namespace pimlib::test
