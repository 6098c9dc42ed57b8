// Per-interface Assert (LAN forwarder election) end-to-end tests: two
// parallel upstream routers forward the same source onto a shared LAN, the
// first duplicate triggers the election, the SPT forwarder wins on rank,
// the loser installs an (S,G)RP-bit negative cache, downstream routers
// re-point their RPF' at the winner, and the telemetry/provenance layers
// record each of those facts.
#include <gtest/gtest.h>

#include "provenance/provenance.hpp"
#include "telemetry/snapshot.hpp"
#include "test_util.hpp"

namespace pimlib {
namespace {

const net::GroupAddress kGroup{net::Ipv4Address(224, 9, 9, 9)};

/// The checker's lan-assert world with a single downstream router:
///
///   source — slan — B ——(2)—— C(RP) ——(1)—— U1
///                   \                        |
///                    (1)—— U2 ———————————— dlan —— R — rlan — rcv
///
/// R's shared tree climbs U1 (cost 2 to C vs 3 via U2); its SPT climbs U2
/// (cost 2 to the source vs 4 via U1). Both paths land on dlan, so the
/// first post-switchover packet arrives twice and forces the election;
/// U2's SPT assert outranks U1's shared-tree assert outright.
struct AssertWorld {
    topo::Network net;
    topo::Router* b = nullptr;
    topo::Router* c = nullptr;
    topo::Router* u1 = nullptr;
    topo::Router* u2 = nullptr;
    topo::Router* r = nullptr;
    topo::Segment* dlan = nullptr;
    topo::Host* source = nullptr;
    topo::Host* rcv = nullptr;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<scenario::PimSmStack> stack;

    explicit AssertWorld(bool mutate_loser_keeps_forwarding = false) {
        b = &net.add_router("B");
        c = &net.add_router("C");
        u1 = &net.add_router("U1");
        u2 = &net.add_router("U2");
        r = &net.add_router("R");
        net.add_link(*b, *c, sim::kMillisecond, 2);
        net.add_link(*c, *u1, sim::kMillisecond, 1);
        net.add_link(*b, *u2, sim::kMillisecond, 1);
        dlan = &net.add_lan({u1, u2, r});
        auto& slan = net.add_lan({b});
        auto& rlan = net.add_lan({r});
        source = &net.add_host("source", slan);
        rcv = &net.add_host("rcv", rlan);
        routing = std::make_unique<unicast::OracleRouting>(net);
        scenario::StackConfig cfg = test::fast_config();
        cfg.pim.mutate_assert_loser_keeps_forwarding = mutate_loser_keeps_forwarding;
        stack = std::make_unique<scenario::PimSmStack>(net, cfg);
        stack->set_rp(kGroup, {c->router_id()});
        stack->set_spt_policy(pim::SptPolicy::immediate());

        net.simulator().schedule_at(120 * sim::kMillisecond,
                                    [this] { stack->host_agent(*rcv).join(kGroup); });
        source->send_stream(kGroup, 12, 10 * sim::kMillisecond,
                            250 * sim::kMillisecond);
        // A second burst well after the election: steady state must be
        // duplicate-free with the loser's negative cache still holding.
        source->send_stream(kGroup, 6, 20 * sim::kMillisecond,
                            800 * sim::kMillisecond);
    }

    [[nodiscard]] net::Ipv4Address source_addr() const {
        return source->interfaces().front().address;
    }
    [[nodiscard]] int dlan_if(const topo::Router& router) const {
        return router.ifindex_on(*dlan).value();
    }
    [[nodiscard]] net::Ipv4Address dlan_addr(const topo::Router& router) const {
        return router.interface(dlan_if(router)).address;
    }

    [[nodiscard]] std::size_t duplicates_seen() const {
        std::set<std::uint64_t> seqs;
        std::size_t dups = 0;
        for (const auto& rec : rcv->received()) {
            if (rec.group != kGroup) continue;
            if (!seqs.insert(rec.seq).second) ++dups;
        }
        return dups;
    }
};

TEST(AssertTest, ElectionLeavesExactlyOneForwarderOnTheLan) {
    AssertWorld w;
    w.net.run_for(1300 * sim::kMillisecond);

    // Every packet of both bursts delivered; at most the pre-election
    // packets may have duplicated, and the post-election burst may not.
    EXPECT_EQ(w.rcv->received_count(kGroup) - w.duplicates_seen(), 18u);
    const std::size_t early_dups = w.duplicates_seen();

    // The loser holds an (S,G)RP-bit negative cache pruned on the LAN...
    auto* loser_sg = w.stack->pim_at(*w.u1).cache().find_sg(w.source_addr(), kGroup);
    ASSERT_NE(loser_sg, nullptr);
    EXPECT_TRUE(loser_sg->rp_bit());
    EXPECT_TRUE(loser_sg->is_pruned(w.dlan_if(*w.u1)));

    // ...while the winner forwards its real (S,G) onto it.
    auto* winner_sg = w.stack->pim_at(*w.u2).cache().find_sg(w.source_addr(), kGroup);
    ASSERT_NE(winner_sg, nullptr);
    EXPECT_FALSE(winner_sg->rp_bit());
    EXPECT_TRUE(winner_sg->has_oif(w.dlan_if(*w.u2)));

    // Steady state (the 800 ms burst, seqs 13..18) is duplicate-free.
    std::set<std::uint64_t> late_seqs;
    std::size_t late_copies = 0;
    for (const auto& rec : w.rcv->received()) {
        if (rec.group != kGroup || rec.seq < 13) continue;
        late_seqs.insert(rec.seq);
        ++late_copies;
    }
    EXPECT_EQ(late_seqs.size(), 6u);
    EXPECT_EQ(late_copies, 6u) << "assert loser resumed forwarding";
    (void)early_dups;
}

TEST(AssertTest, DownstreamRetargetsItsUpstreamAtTheWinner) {
    AssertWorld w;
    telemetry::MribSnapshot before;
    w.net.simulator().schedule_at(240 * sim::kMillisecond,
                                  [&] { before = w.stack->capture_mrib(); });
    w.net.run_for(600 * sim::kMillisecond);

    // R's (S,G) joins are addressed to the winner on the LAN.
    auto* sg = w.stack->pim_at(*w.r).cache().find_sg(w.source_addr(), kGroup);
    ASSERT_NE(sg, nullptr);
    ASSERT_TRUE(sg->upstream_neighbor().has_value());
    EXPECT_EQ(*sg->upstream_neighbor(), w.dlan_addr(*w.u2));

    // The retarget is structural: it shows up in the MRIB diff because the
    // upstream neighbor is part of the entry signature.
    const telemetry::MribDiff d = telemetry::diff(before, w.stack->capture_mrib());
    bool r_changed = false;
    for (const std::string& line : d.changed) {
        if (line.find("R ") == 0 || line.find("R (") == 0) r_changed = true;
    }
    for (const std::string& line : d.added) {
        if (line.find("R ") == 0 || line.find("R (") == 0) r_changed = true;
    }
    EXPECT_TRUE(r_changed) << d.to_text();
}

TEST(AssertTest, TransitionCountersRecordWinnerAndLoser) {
    AssertWorld w;
    w.net.run_for(600 * sim::kMillisecond);
    telemetry::Registry& reg = w.net.telemetry().registry();
    EXPECT_GE(reg.counter("pimlib_assert_transitions_total", {{"role", "winner"}})
                  .value(),
              1u);
    EXPECT_GE(reg.counter("pimlib_assert_transitions_total", {{"role", "loser"}})
                  .value(),
              1u);
}

TEST(AssertTest, LoserDropsAreClassifiedAsAssertLoser) {
    AssertWorld w;
    provenance::Recorder recorder;
    w.net.set_provenance(&recorder);
    w.net.run_for(1300 * sim::kMillisecond);
    // The winner's copies keep arriving on the loser's pruned LAN
    // interface; those drops carry the typed reason, not a generic one.
    const std::string summary = recorder.drop_summary(w.net.node_names());
    EXPECT_NE(summary.find("assert-loser"), std::string::npos) << summary;
}

TEST(AssertTest, SeededMutationKeepsTheLoserForwarding) {
    AssertWorld w(/*mutate_loser_keeps_forwarding=*/true);
    w.net.run_for(1300 * sim::kMillisecond);
    // With the loser's prune suppressed, both upstreams keep forwarding and
    // the receiver sees systematic duplicates — including in steady state.
    std::set<std::uint64_t> late_seqs;
    std::size_t late_copies = 0;
    for (const auto& rec : w.rcv->received()) {
        if (rec.group != kGroup || rec.seq < 13) continue;
        late_seqs.insert(rec.seq);
        ++late_copies;
    }
    EXPECT_EQ(late_seqs.size(), 6u);
    EXPECT_GT(late_copies, late_seqs.size())
        << "mutation failed to produce steady-state duplicates";
}

} // namespace
} // namespace pimlib
