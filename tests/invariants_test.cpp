// Unit tests for the pure invariant oracles in check/invariants.{hpp,cpp}.
// Every rule is exercised against hand-built violating (and boundary-clean)
// fixtures — no simulation run required — so an oracle regression shows up
// here directly instead of as a mysteriously quiet model-checking run.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "telemetry/snapshot.hpp"
#include "test_util.hpp"

namespace pimlib::test {
namespace {

using check::EntryView;
using check::Violation;

const std::vector<std::string> kSegments = {"lan0", "A-B", "B-C"};

/// A crossing table over `segments` ids holding `counts`:
/// (seq, segment) -> crossings.
check::Crossings crossing_table(const std::map<std::pair<std::uint64_t, int>, int>& counts,
                                int segments = static_cast<int>(kSegments.size())) {
    check::Crossings table(segments);
    for (const auto& [key, n] : counts) {
        for (int i = 0; i < n; ++i) table.add(key.first, key.second);
    }
    return table;
}

TEST(LoopOracle, TtlDropsAreALoop) {
    const auto v = check::loop_violations(crossing_table({}), kSegments, 2);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].oracle, "forwarding-loop");
    EXPECT_NE(v[0].detail.find("TTL exhaustion"), std::string::npos);
}

TEST(LoopOracle, CrossingBoundIsInclusive) {
    const check::Crossings at_bound = crossing_table({{{7, 1}, check::kCrossingBound}});
    EXPECT_TRUE(check::loop_violations(at_bound, kSegments, 0).empty());

    const check::Crossings past_bound =
        crossing_table({{{7, 1}, check::kCrossingBound + 1}});
    const auto v = check::loop_violations(past_bound, kSegments, 0);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].oracle, "forwarding-loop");
    // The violation names the segment, not its numeric id.
    EXPECT_NE(v[0].detail.find("A-B"), std::string::npos);
}

TEST(LoopOracle, ReportsAtMostThreeCirclingSequences) {
    std::map<std::pair<std::uint64_t, int>, int> counts;
    for (std::uint64_t seq = 9; seq > 0; --seq) {
        counts[{seq, 2}] = check::kCrossingBound + 3;
        counts[{seq, 0}] = check::kCrossingBound + 1;
    }
    // The first three in (seq, segment) order, whatever order they came in.
    const auto v = check::loop_violations(crossing_table(counts), kSegments, 0);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0].detail, "seq 1 crossed segment lan0 5 times");
    EXPECT_EQ(v[1].detail, "seq 1 crossed segment B-C 7 times");
    EXPECT_EQ(v[2].detail, "seq 2 crossed segment lan0 5 times");
}

TEST(LoopOracle, UnknownSegmentIdFallsBackToNumber) {
    const check::Crossings crossings =
        crossing_table({{{1, 42}, check::kCrossingBound + 1}}, 43);
    const auto v = check::loop_violations(crossings, kSegments, 0);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].detail.find("segment 42"), std::string::npos);
}

TEST(DuplicateBoundOracle, BoundIsInclusive) {
    EXPECT_TRUE(
        check::duplicate_bound_violations("recv", check::kDuplicateBound).empty());
    const auto v =
        check::duplicate_bound_violations("recv", check::kDuplicateBound + 1);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].oracle, "duplicate-bound");
    EXPECT_NE(v[0].detail.find("recv"), std::string::npos);
}

TEST(DeliveryOracle, ListsEveryMissingSequence) {
    const std::set<std::uint64_t> got = {1, 2, 5};
    const auto v = check::delivery_violations("recv", got, 1, 6);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].oracle, "delivery");
    EXPECT_NE(v[0].detail.find("3,4,6"), std::string::npos);
}

TEST(DeliveryOracle, CompleteWindowIsClean) {
    const std::set<std::uint64_t> got = {1, 2, 3};
    EXPECT_TRUE(check::delivery_violations("recv", got, 1, 3).empty());
}

TEST(SteadyDuplicateOracle, SingleCopyCleanDoubleCopyViolates) {
    EXPECT_TRUE(
        check::steady_duplicate_violations("recv", {{10, 1}, {11, 1}}).empty());
    const auto v = check::steady_duplicate_violations("recv", {{10, 1}, {11, 2}});
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].oracle, "steady-duplicate");
    EXPECT_NE(v[0].detail.find("seq 11"), std::string::npos);
}

TEST(SteadyRedundancyOracle, AggregatesAcrossSegments) {
    // seq 5 crosses lan0 once and A-B once: total 2.
    const check::Crossings crossings = crossing_table({{{5, 0}, 1}, {{5, 1}, 1}});
    EXPECT_TRUE(
        check::steady_redundancy_violations(crossings, kSegments, 5, 5, 2).empty());

    const auto v =
        check::steady_redundancy_violations(crossings, kSegments, 5, 5, 3);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].oracle, "steady-redundancy");
    EXPECT_NE(v[0].detail.find("crossed 2 segment(s), want 3"), std::string::npos);
}

TEST(SteadyRedundancyOracle, MissingSequenceCountsAsZero) {
    const auto v = check::steady_redundancy_violations(crossing_table({}), kSegments, 1, 2, 1);
    EXPECT_EQ(v.size(), 2u); // both seqs crossed 0 segments
}

TEST(AssertWinnerOracle, ExactlyOneForwarderRequired) {
    const int lan = 2;
    const check::Crossings one = crossing_table({{{3, lan}, 1}});
    EXPECT_TRUE(check::assert_winner_violations(one, lan, 3, 3).empty());

    const check::Crossings dup = crossing_table({{{3, lan}, 2}});
    auto v = check::assert_winner_violations(dup, lan, 3, 3);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].oracle, "assert-winner");

    // A sequence that never crossed the LAN at all is equally a violation
    // (the election blackholed the LAN instead of leaving one forwarder).
    v = check::assert_winner_violations(crossing_table({}), lan, 3, 3);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].detail.find("crossed dlan 0 times"), std::string::npos);
}

TEST(RpAgreementOracle, EmptyDerivationIsStale) {
    std::map<std::string, std::vector<net::Ipv4Address>> derived;
    derived["M"] = {};
    derived["N"] = {net::Ipv4Address(10, 0, 0, 3)};
    const auto v = check::rp_agreement_violations(derived, "224.9.9.9");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].oracle, "rp-set-agreement");
    EXPECT_NE(v[0].detail.find("M derives no RP"), std::string::npos);
}

TEST(RpAgreementOracle, DisagreementNamesBothMappings) {
    std::map<std::string, std::vector<net::Ipv4Address>> derived;
    derived["M"] = {net::Ipv4Address(10, 0, 0, 3)};
    derived["N"] = {net::Ipv4Address(10, 0, 0, 7)};
    const auto v = check::rp_agreement_violations(derived, "224.9.9.9");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].detail.find("10.0.0.7"), std::string::npos);
    EXPECT_NE(v[0].detail.find("10.0.0.3"), std::string::npos);
}

TEST(RpAgreementOracle, UnanimousNonEmptySetIsClean) {
    std::map<std::string, std::vector<net::Ipv4Address>> derived;
    derived["M"] = {net::Ipv4Address(10, 0, 0, 3)};
    derived["N"] = {net::Ipv4Address(10, 0, 0, 3)};
    EXPECT_TRUE(check::rp_agreement_violations(derived, "224.9.9.9").empty());
}

telemetry::MribSnapshot snapshot_with(const std::string& router,
                                      const std::string& rp, bool wildcard) {
    telemetry::MribSnapshot snap;
    telemetry::RouterMrib mrib;
    mrib.router = router;
    telemetry::EntrySnapshot entry;
    entry.source_or_rp = rp;
    entry.group = "224.9.9.9";
    entry.wildcard = wildcard;
    mrib.entries.push_back(entry);
    snap.routers.push_back(mrib);
    return snap;
}

TEST(RehomingOracle, MissingWildcardIsABlackhole) {
    // The member router only holds an (S,G): no (*,G) at the deadline.
    const auto snap = snapshot_with("M", "10.0.0.9", /*wildcard=*/false);
    const auto v =
        check::rehoming_violations("rp-failover", snap, {"M"}, "10.0.0.3", "");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].oracle, "rp-failover");
    EXPECT_NE(v[0].detail.find("no (*,G) at the failover deadline"),
              std::string::npos);
}

TEST(RehomingOracle, WrongRootIsAFailedFailover) {
    const auto snap = snapshot_with("M", "10.0.0.9", /*wildcard=*/true);
    const auto v = check::rehoming_violations("bsr-rp-rehoming", snap, {"M"},
                                              "10.0.0.3", " (primary crashed)");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NE(v[0].detail.find("still rooted at 10.0.0.9"), std::string::npos);
    EXPECT_NE(v[0].detail.find("(primary crashed)"), std::string::npos);
}

TEST(RehomingOracle, NonMembersAndCorrectRootsAreClean) {
    // "B" is not in the member list, so its wrong-rooted entry is ignored.
    auto snap = snapshot_with("B", "10.0.0.9", /*wildcard=*/true);
    EXPECT_TRUE(
        check::rehoming_violations("rp-failover", snap, {"M"}, "10.0.0.3", "")
            .empty());

    snap = snapshot_with("M", "10.0.0.3", /*wildcard=*/true);
    EXPECT_TRUE(
        check::rehoming_violations("rp-failover", snap, {"M"}, "10.0.0.3", "")
            .empty());
}

// --- entry_iif_problems: needs a real router with unicast RPF state. ---

class EntryIifTest : public ::testing::Test {
protected:
    Fig3Topology topo_;
};

TEST_F(EntryIifTest, IifInOwnOifListIsFlagged) {
    EntryView entry;
    entry.iif = 0;
    entry.oifs = {0, 1};
    const auto problems = check::entry_iif_problems(*topo_.a, entry, nullptr);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("also appears in its own oif list"),
              std::string::npos);
}

TEST_F(EntryIifTest, IifMustFollowUnicastRpf) {
    // A's RPF interface toward the RP (C) is the A-B link.
    const int toward_rp = topo_.ifindex_toward(*topo_.a, *topo_.b);
    EntryView entry;
    entry.wildcard = true;
    entry.root = topo_.c->router_id();
    entry.root_known = true;
    entry.iif = toward_rp;
    EXPECT_TRUE(check::entry_iif_problems(*topo_.a, entry, nullptr).empty());

    entry.iif = toward_rp + 1; // any other interface disagrees with RPF
    const auto problems = check::entry_iif_problems(*topo_.a, entry, nullptr);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("disagrees with unicast RPF interface"),
              std::string::npos);
}

TEST_F(EntryIifTest, WildcardAtItsOwnRpWantsNoIif) {
    EntryView entry;
    entry.wildcard = true;
    entry.root = topo_.c->router_id(); // C is the RP itself
    entry.root_known = true;
    entry.iif = 0;
    const auto problems = check::entry_iif_problems(*topo_.c, entry, nullptr);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("want -1"), std::string::npos);

    entry.iif = -1;
    EXPECT_TRUE(check::entry_iif_problems(*topo_.c, entry, nullptr).empty());
}

TEST_F(EntryIifTest, RpBitNegativeCacheMustShadowWildcard) {
    EntryView rp_bit;
    rp_bit.rp_bit = true;
    rp_bit.root = topo_.source->interfaces().front().address;
    rp_bit.root_known = true;
    rp_bit.iif = 1;

    // No (*,G) shadow at all: the negative cache outlived its parent.
    auto problems = check::entry_iif_problems(*topo_.a, rp_bit, nullptr);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("outlives its (*,G)"), std::string::npos);

    // Shadow present but on a different iif (fn13: they must share it).
    EntryView shadow;
    shadow.wildcard = true;
    shadow.iif = 0;
    problems = check::entry_iif_problems(*topo_.a, rp_bit, &shadow);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("!= (*,G) iif"), std::string::npos);

    shadow.iif = rp_bit.iif;
    EXPECT_TRUE(check::entry_iif_problems(*topo_.a, rp_bit, &shadow).empty());
}

TEST_F(EntryIifTest, UnknownRootSkipsRpfCheck) {
    EntryView entry;
    entry.iif = 3; // nonsense, but root_known=false disarms the RPF rule
    EXPECT_TRUE(check::entry_iif_problems(*topo_.a, entry, nullptr).empty());
}

} // namespace
} // namespace pimlib::test
