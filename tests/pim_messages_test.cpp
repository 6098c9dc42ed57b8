// PIM v1 message codec tests: round trips, flag encoding, header
// validation, truncation robustness, and random fuzz of the decoders.
#include <gtest/gtest.h>

#include <random>

#include "igmp/messages.hpp"
#include "pim/messages.hpp"

namespace pimlib::pim {
namespace {

const net::Ipv4Address kGroupAddr(224, 1, 1, 1);
const net::Ipv4Address kRp(192, 168, 0, 3);
const net::Ipv4Address kSrc(10, 0, 1, 3);

using GroupRecord = JoinPruneBundle::GroupRecord;

/// A Join/Prune carrying the one group record `rec`.
JoinPruneBundle one_record(GroupRecord rec) {
    JoinPruneBundle msg;
    msg.upstream_neighbor = net::Ipv4Address(10, 0, 0, 2);
    msg.holdtime_ms = 180000;
    msg.groups = {std::move(rec)};
    return msg;
}

TEST(PimMessages, PeekCode) {
    Query q{1000};
    EXPECT_EQ(peek_code(q.encode()), Code::kQuery);
    EXPECT_EQ(peek_code(one_record(GroupRecord{kGroupAddr, {}, {}}).encode()),
              Code::kJoinPruneBundle);
    // Wrong IGMP type byte.
    std::vector<std::uint8_t> bogus{0x12, 0x02};
    EXPECT_FALSE(peek_code(bogus).has_value());
    // Unknown PIM code.
    std::vector<std::uint8_t> unknown{igmp::kTypePim, 0x77};
    EXPECT_FALSE(peek_code(unknown).has_value());
    // The retired single-group Join/Prune code.
    std::vector<std::uint8_t> retired{igmp::kTypePim, 0x02, 0, 0, 0, 0};
    EXPECT_FALSE(peek_code(retired).has_value());
    EXPECT_FALSE(peek_code(std::vector<std::uint8_t>{igmp::kTypePim}).has_value());
}

TEST(PimMessages, QueryRoundTrip) {
    const Query q{123456};
    auto decoded = Query::decode(q.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->holdtime_ms, 123456u);
}

TEST(PimMessages, RegisterRoundTripWithPayload) {
    Register reg;
    reg.group = kGroupAddr;
    reg.inner_src = kSrc;
    reg.inner_ttl = 17;
    reg.inner_seq = 0xABCDEF0123456789ull;
    reg.inner_payload = {1, 2, 3, 4, 5};
    auto decoded = Register::decode(reg.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->group, reg.group);
    EXPECT_EQ(decoded->inner_src, reg.inner_src);
    EXPECT_EQ(decoded->inner_ttl, reg.inner_ttl);
    EXPECT_EQ(decoded->inner_seq, reg.inner_seq);
    EXPECT_EQ(decoded->inner_payload, reg.inner_payload);
}

TEST(PimMessages, RegisterEmptyPayload) {
    Register reg;
    reg.group = kGroupAddr;
    reg.inner_src = kSrc;
    auto decoded = Register::decode(reg.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->inner_payload.empty());
}

TEST(PimMessages, JoinPruneRoundTripWithFlags) {
    const JoinPruneBundle msg = one_record(GroupRecord{
        kGroupAddr,
        {
            AddressEntry{kRp, EntryFlags{true, true}},   // (*,G) join: WC|RP
            AddressEntry{kSrc, EntryFlags{false, false}}, // (S,G) SPT join
            AddressEntry{kRp, EntryFlags{true, false}},   // WC alone
        },
        {
            AddressEntry{kSrc, EntryFlags{false, true}}, // RP-bit prune (§3.3)
        }});
    auto decoded = JoinPruneBundle::decode(msg.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->upstream_neighbor, msg.upstream_neighbor);
    EXPECT_EQ(decoded->holdtime_ms, msg.holdtime_ms);
    EXPECT_EQ(decoded->groups, msg.groups);
}

TEST(PimMessages, JoinPruneEmptyListsValid) {
    auto decoded =
        JoinPruneBundle::decode(one_record(GroupRecord{kGroupAddr, {}, {}}).encode());
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->groups.size(), 1u);
    EXPECT_EQ(decoded->groups[0].group, kGroupAddr);
    EXPECT_TRUE(decoded->groups[0].joins.empty());
    EXPECT_TRUE(decoded->groups[0].prunes.empty());
}

TEST(PimMessages, JoinPruneBundleRoundTrip) {
    JoinPruneBundle msg;
    msg.upstream_neighbor = net::Ipv4Address(10, 0, 0, 2);
    msg.holdtime_ms = 180000;
    msg.groups = {
        JoinPruneBundle::GroupRecord{
            kGroupAddr,
            {AddressEntry{kRp, EntryFlags{true, true}},
             AddressEntry{kSrc, EntryFlags{false, false}}},
            {AddressEntry{kSrc, EntryFlags{false, true}}}},
        JoinPruneBundle::GroupRecord{net::Ipv4Address(224, 1, 1, 2),
                                     {AddressEntry{kRp, EntryFlags{true, true}}},
                                     {}},
        // A record with empty lists is legal (e.g. a group whose joins are
        // all suppressed this tick but whose prunes ride along — or vice
        // versa at the encoder's discretion).
        JoinPruneBundle::GroupRecord{net::Ipv4Address(224, 1, 1, 3), {}, {}},
    };
    EXPECT_EQ(peek_code(msg.encode()), Code::kJoinPruneBundle);
    auto decoded = JoinPruneBundle::decode(msg.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->upstream_neighbor, msg.upstream_neighbor);
    EXPECT_EQ(decoded->holdtime_ms, msg.holdtime_ms);
    EXPECT_EQ(decoded->groups, msg.groups);
}

TEST(PimMessages, JoinPruneBundleTruncationAndTrailingGarbageRejected) {
    JoinPruneBundle msg;
    msg.upstream_neighbor = net::Ipv4Address(10, 0, 0, 2);
    msg.holdtime_ms = 90000;
    msg.groups = {JoinPruneBundle::GroupRecord{
                      kGroupAddr,
                      {AddressEntry{kRp, EntryFlags{true, true}}},
                      {AddressEntry{kSrc, EntryFlags{false, true}}}},
                  JoinPruneBundle::GroupRecord{
                      net::Ipv4Address(224, 1, 1, 2),
                      {AddressEntry{kSrc, EntryFlags{false, false}}},
                      {}}};
    const auto bytes = msg.encode();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(JoinPruneBundle::decode({bytes.data(), len}).has_value())
            << "decoded from truncated length " << len;
    }
    auto extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(JoinPruneBundle::decode(extended).has_value());
    // Wrong code rejected.
    EXPECT_FALSE(JoinPruneBundle::decode(Query{5}.encode()).has_value());
    // Inflated group count without the records rejected.
    auto inflated = bytes;
    inflated[11] = 0xFF; // group-count u16 low byte (header 2 + addr 4 + holdtime 4)
    EXPECT_FALSE(JoinPruneBundle::decode(inflated).has_value());
}

TEST(PimMessages, RpReachabilityRoundTrip) {
    const RpReachability msg{kGroupAddr, kRp, 90000};
    auto decoded = RpReachability::decode(msg.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->group, msg.group);
    EXPECT_EQ(decoded->rp, msg.rp);
    EXPECT_EQ(decoded->holdtime_ms, msg.holdtime_ms);
}

TEST(PimMessages, DecoderRejectsWrongCode) {
    Query q{5};
    EXPECT_FALSE(JoinPruneBundle::decode(q.encode()).has_value());
    EXPECT_FALSE(Register::decode(q.encode()).has_value());
    EXPECT_FALSE(RpReachability::decode(q.encode()).has_value());
}

TEST(PimMessages, EveryTruncationRejected) {
    const auto bytes = one_record(GroupRecord{kGroupAddr,
                                              {AddressEntry{kRp, EntryFlags{true, true}}},
                                              {AddressEntry{kSrc, EntryFlags{false, true}}}})
                           .encode();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(JoinPruneBundle::decode({bytes.data(), len}).has_value())
            << "decoded from truncated length " << len;
    }
    // Trailing garbage also rejected.
    auto extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(JoinPruneBundle::decode(extended).has_value());
}

// Every strict prefix of a valid encoding must decode to nullopt, for all
// four message types — a decoder that "succeeds" on a truncated buffer is
// reading uninitialized state. Trailing garbage must be rejected too
// (every format carries explicit lengths, so the end is knowable).
TEST(PimMessages, QueryTruncationAndTrailingGarbageRejected) {
    const auto bytes = Query{123456}.encode();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(Query::decode({bytes.data(), len}).has_value())
            << "decoded from truncated length " << len;
    }
    auto extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(Query::decode(extended).has_value());
}

TEST(PimMessages, RegisterTruncationAndTrailingGarbageRejected) {
    Register reg;
    reg.group = kGroupAddr;
    reg.inner_src = kSrc;
    reg.inner_ttl = 31;
    reg.inner_seq = 42;
    reg.inner_payload = {9, 8, 7};
    const auto bytes = reg.encode();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(Register::decode({bytes.data(), len}).has_value())
            << "decoded from truncated length " << len;
    }
    auto extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(Register::decode(extended).has_value());
}

TEST(PimMessages, RpReachabilityTruncationAndTrailingGarbageRejected) {
    const auto bytes = RpReachability{kGroupAddr, kRp, 90000}.encode();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(RpReachability::decode({bytes.data(), len}).has_value())
            << "decoded from truncated length " << len;
    }
    auto extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(RpReachability::decode(extended).has_value());
}

TEST(PimMessages, JoinPruneCountFieldBeyondBufferRejected) {
    auto bytes =
        one_record(GroupRecord{kGroupAddr, {AddressEntry{kRp, EntryFlags{true, true}}}, {}})
            .encode();
    // Inflate the record's join count (bytes 16..17, big-endian u16 after
    // header + upstream + holdtime + group count + group) without providing
    // the entries.
    bytes[17] = 0xFF;
    EXPECT_FALSE(JoinPruneBundle::decode(bytes).has_value());
}

// Randomized property: encode() of arbitrary field values always decodes
// back to the same message, for all four types.
TEST(PimMessages, RandomizedEncodeDecodeRoundTrip) {
    std::mt19937 rng(7);
    std::uniform_int_distribution<std::uint32_t> u32(0, 0xFFFFFFFFu);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> small(0, 5);
    auto rand_addr = [&] {
        return net::Ipv4Address(static_cast<std::uint8_t>(byte(rng)),
                                static_cast<std::uint8_t>(byte(rng)),
                                static_cast<std::uint8_t>(byte(rng)),
                                static_cast<std::uint8_t>(byte(rng)));
    };
    auto rand_entries = [&] {
        std::vector<AddressEntry> out;
        for (int i = small(rng); i > 0; --i) {
            out.push_back(AddressEntry{
                rand_addr(), EntryFlags{byte(rng) % 2 == 0, byte(rng) % 2 == 0}});
        }
        return out;
    };
    for (int trial = 0; trial < 500; ++trial) {
        const Query q{u32(rng)};
        auto dq = Query::decode(q.encode());
        ASSERT_TRUE(dq.has_value());
        EXPECT_EQ(dq->holdtime_ms, q.holdtime_ms);

        Register reg;
        reg.group = rand_addr();
        reg.inner_src = rand_addr();
        reg.inner_ttl = static_cast<std::uint8_t>(byte(rng));
        reg.inner_seq = (static_cast<std::uint64_t>(u32(rng)) << 32) | u32(rng);
        reg.inner_payload.resize(static_cast<std::size_t>(small(rng)) * 7);
        for (auto& b : reg.inner_payload) b = static_cast<std::uint8_t>(byte(rng));
        auto dr = Register::decode(reg.encode());
        ASSERT_TRUE(dr.has_value());
        EXPECT_EQ(dr->group, reg.group);
        EXPECT_EQ(dr->inner_src, reg.inner_src);
        EXPECT_EQ(dr->inner_ttl, reg.inner_ttl);
        EXPECT_EQ(dr->inner_seq, reg.inner_seq);
        EXPECT_EQ(dr->inner_payload, reg.inner_payload);

        JoinPruneBundle jp;
        jp.upstream_neighbor = rand_addr();
        jp.holdtime_ms = u32(rng);
        jp.groups = {GroupRecord{rand_addr(), rand_entries(), rand_entries()}};
        auto dj = JoinPruneBundle::decode(jp.encode());
        ASSERT_TRUE(dj.has_value());
        EXPECT_EQ(dj->upstream_neighbor, jp.upstream_neighbor);
        EXPECT_EQ(dj->holdtime_ms, jp.holdtime_ms);
        EXPECT_EQ(dj->groups, jp.groups);

        const RpReachability rr{rand_addr(), rand_addr(), u32(rng)};
        auto drr = RpReachability::decode(rr.encode());
        ASSERT_TRUE(drr.has_value());
        EXPECT_EQ(drr->group, rr.group);
        EXPECT_EQ(drr->rp, rr.rp);
        EXPECT_EQ(drr->holdtime_ms, rr.holdtime_ms);

        JoinPruneBundle bundle;
        bundle.upstream_neighbor = rand_addr();
        bundle.holdtime_ms = u32(rng);
        for (int g = small(rng); g > 0; --g) {
            bundle.groups.push_back(
                JoinPruneBundle::GroupRecord{rand_addr(), rand_entries(), rand_entries()});
        }
        auto db = JoinPruneBundle::decode(bundle.encode());
        ASSERT_TRUE(db.has_value());
        EXPECT_EQ(db->upstream_neighbor, bundle.upstream_neighbor);
        EXPECT_EQ(db->holdtime_ms, bundle.holdtime_ms);
        EXPECT_EQ(db->groups, bundle.groups);
    }
}

TEST(PimMessages, AssertRoundTrip) {
    Assert msg;
    msg.group = kGroupAddr;
    msg.source = kSrc;
    msg.wc_bit = true;
    msg.metric = 0xDEADBEEF;
    EXPECT_EQ(peek_code(msg.encode()), Code::kAssert);
    auto decoded = Assert::decode(msg.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->group, msg.group);
    EXPECT_EQ(decoded->source, msg.source);
    EXPECT_EQ(decoded->wc_bit, msg.wc_bit);
    EXPECT_EQ(decoded->metric, msg.metric);
    // The wc bit distinguishes an SPT assert from a shared-tree assert —
    // both polarities must survive the trip.
    msg.wc_bit = false;
    decoded = Assert::decode(msg.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_FALSE(decoded->wc_bit);
}

TEST(PimMessages, AssertTruncationAndTrailingGarbageRejected) {
    Assert msg;
    msg.group = kGroupAddr;
    msg.source = kSrc;
    msg.metric = 3;
    const auto bytes = msg.encode();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(Assert::decode({bytes.data(), len}).has_value())
            << "decoded from truncated length " << len;
    }
    auto extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(Assert::decode(extended).has_value());
    EXPECT_FALSE(Assert::decode(Query{5}.encode()).has_value());
}

TEST(PimMessages, BootstrapRoundTrip) {
    Bootstrap msg;
    msg.bsr = kRp;
    msg.bsr_priority = 20;
    msg.seq = 0x01020304;
    msg.rps = {
        Bootstrap::RpEntry{net::Prefix{net::Ipv4Address(224, 0, 0, 0), 4},
                           net::Ipv4Address(192, 168, 0, 7), 20, 75000},
        Bootstrap::RpEntry{net::Prefix{kGroupAddr, 32},
                           net::Ipv4Address(192, 168, 0, 9), 0, 1},
    };
    EXPECT_EQ(peek_code(msg.encode()), Code::kBootstrap);
    auto decoded = Bootstrap::decode(msg.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->bsr, msg.bsr);
    EXPECT_EQ(decoded->bsr_priority, msg.bsr_priority);
    EXPECT_EQ(decoded->seq, msg.seq);
    EXPECT_EQ(decoded->rps, msg.rps);
}

TEST(PimMessages, BootstrapEmptyRpSetValid) {
    // A freshly elected BSR floods before any candidate advertises: the
    // empty set must encode and decode (it still carries the election).
    Bootstrap msg;
    msg.bsr = kRp;
    msg.seq = 1;
    auto decoded = Bootstrap::decode(msg.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->rps.empty());
}

TEST(PimMessages, BootstrapTruncationAndTrailingGarbageRejected) {
    Bootstrap msg;
    msg.bsr = kRp;
    msg.bsr_priority = 9;
    msg.seq = 77;
    msg.rps = {Bootstrap::RpEntry{net::Prefix{net::Ipv4Address(224, 0, 0, 0), 4},
                                  net::Ipv4Address(192, 168, 0, 7), 20, 75000}};
    const auto bytes = msg.encode();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(Bootstrap::decode({bytes.data(), len}).has_value())
            << "decoded from truncated length " << len;
    }
    auto extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(Bootstrap::decode(extended).has_value());
    EXPECT_FALSE(Bootstrap::decode(Query{5}.encode()).has_value());
}

TEST(PimMessages, CandidateRpAdvertisementRoundTrip) {
    CandidateRpAdvertisement msg;
    msg.rp = net::Ipv4Address(192, 168, 0, 7);
    msg.priority = 20;
    msg.holdtime_ms = 75000;
    msg.ranges = {net::Prefix{net::Ipv4Address(224, 0, 0, 0), 4},
                  net::Prefix{kGroupAddr, 32}};
    EXPECT_EQ(peek_code(msg.encode()), Code::kCandidateRpAdvertisement);
    auto decoded = CandidateRpAdvertisement::decode(msg.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->rp, msg.rp);
    EXPECT_EQ(decoded->priority, msg.priority);
    EXPECT_EQ(decoded->holdtime_ms, msg.holdtime_ms);
    EXPECT_EQ(decoded->ranges, msg.ranges);
}

TEST(PimMessages, CandidateRpAdvertisementTruncationAndTrailingGarbageRejected) {
    CandidateRpAdvertisement msg;
    msg.rp = net::Ipv4Address(192, 168, 0, 7);
    msg.holdtime_ms = 75000;
    msg.ranges = {net::Prefix{net::Ipv4Address(224, 0, 0, 0), 4}};
    const auto bytes = msg.encode();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(
            CandidateRpAdvertisement::decode({bytes.data(), len}).has_value())
            << "decoded from truncated length " << len;
    }
    auto extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(CandidateRpAdvertisement::decode(extended).has_value());
    EXPECT_FALSE(
        CandidateRpAdvertisement::decode(Query{5}.encode()).has_value());
}

// Randomized property for the bootstrap-era codecs, mirroring the
// RandomizedEncodeDecodeRoundTrip coverage of the original four.
TEST(PimMessages, RandomizedBootstrapEraRoundTrip) {
    std::mt19937 rng(11);
    std::uniform_int_distribution<std::uint32_t> u32(0, 0xFFFFFFFFu);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> small(0, 5);
    std::uniform_int_distribution<int> masklen(0, 32);
    auto rand_addr = [&] {
        return net::Ipv4Address(static_cast<std::uint8_t>(byte(rng)),
                                static_cast<std::uint8_t>(byte(rng)),
                                static_cast<std::uint8_t>(byte(rng)),
                                static_cast<std::uint8_t>(byte(rng)));
    };
    auto rand_prefix = [&] { return net::Prefix{rand_addr(), masklen(rng)}; };
    for (int trial = 0; trial < 500; ++trial) {
        Assert a;
        a.group = rand_addr();
        a.source = rand_addr();
        a.wc_bit = byte(rng) % 2 == 0;
        a.metric = u32(rng);
        auto da = Assert::decode(a.encode());
        ASSERT_TRUE(da.has_value());
        EXPECT_EQ(da->group, a.group);
        EXPECT_EQ(da->source, a.source);
        EXPECT_EQ(da->wc_bit, a.wc_bit);
        EXPECT_EQ(da->metric, a.metric);

        Bootstrap b;
        b.bsr = rand_addr();
        b.bsr_priority = static_cast<std::uint8_t>(byte(rng));
        b.seq = u32(rng);
        for (int i = small(rng); i > 0; --i) {
            b.rps.push_back(Bootstrap::RpEntry{
                rand_prefix(), rand_addr(),
                static_cast<std::uint8_t>(byte(rng)), u32(rng)});
        }
        auto db = Bootstrap::decode(b.encode());
        ASSERT_TRUE(db.has_value());
        EXPECT_EQ(db->bsr, b.bsr);
        EXPECT_EQ(db->bsr_priority, b.bsr_priority);
        EXPECT_EQ(db->seq, b.seq);
        EXPECT_EQ(db->rps, b.rps);

        CandidateRpAdvertisement c;
        c.rp = rand_addr();
        c.priority = static_cast<std::uint8_t>(byte(rng));
        c.holdtime_ms = u32(rng);
        for (int i = small(rng); i > 0; --i) c.ranges.push_back(rand_prefix());
        auto dc = CandidateRpAdvertisement::decode(c.encode());
        ASSERT_TRUE(dc.has_value());
        EXPECT_EQ(dc->rp, c.rp);
        EXPECT_EQ(dc->priority, c.priority);
        EXPECT_EQ(dc->holdtime_ms, c.holdtime_ms);
        EXPECT_EQ(dc->ranges, c.ranges);
    }
}

TEST(PimMessages, FuzzRandomBytesNeverCrash) {
    std::mt19937 rng(2024);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<int> len(0, 64);
    for (int trial = 0; trial < 5000; ++trial) {
        std::vector<std::uint8_t> bytes(static_cast<std::size_t>(len(rng)));
        for (auto& b : bytes) b = static_cast<std::uint8_t>(byte(rng));
        // Make a fair fraction look like PIM so decoders get past the
        // header, cycling through all eight code values.
        if (trial % 2 == 0 && bytes.size() >= 2) {
            bytes[0] = igmp::kTypePim;
            bytes[1] = static_cast<std::uint8_t>((trial / 2) % 8);
        }
        (void)peek_code(bytes);
        (void)Query::decode(bytes);
        (void)Register::decode(bytes);
        (void)RpReachability::decode(bytes);
        (void)JoinPruneBundle::decode(bytes);
        (void)Assert::decode(bytes);
        (void)Bootstrap::decode(bytes);
        (void)CandidateRpAdvertisement::decode(bytes);
    }
    SUCCEED();
}

} // namespace
} // namespace pimlib::pim
