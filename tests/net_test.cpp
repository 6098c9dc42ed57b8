// Unit tests for net: addresses, prefixes, wire-format buffers, shared
// packet payloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "alloc_count.hpp"
#include "net/buffer.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/payload.hpp"

namespace pimlib::net {
namespace {

TEST(Ipv4Address, ParsesDottedQuad) {
    auto a = Ipv4Address::parse("192.168.1.42");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->to_string(), "192.168.1.42");
    EXPECT_EQ(a->to_uint(), 0xC0A8012Au);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
    EXPECT_FALSE(Ipv4Address::parse("").has_value());
    EXPECT_FALSE(Ipv4Address::parse("1.2.3").has_value());
    EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5").has_value());
    EXPECT_FALSE(Ipv4Address::parse("1.2.3.256").has_value());
    EXPECT_FALSE(Ipv4Address::parse("a.b.c.d").has_value());
    EXPECT_FALSE(Ipv4Address::parse("1.2.3.4 ").has_value());
    EXPECT_FALSE(Ipv4Address::parse("1..3.4").has_value());
}

TEST(Ipv4Address, MulticastClassification) {
    EXPECT_TRUE(Ipv4Address(224, 0, 0, 1).is_multicast());
    EXPECT_TRUE(Ipv4Address(239, 255, 255, 255).is_multicast());
    EXPECT_FALSE(Ipv4Address(223, 255, 255, 255).is_multicast());
    EXPECT_FALSE(Ipv4Address(240, 0, 0, 0).is_multicast());
    EXPECT_TRUE(Ipv4Address(224, 0, 0, 2).is_link_local_multicast());
    EXPECT_FALSE(Ipv4Address(224, 0, 1, 2).is_link_local_multicast());
    EXPECT_FALSE(Ipv4Address(225, 0, 0, 2).is_link_local_multicast());
}

TEST(GroupAddress, RejectsNonClassD) {
    EXPECT_THROW(GroupAddress{Ipv4Address(10, 0, 0, 1)}, std::invalid_argument);
    EXPECT_NO_THROW(GroupAddress{Ipv4Address(224, 1, 2, 3)});
}

TEST(Prefix, CanonicalizesHostBits) {
    const Prefix p{Ipv4Address(10, 1, 2, 3), 24};
    EXPECT_EQ(p.address(), Ipv4Address(10, 1, 2, 0));
    EXPECT_EQ(p.to_string(), "10.1.2.0/24");
}

TEST(Prefix, Contains) {
    const Prefix p{Ipv4Address(10, 1, 2, 0), 24};
    EXPECT_TRUE(p.contains(Ipv4Address(10, 1, 2, 255)));
    EXPECT_FALSE(p.contains(Ipv4Address(10, 1, 3, 0)));
    const Prefix all{Ipv4Address{}, 0};
    EXPECT_TRUE(all.contains(Ipv4Address(1, 2, 3, 4)));
    const Prefix host = Prefix::host(Ipv4Address(10, 0, 0, 1));
    EXPECT_TRUE(host.contains(Ipv4Address(10, 0, 0, 1)));
    EXPECT_FALSE(host.contains(Ipv4Address(10, 0, 0, 2)));
}

TEST(Prefix, Parse) {
    auto p = Prefix::parse("172.16.0.0/12");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->length(), 12);
    EXPECT_FALSE(Prefix::parse("172.16.0.0").has_value());
    EXPECT_FALSE(Prefix::parse("172.16.0.0/33").has_value());
    EXPECT_FALSE(Prefix::parse("172.16.0.0/-1").has_value());
}

TEST(Buffer, RoundTripsAllWidths) {
    BufWriter w;
    w.put_u8(0xAB);
    w.put_u16(0xBEEF);
    w.put_u32(0xDEADBEEF);
    w.put_u64(0x0123456789ABCDEFull);
    w.put_addr(Ipv4Address(1, 2, 3, 4));
    const auto bytes = w.take();
    ASSERT_EQ(bytes.size(), 1u + 2 + 4 + 8 + 4);

    BufReader r({bytes.data(), bytes.size()});
    EXPECT_EQ(r.get_u8(), 0xAB);
    EXPECT_EQ(r.get_u16(), 0xBEEF);
    EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.get_addr(), Ipv4Address(1, 2, 3, 4));
    EXPECT_TRUE(r.at_end());
    EXPECT_TRUE(r.ok());
}

TEST(Buffer, BigEndianOnTheWire) {
    BufWriter w;
    w.put_u16(0x0102);
    const auto& bytes = w.bytes();
    ASSERT_EQ(bytes.size(), 2u);
    EXPECT_EQ(bytes[0], 0x01);
    EXPECT_EQ(bytes[1], 0x02);
}

TEST(Buffer, UnderrunFailsAndStaysFailed) {
    const std::vector<std::uint8_t> bytes{0x01, 0x02};
    BufReader r({bytes.data(), bytes.size()});
    EXPECT_FALSE(r.get_u32().has_value());
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.get_u8().has_value()); // failed readers stay failed
}

TEST(Buffer, GetBytesBounds) {
    const std::vector<std::uint8_t> bytes{1, 2, 3};
    BufReader r({bytes.data(), bytes.size()});
    auto got = r.get_bytes(3);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, (std::vector<std::uint8_t>{1, 2, 3}));
    BufReader r2({bytes.data(), bytes.size()});
    EXPECT_FALSE(r2.get_bytes(4).has_value());
}

// Property: any sequence of typed writes reads back identically.
TEST(Buffer, PropertyRandomRoundTrip) {
    std::mt19937 rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        BufWriter w;
        std::vector<std::pair<int, std::uint64_t>> fields;
        std::uniform_int_distribution<int> kind(0, 3);
        std::uniform_int_distribution<std::uint64_t> value;
        const int count = 1 + trial % 17;
        for (int i = 0; i < count; ++i) {
            const int k = kind(rng);
            const std::uint64_t v = value(rng);
            fields.emplace_back(k, v);
            switch (k) {
            case 0: w.put_u8(static_cast<std::uint8_t>(v)); break;
            case 1: w.put_u16(static_cast<std::uint16_t>(v)); break;
            case 2: w.put_u32(static_cast<std::uint32_t>(v)); break;
            default: w.put_u64(v); break;
            }
        }
        const auto bytes = w.take();
        BufReader r({bytes.data(), bytes.size()});
        for (const auto& [k, v] : fields) {
            switch (k) {
            case 0: EXPECT_EQ(r.get_u8(), static_cast<std::uint8_t>(v)); break;
            case 1: EXPECT_EQ(r.get_u16(), static_cast<std::uint16_t>(v)); break;
            case 2: EXPECT_EQ(r.get_u32(), static_cast<std::uint32_t>(v)); break;
            default: EXPECT_EQ(r.get_u64(), v); break;
            }
        }
        EXPECT_TRUE(r.at_end());
    }
}

TEST(Payload, EmptyAllocatesNothing) {
    const std::uint64_t before = test::g_alloc_count.load();
    Payload p;
    Payload copy = p;
    p = std::vector<std::uint8_t>{};
    copy.assign(0, 0xAB);
    EXPECT_EQ(test::g_alloc_count.load(), before);
    EXPECT_TRUE(p.empty());
    EXPECT_TRUE(copy.empty());
    EXPECT_EQ(p.size(), 0u);
    EXPECT_EQ(p.begin(), p.end());
    EXPECT_TRUE(p.span().empty());
}

TEST(Payload, CopySharesBytesAndOutlivesOriginal) {
    auto original = std::make_unique<Payload>(std::vector<std::uint8_t>{1, 2, 3, 4});
    const std::uint64_t before = test::g_alloc_count.load();
    Payload copy = *original;
    Packet packet;
    packet.payload = copy;
    EXPECT_EQ(test::g_alloc_count.load(), before); // copies only bump a count
    EXPECT_EQ(copy.span().data(), original->span().data());
    EXPECT_EQ(packet.payload.span().data(), original->span().data());
    original.reset();
    EXPECT_EQ(copy, (Payload{1, 2, 3, 4}));
    EXPECT_EQ(packet.payload[3], 4);
}

TEST(Payload, AssignFillsLikeVector) {
    Payload p{9, 9};
    const Payload kept = p;
    p.assign(5, 0xAB);
    const std::vector<std::uint8_t> expected(5, 0xAB);
    EXPECT_EQ(p.size(), 5u);
    EXPECT_EQ(p.front(), 0xAB);
    EXPECT_TRUE(std::equal(p.begin(), p.end(), expected.begin(), expected.end()));
    EXPECT_EQ(kept, (Payload{9, 9})); // assign never writes through to a copy
}

TEST(Payload, ComparesByBytes) {
    const Payload a = std::vector<std::uint8_t>{7, 8, 9};
    const Payload b{7, 8, 9};
    EXPECT_NE(a.span().data(), b.span().data());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, (Payload{7, 8}));
    EXPECT_NE(a, (Payload{7, 8, 0}));
    EXPECT_EQ(Payload{}, Payload(std::vector<std::uint8_t>{}));
}

TEST(Payload, DecodesThroughItsSpan) {
    BufWriter w;
    w.put_u16(0xBEEF);
    w.put_addr(Ipv4Address(10, 1, 2, 3));
    const Payload p = w.take();
    BufReader r(p);
    EXPECT_EQ(r.get_u16(), 0xBEEF);
    EXPECT_EQ(r.get_addr(), Ipv4Address(10, 1, 2, 3));
    EXPECT_TRUE(r.at_end());
}

} // namespace
} // namespace pimlib::net
