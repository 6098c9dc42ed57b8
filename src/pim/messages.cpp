#include "pim/messages.hpp"

#include "igmp/messages.hpp"

namespace pimlib::pim {

namespace {

constexpr std::uint8_t kFlagWc = 0x01;
constexpr std::uint8_t kFlagRp = 0x02;
/// The single-group Join/Prune of earlier versions; no longer a message.
constexpr std::uint8_t kRetiredJoinPruneCode = 2;

void put_header(net::BufWriter& w, Code code) {
    w.put_u8(igmp::kTypePim);
    w.put_u8(static_cast<std::uint8_t>(code));
}

/// Consumes and validates the two header bytes; nullopt unless they match.
bool check_header(net::BufReader& r, Code code) {
    auto type = r.get_u8();
    auto c = r.get_u8();
    return type && c && *type == igmp::kTypePim &&
           *c == static_cast<std::uint8_t>(code);
}

std::uint8_t encode_flags(EntryFlags flags) {
    std::uint8_t out = 0;
    if (flags.wc_bit) out |= kFlagWc;
    if (flags.rp_bit) out |= kFlagRp;
    return out;
}

EntryFlags decode_flags(std::uint8_t bits) {
    return EntryFlags{(bits & kFlagWc) != 0, (bits & kFlagRp) != 0};
}

} // namespace

std::optional<Code> peek_code(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < 2 || bytes[0] != igmp::kTypePim) return std::nullopt;
    if (bytes[1] > static_cast<std::uint8_t>(Code::kCandidateRpAdvertisement) ||
        bytes[1] == kRetiredJoinPruneCode) {
        return std::nullopt;
    }
    return static_cast<Code>(bytes[1]);
}

std::vector<std::uint8_t> Query::encode() const {
    net::BufWriter w(6);
    put_header(w, Code::kQuery);
    w.put_u32(holdtime_ms);
    return w.take();
}

std::optional<Query> Query::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kQuery)) return std::nullopt;
    auto holdtime = r.get_u32();
    if (!holdtime || !r.at_end()) return std::nullopt;
    return Query{*holdtime};
}

std::vector<std::uint8_t> Register::encode() const {
    net::BufWriter w(21 + inner_payload.size());
    put_header(w, Code::kRegister);
    w.put_addr(group);
    w.put_addr(inner_src);
    w.put_u8(inner_ttl);
    w.put_u64(inner_seq);
    w.put_u16(static_cast<std::uint16_t>(inner_payload.size()));
    w.put_bytes(inner_payload);
    return w.take();
}

std::optional<Register> Register::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kRegister)) return std::nullopt;
    Register msg;
    auto group = r.get_addr();
    auto src = r.get_addr();
    auto ttl = r.get_u8();
    auto seq = r.get_u64();
    auto len = r.get_u16();
    if (!group || !src || !ttl || !seq || !len) return std::nullopt;
    auto payload = r.get_bytes(*len);
    if (!payload || !r.at_end()) return std::nullopt;
    msg.group = *group;
    msg.inner_src = *src;
    msg.inner_ttl = *ttl;
    msg.inner_seq = *seq;
    msg.inner_payload = std::move(*payload);
    return msg;
}

std::vector<std::uint8_t> JoinPruneBundle::encode() const {
    std::size_t entries = 0;
    for (const GroupRecord& rec : groups) entries += rec.joins.size() + rec.prunes.size();
    net::BufWriter w(12 + groups.size() * 8 + entries * 5);
    put_header(w, Code::kJoinPruneBundle);
    w.put_addr(upstream_neighbor);
    w.put_u32(holdtime_ms);
    w.put_u16(static_cast<std::uint16_t>(groups.size()));
    for (const GroupRecord& rec : groups) {
        w.put_addr(rec.group);
        w.put_u16(static_cast<std::uint16_t>(rec.joins.size()));
        w.put_u16(static_cast<std::uint16_t>(rec.prunes.size()));
        for (const AddressEntry& e : rec.joins) {
            w.put_addr(e.address);
            w.put_u8(encode_flags(e.flags));
        }
        for (const AddressEntry& e : rec.prunes) {
            w.put_addr(e.address);
            w.put_u8(encode_flags(e.flags));
        }
    }
    return w.take();
}

std::optional<JoinPruneBundle> JoinPruneBundle::decode(
    std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kJoinPruneBundle)) return std::nullopt;
    JoinPruneBundle msg;
    auto upstream = r.get_addr();
    auto holdtime = r.get_u32();
    auto ngroups = r.get_u16();
    if (!upstream || !holdtime || !ngroups) return std::nullopt;
    msg.upstream_neighbor = *upstream;
    msg.holdtime_ms = *holdtime;
    for (std::uint16_t g = 0; g < *ngroups; ++g) {
        GroupRecord rec;
        auto group = r.get_addr();
        auto njoin = r.get_u16();
        auto nprune = r.get_u16();
        if (!group || !njoin || !nprune) return std::nullopt;
        rec.group = *group;
        for (std::uint16_t i = 0; i < *njoin; ++i) {
            auto addr = r.get_addr();
            auto flags = r.get_u8();
            if (!addr || !flags.has_value()) return std::nullopt;
            rec.joins.push_back(AddressEntry{*addr, decode_flags(*flags)});
        }
        for (std::uint16_t i = 0; i < *nprune; ++i) {
            auto addr = r.get_addr();
            auto flags = r.get_u8();
            if (!addr || !flags.has_value()) return std::nullopt;
            rec.prunes.push_back(AddressEntry{*addr, decode_flags(*flags)});
        }
        msg.groups.push_back(std::move(rec));
    }
    if (!r.at_end()) return std::nullopt;
    return msg;
}

std::vector<std::uint8_t> RpReachability::encode() const {
    net::BufWriter w(14);
    put_header(w, Code::kRpReachability);
    w.put_addr(group);
    w.put_addr(rp);
    w.put_u32(holdtime_ms);
    return w.take();
}

std::optional<RpReachability> RpReachability::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kRpReachability)) return std::nullopt;
    auto group = r.get_addr();
    auto rp = r.get_addr();
    auto holdtime = r.get_u32();
    if (!group || !rp || !holdtime || !r.at_end()) return std::nullopt;
    return RpReachability{*group, *rp, *holdtime};
}

std::vector<std::uint8_t> Assert::encode() const {
    net::BufWriter w(15);
    put_header(w, Code::kAssert);
    w.put_addr(group);
    w.put_addr(source);
    w.put_u8(wc_bit ? kFlagWc : 0);
    w.put_u32(metric);
    return w.take();
}

std::optional<Assert> Assert::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kAssert)) return std::nullopt;
    auto group = r.get_addr();
    auto source = r.get_addr();
    auto flags = r.get_u8();
    auto metric = r.get_u32();
    if (!group || !source || !flags.has_value() || !metric || !r.at_end()) {
        return std::nullopt;
    }
    // Only the WC flag is defined; reject unknown bits rather than silently
    // dropping them on the re-encode.
    if ((*flags & ~kFlagWc) != 0) return std::nullopt;
    return Assert{*group, *source, (*flags & kFlagWc) != 0, *metric};
}

std::vector<std::uint8_t> Bootstrap::encode() const {
    net::BufWriter w(13 + rps.size() * 14);
    put_header(w, Code::kBootstrap);
    w.put_addr(bsr);
    w.put_u8(bsr_priority);
    w.put_u32(seq);
    w.put_u16(static_cast<std::uint16_t>(rps.size()));
    for (const RpEntry& e : rps) {
        w.put_addr(e.range.address());
        w.put_u8(static_cast<std::uint8_t>(e.range.length()));
        w.put_addr(e.rp);
        w.put_u8(e.priority);
        w.put_u32(e.holdtime_ms);
    }
    return w.take();
}

std::optional<Bootstrap> Bootstrap::decode(std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kBootstrap)) return std::nullopt;
    Bootstrap msg;
    auto bsr = r.get_addr();
    auto priority = r.get_u8();
    auto seq = r.get_u32();
    auto count = r.get_u16();
    if (!bsr || !priority.has_value() || !seq || !count) return std::nullopt;
    msg.bsr = *bsr;
    msg.bsr_priority = *priority;
    msg.seq = *seq;
    for (std::uint16_t i = 0; i < *count; ++i) {
        auto range_addr = r.get_addr();
        auto range_len = r.get_u8();
        auto rp = r.get_addr();
        auto rp_priority = r.get_u8();
        auto holdtime = r.get_u32();
        if (!range_addr || !range_len.has_value() || !rp ||
            !rp_priority.has_value() || !holdtime) {
            return std::nullopt;
        }
        if (*range_len > 32) return std::nullopt;
        msg.rps.push_back(RpEntry{net::Prefix{*range_addr, *range_len}, *rp,
                                  *rp_priority, *holdtime});
    }
    if (!r.at_end()) return std::nullopt;
    return msg;
}

std::vector<std::uint8_t> CandidateRpAdvertisement::encode() const {
    net::BufWriter w(13 + ranges.size() * 5);
    put_header(w, Code::kCandidateRpAdvertisement);
    w.put_addr(rp);
    w.put_u8(priority);
    w.put_u32(holdtime_ms);
    w.put_u16(static_cast<std::uint16_t>(ranges.size()));
    for (const net::Prefix& range : ranges) {
        w.put_addr(range.address());
        w.put_u8(static_cast<std::uint8_t>(range.length()));
    }
    return w.take();
}

std::optional<CandidateRpAdvertisement> CandidateRpAdvertisement::decode(
    std::span<const std::uint8_t> bytes) {
    net::BufReader r(bytes);
    if (!check_header(r, Code::kCandidateRpAdvertisement)) return std::nullopt;
    CandidateRpAdvertisement msg;
    auto rp = r.get_addr();
    auto priority = r.get_u8();
    auto holdtime = r.get_u32();
    auto count = r.get_u16();
    if (!rp || !priority.has_value() || !holdtime || !count) return std::nullopt;
    msg.rp = *rp;
    msg.priority = *priority;
    msg.holdtime_ms = *holdtime;
    for (std::uint16_t i = 0; i < *count; ++i) {
        auto addr = r.get_addr();
        auto len = r.get_u8();
        if (!addr || !len.has_value() || *len > 32) return std::nullopt;
        msg.ranges.emplace_back(*addr, *len);
    }
    if (!r.at_end()) return std::nullopt;
    return msg;
}

} // namespace pimlib::pim
