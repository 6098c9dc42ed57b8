#include "telemetry/events.hpp"

#include <cstdio>

namespace pimlib::telemetry {

const char* to_string(EventType type) {
    static constexpr std::array<const char*, kEventTypeCount> kNames{
        "entry-created", "entry-expired", "spt-switch-started", "spt-bit-set",
        "rp-bit-prune", "dr-elected", "register-sent", "register-received",
        "join-sent", "join-received", "prune-sent", "prune-received", "igmp-report",
        "rp-failover", "graft-sent", "lsa-originated", "watchdog-violation",
        "assert-won", "assert-lost", "bsr-elected", "rp-set-changed"};
    return kNames[static_cast<std::size_t>(type)];
}

const char* to_string(Protocol protocol) {
    static constexpr std::array<const char*, kProtocolCount> kNames{
        "pim", "pim-dm", "dvmrp", "cbt", "mospf", "igmp", "watchdog"};
    return kNames[static_cast<std::size_t>(protocol)];
}

const char* to_string(SpanKind kind) {
    static constexpr std::array<const char*, kSpanKindCount> kNames{
        "join-to-data", "rp-failover", "spt-switch"};
    return kNames[static_cast<std::size_t>(kind)];
}

std::string detail_text(const Event& e) {
    const std::string src = "src=" + e.addr.to_string();
    const std::string ifindex = std::to_string(e.ifindex);
    const std::string count = std::to_string(e.count);
    switch (e.type) {
    case EventType::kEntryCreated:
        switch (e.variant) {
        case Variant::kWildcardAtRp: return "(*,G) at RP";
        case Variant::kWildcard: return "(*,G) rp=" + e.addr.to_string();
        case Variant::kFromNegativeCache: return "(S,G) " + src + " from negative cache";
        default: return "(S,G) " + src;
        }
    case EventType::kEntryExpired:
        return e.variant == Variant::kWildcard ? "(*,G)" : "(S,G) " + src;
    case EventType::kSptSwitchStarted:
    case EventType::kSptBitSet:
    case EventType::kRegisterReceived:
    case EventType::kGraftSent: return src;
    case EventType::kRpBitPrune: return src + " if=" + ifindex;
    case EventType::kDrElected:
        return e.variant == Variant::kCededDr
                   ? "ceded DR on if=" + ifindex + " to " + e.addr.to_string()
                   : "became DR on if=" + ifindex + " (neighbor expired)";
    case EventType::kRegisterSent: return src + " rp=" + e.addr2.to_string();
    case EventType::kJoinSent:
        if (e.protocol == Protocol::kCbt) return "core=" + e.addr.to_string();
        return "if=" + ifindex + " entries=" + count;
    case EventType::kPruneSent:
        if (e.protocol != Protocol::kPim) return src;
        return "if=" + ifindex + " entries=" + count;
    case EventType::kJoinReceived:
    case EventType::kPruneReceived: return "from=" + e.addr.to_string();
    case EventType::kIgmpReport: return "join";
    case EventType::kRpFailover:
        return "dead_rp=" + e.addr.to_string() + " next=" + e.addr2.to_string();
    case EventType::kLsaOriginated:
        return "seq=" + count + " groups=" + std::to_string(e.count2);
    case EventType::kWatchdogViolation: return e.note;
    case EventType::kAssertWon:
        return src + " if=" + ifindex + " beat=" + e.addr2.to_string();
    case EventType::kAssertLost:
        return src + " if=" + ifindex + " winner=" + e.addr2.to_string();
    case EventType::kBsrElected: return "bsr=" + e.addr.to_string() + " pri=" + count;
    case EventType::kRpSetChanged: return "entries=" + count + " bsr=" + e.addr.to_string();
    }
    return {};
}

void EventLog::emit(Event event) {
    if (!enabled_) return;
    if (events_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(event));
}

std::string EventLog::dump(const NodeNames& names) const {
    std::string out;
    char line[160];
    for (const Event& e : events_) {
        std::snprintf(line, sizeof(line), "%10.6f  %-18s %-8s %-8s",
                      static_cast<double>(e.at) / sim::kSecond, to_string(e.type),
                      names(e.node).c_str(), to_string(e.protocol));
        out += line;
        if (e.has_group()) {
            out += ' ';
            out += e.group.to_string();
        }
        const std::string detail = detail_text(e);
        if (!detail.empty()) {
            out += "  ";
            out += detail;
        }
        if (e.span != 0) {
            std::snprintf(line, sizeof(line), "  [span %llu]",
                          static_cast<unsigned long long>(e.span));
            out += line;
        }
        out += '\n';
    }
    if (dropped_ > 0) {
        std::snprintf(line, sizeof(line), "... %llu event(s) dropped at capacity\n",
                      static_cast<unsigned long long>(dropped_));
        out += line;
    }
    return out;
}

std::string span_key_text(const SpanKey& key, const NodeNames& names) {
    std::string out;
    if (key.node >= 0) out += names(key.node) + "|";
    if (!key.source.is_unspecified()) out += key.source.to_string() + "|";
    return out + key.group.to_string();
}

std::uint64_t SpanTracker::begin(SpanKind kind, const SpanKey& key, sim::Time now) {
    auto it = open_.find({kind, key});
    if (it != open_.end()) return it->second.id;
    const std::uint64_t id = next_id_++;
    open_.emplace(std::make_pair(kind, key), OpenSpan{id, now});
    return id;
}

std::optional<sim::Time> SpanTracker::end(SpanKind kind, const SpanKey& key, sim::Time now) {
    auto it = open_.find({kind, key});
    if (it == open_.end()) return std::nullopt;
    const OpenSpan span = it->second;
    open_.erase(it);
    const sim::Time latency = now - span.begin;
    completed_.push_back({kind, key, span.begin, now, span.id});
    Histogram*& histogram = latency_[static_cast<std::size_t>(kind)];
    if (histogram == nullptr) {
        // 1 ms .. ~2.3 h in doubling buckets covers everything the simulator
        // plausibly measures; sub-ms latencies land in the first bucket.
        histogram = &registry_->histogram(
            "pimlib_control_span_seconds", Buckets::exponential(0.001, 2.0, 24),
            {{"span", to_string(kind)}}, "End-to-end latency of causal spans, by span kind");
    }
    histogram->observe(static_cast<double>(latency) / sim::kSecond);
    return latency;
}

} // namespace pimlib::telemetry
