#include "telemetry/events.hpp"

#include <cstdio>

namespace pimlib::telemetry {

const char* to_string(EventType type) {
    switch (type) {
    case EventType::kEntryCreated: return "entry-created";
    case EventType::kEntryExpired: return "entry-expired";
    case EventType::kSptSwitchStarted: return "spt-switch-started";
    case EventType::kSptBitSet: return "spt-bit-set";
    case EventType::kRpBitPrune: return "rp-bit-prune";
    case EventType::kDrElected: return "dr-elected";
    case EventType::kRegisterSent: return "register-sent";
    case EventType::kRegisterReceived: return "register-received";
    case EventType::kJoinSent: return "join-sent";
    case EventType::kJoinReceived: return "join-received";
    case EventType::kPruneSent: return "prune-sent";
    case EventType::kPruneReceived: return "prune-received";
    case EventType::kIgmpReport: return "igmp-report";
    case EventType::kRpFailover: return "rp-failover";
    case EventType::kGraftSent: return "graft-sent";
    case EventType::kLsaOriginated: return "lsa-originated";
    case EventType::kWatchdogViolation: return "watchdog-violation";
    case EventType::kAssertWon: return "assert-won";
    case EventType::kAssertLost: return "assert-lost";
    case EventType::kBsrElected: return "bsr-elected";
    case EventType::kRpSetChanged: return "rp-set-changed";
    }
    return "unknown";
}

void EventLog::emit(Event event) {
    if (!enabled_) return;
    if (events_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(event));
}

std::string EventLog::dump(const std::function<bool(const Event&)>& filter) const {
    std::string out;
    char line[160];
    for (const Event& e : events_) {
        if (filter && !filter(e)) continue;
        std::snprintf(line, sizeof(line), "%10.6f  %-18s %-8s %-8s",
                      static_cast<double>(e.at) / sim::kSecond, to_string(e.type),
                      e.node.c_str(), e.protocol.c_str());
        out += line;
        if (!e.group.empty()) {
            out += ' ';
            out += e.group;
        }
        if (!e.detail.empty()) {
            out += "  ";
            out += e.detail;
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

std::uint64_t SpanTracker::begin(const std::string& kind, const std::string& key,
                                 sim::Time now) {
    auto it = open_.find({kind, key});
    if (it != open_.end()) return it->second.id;
    const std::uint64_t id = next_id_++;
    open_.emplace(std::make_pair(kind, key), OpenSpan{id, now});
    return id;
}

std::optional<sim::Time> SpanTracker::end(const std::string& kind,
                                          const std::string& key, sim::Time now) {
    auto it = open_.find({kind, key});
    if (it == open_.end()) return std::nullopt;
    const OpenSpan span = it->second;
    open_.erase(it);
    const sim::Time latency = now - span.begin;
    completed_.push_back({kind, key, span.begin, now, span.id});
    // 1 ms .. ~2.3 h in doubling buckets covers everything the simulator
    // plausibly measures; sub-ms latencies land in the first bucket.
    registry_
        ->histogram("pimlib_control_span_seconds",
                    Buckets::exponential(0.001, 2.0, 24), {{"span", kind}},
                    "End-to-end latency of causal spans, by span kind")
        .observe(static_cast<double>(latency) / sim::kSecond);
    return latency;
}

} // namespace pimlib::telemetry
