// Structured event log of protocol state transitions, plus causal spans.
//
// Packet traces (src/trace) show what crossed the wire; this log shows what
// each protocol *decided* — entry create/expire, SPT-bit flips, RP-bit
// prunes, DR elections, register/join/prune send+receive — each event
// stamped with sim-time and the emitting node. The systematic-testing work
// on multicast protocols (Helmy/Estrin/Gupta) argues that exactly this
// protocol-state visibility is what makes error scenarios analyzable.
//
// Spans tie cause to effect across nodes: open a span at the cause (IGMP
// report sent, RP failover initiated, SPT switch initiated) and close it at
// the effect (first data packet delivered, SPT bit set). Every completed
// span is observed into a `pimlib_control_span_seconds{span=<kind>}`
// histogram, so end-to-end latencies fall out of `dump-metrics` for free.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace pimlib::telemetry {

enum class EventType : std::uint8_t {
    kEntryCreated,      // (*,G) or (S,G) forwarding entry installed
    kEntryExpired,      // entry deleted by soft-state timeout
    kSptSwitchStarted,  // DR initiated the shared-tree → SPT switch (§3.3)
    kSptBitSet,         // data arrived on the SPT iif; SPT bit 0→1 (§3.5)
    kRpBitPrune,        // negative-cache prune installed (§3.3)
    kDrElected,         // designated-router identity changed (§3.7)
    kRegisterSent,      // source DR encapsulated data to an RP (§3.2)
    kRegisterReceived,  // RP decapsulated a register
    kJoinSent,          // join list sent upstream (periodic or triggered)
    kJoinReceived,      // targeted join processed
    kPruneSent,         // prune list sent upstream
    kPruneReceived,     // targeted prune processed
    kIgmpReport,        // host expressed interest in a group (§2.1)
    kRpFailover,        // DR timed out its RP and re-joined an alternate (§3.9)
    kGraftSent,         // dense-mode graft (PIM-DM / DVMRP)
    kLsaOriginated,     // MOSPF membership LSA flooded
    kWatchdogViolation, // online invariant watchdog raised a violation
    kAssertWon,         // this router won a LAN forwarder assert
    kAssertLost,        // this router lost a LAN forwarder assert and pruned
    kBsrElected,        // this router's view of the elected BSR changed
    kRpSetChanged,      // BSR-learned dynamic RP-set changed on this router
};

[[nodiscard]] const char* to_string(EventType type);

struct Event {
    sim::Time at = 0;
    EventType type = EventType::kEntryCreated;
    std::string node;     // emitting router or host
    std::string protocol; // "pim", "pim-dm", "dvmrp", "cbt", "mospf", "igmp"
    std::string group;    // empty when not group-scoped
    std::string detail;   // free text: source, interface, counts …
    std::uint64_t span = 0; // causal span id; 0 = none
};

/// Append-only, bounded event log. Disabled by default (zero cost beyond a
/// branch); when the capacity is hit, new events are dropped and counted so
/// truncation is never silent.
class EventLog {
public:
    static constexpr std::size_t kDefaultCapacity = 65536;

    void set_enabled(bool enabled) { enabled_ = enabled; }
    [[nodiscard]] bool enabled() const { return enabled_; }
    void set_capacity(std::size_t capacity) { capacity_ = capacity; }

    void emit(Event event);

    [[nodiscard]] const std::vector<Event>& events() const { return events_; }
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

    /// Formatted one-line-per-event dump, optionally filtered.
    [[nodiscard]] std::string dump(
        const std::function<bool(const Event&)>& filter = {}) const;

private:
    bool enabled_ = false;
    std::size_t capacity_ = kDefaultCapacity;
    std::vector<Event> events_;
    std::uint64_t dropped_ = 0;
};

/// Open/close causal spans keyed by (kind, key); completed spans are
/// observed into `pimlib_control_span_seconds{span=<kind>}` in the bound
/// registry. Re-opening an already-open (kind, key) keeps the original
/// start time (the first cause wins).
class SpanTracker {
public:
    explicit SpanTracker(Registry& registry) : registry_(&registry) {}

    std::uint64_t begin(const std::string& kind, const std::string& key,
                        sim::Time now);
    /// Closes the span if open; returns its latency.
    std::optional<sim::Time> end(const std::string& kind, const std::string& key,
                                 sim::Time now);
    /// Discards an open span without recording it (the awaited effect was
    /// cancelled, e.g. a receiver left before any data arrived).
    void abort(const std::string& kind, const std::string& key) {
        open_.erase({kind, key});
    }

    [[nodiscard]] bool is_open(const std::string& kind, const std::string& key) const {
        return open_.contains({kind, key});
    }
    [[nodiscard]] std::size_t open_count() const { return open_.size(); }

    struct Completed {
        std::string kind;
        std::string key;
        sim::Time begin = 0;
        sim::Time end = 0;
        std::uint64_t id = 0;
        [[nodiscard]] sim::Time latency() const { return end - begin; }
    };
    [[nodiscard]] const std::vector<Completed>& completed() const { return completed_; }

private:
    struct OpenSpan {
        std::uint64_t id;
        sim::Time begin;
    };
    Registry* registry_;
    std::map<std::pair<std::string, std::string>, OpenSpan> open_;
    std::vector<Completed> completed_;
    std::uint64_t next_id_ = 1;
};

} // namespace pimlib::telemetry
