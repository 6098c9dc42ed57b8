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
//
// Events and spans are typed records: enums, node ids, addresses and
// counts, with no text. Every name and every detail string is rendered
// here, by the writers (EventLog::dump, detail_text, span_key_text), only
// when something is printed; node names are looked up in the network at
// that point through a NodeNames callback. The only free text a record
// carries is a watchdog violation's note, built only while tracing.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
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
inline constexpr std::size_t kEventTypeCount = 21;
static_assert(static_cast<std::size_t>(EventType::kRpSetChanged) + 1 == kEventTypeCount);

/// The emitting protocol; its label is the `protocol` column and label.
enum class Protocol : std::uint8_t { kPim, kPimDm, kDvmrp, kCbt, kMospf, kIgmp, kWatchdog };
inline constexpr std::size_t kProtocolCount = 7;

/// Which text an event renders where one type has several; kDefault
/// everywhere else. (kJoinSent and kPruneSent pick theirs by protocol.)
enum class Variant : std::uint8_t {
    kDefault,
    kCededDr,           // kDrElected "ceded DR on if=I to A" (default: "became DR …")
    kWildcardAtRp,      // kEntryCreated "(*,G) at RP"
    kWildcard,          // kEntryCreated "(*,G) rp=A"; kEntryExpired "(*,G)"
    kFromNegativeCache, // kEntryCreated "(S,G) src=A from negative cache"
};

[[nodiscard]] const char* to_string(EventType type);
[[nodiscard]] const char* to_string(Protocol protocol);

/// One protocol state transition. The detail fields are typed; which of
/// them a type uses, and how they read, is decided by detail_text alone.
struct Event {
    sim::Time at = 0; // stamped by Hub::emit
    EventType type = EventType::kEntryCreated;
    Protocol protocol = Protocol::kPim;
    Variant variant = Variant::kDefault;
    int node = -1;             // emitting router or host id
    net::GroupAddress group{}; // 0.0.0.0 when not group-scoped
    net::Ipv4Address addr{};   // source, RP, core, BSR, peer or new DR
    net::Ipv4Address addr2{};  // second address: RP, assert rival, next RP
    int ifindex = -1;
    std::uint32_t count = 0;   // entries, BSR priority or LSA sequence
    std::uint32_t count2 = 0;  // LSA group count
    std::uint64_t span = 0;    // causal span id; 0 = none
    std::string note{};        // watchdog violation text; empty elsewhere

    [[nodiscard]] bool has_group() const { return group != net::GroupAddress{}; }
};

/// The detail column of `event` ("src=10.0.1.2 rp=192.168.0.2", …); empty
/// when its type carries none.
[[nodiscard]] std::string detail_text(const Event& event);

/// Resolves a node id to its name at render time (topo::Network::node_names).
using NodeNames = std::function<const std::string&(int node)>;

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

    /// Formatted one-line-per-event dump.
    [[nodiscard]] std::string dump(const NodeNames& names) const;

private:
    bool enabled_ = false;
    std::size_t capacity_ = kDefaultCapacity;
    std::vector<Event> events_;
    std::uint64_t dropped_ = 0;
};

enum class SpanKind : std::uint8_t { kJoinToData, kRpFailover, kSptSwitch };
inline constexpr std::size_t kSpanKindCount = 3;

[[nodiscard]] const char* to_string(SpanKind kind);

/// What a span waits on. join-to-data: (host, group); rp-failover: the
/// group alone (any member's delivery closes it); spt-switch: (router,
/// source, group), opened and closed on that router.
struct SpanKey {
    int node = -1;             // -1: not node-scoped
    net::Ipv4Address source{}; // unspecified: not source-scoped
    net::GroupAddress group{};

    friend auto operator<=>(const SpanKey&, const SpanKey&) = default;
};

/// "H|G", "R|S|G" or "G": the key as World's span list and the timeline
/// print it.
[[nodiscard]] std::string span_key_text(const SpanKey& key, const NodeNames& names);

/// Open/close causal spans keyed by (kind, key); completed spans are
/// observed into `pimlib_control_span_seconds{span=<kind>}` in the bound
/// registry. Re-opening an already-open (kind, key) keeps the original
/// start time (the first cause wins).
class SpanTracker {
public:
    explicit SpanTracker(Registry& registry) : registry_(&registry) {}

    std::uint64_t begin(SpanKind kind, const SpanKey& key, sim::Time now);
    /// Closes the span if open; returns its latency.
    std::optional<sim::Time> end(SpanKind kind, const SpanKey& key, sim::Time now);
    /// Discards an open span without recording it (the awaited effect was
    /// cancelled, e.g. a receiver left before any data arrived).
    void abort(SpanKind kind, const SpanKey& key) { open_.erase({kind, key}); }

    [[nodiscard]] bool is_open(SpanKind kind, const SpanKey& key) const {
        return open_.contains({kind, key});
    }
    [[nodiscard]] std::size_t open_count() const { return open_.size(); }

    struct Completed {
        SpanKind kind = SpanKind::kJoinToData;
        SpanKey key;
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
    std::map<std::pair<SpanKind, SpanKey>, OpenSpan> open_;
    std::vector<Completed> completed_;
    /// Latency histogram per kind, resolved on the kind's first completion
    /// so the exported series keep their first-completion order.
    std::array<Histogram*, kSpanKindCount> latency_{};
    std::uint64_t next_id_ = 1;
};

} // namespace pimlib::telemetry
