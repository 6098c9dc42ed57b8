// Packet provenance: a bounded per-router flight recorder plus typed drop
// accounting, the causal layer under the aggregate telemetry of PR 2.
//
// Every data packet is stamped at origination with a provenance id derived
// from (src, group, seq) — the id survives replication, register/DataEncap
// encapsulation (the decapsulator restamps with the same function) and TTL
// decrements, so one id names one end-to-end packet. Each forwarding
// decision writes a HopRecord (matched MRIB entry kind, RPF verdict,
// SPT/RP bits, the oif fan-out actually used, or a typed DropReason) into
// the router's ring buffer. Post-mortem queries reconstruct paths:
//
//   trace(src, group, dst)  the mtrace-style query — hop path and per-hop
//                           sim-time latency of the last matching packet
//                           delivered to host `dst`
//   dump_json()             merged, time-ordered recorder contents plus
//                           per-router drop aggregates and the packets that
//                           vanished without reaching any host
//
// Recording has one shape: begin() hands out a ring slot with the packet's
// common fields stamped, the hook fills in its decision, commit() counts a
// typed drop. topo::Network::begin_hop is the stack's only caller.
//
// Cost model: with no Recorder attached to the Network, every hook is a
// single pointer test. An attached Recorder always records: appends are
// O(1) into preallocated rings (<8% CPU; bench_runner gates it through
// bench/provenance_overhead). Typed drops also increment labeled
// `pimlib_forward_drops_total{reason=...}` counters in the shared registry.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace pimlib::provenance {

/// Why a data packet was discarded. kNone marks a forwarding record.
enum class DropReason : std::uint8_t {
    kNone = 0,
    kRpfFail,     // arrived on the wrong incoming interface (§3.5 iif check)
    kNegCache,    // matched an RP-bit negative-cache entry with nothing downstream (§3.3)
    kNoOif,       // entry matched on the right iif but its oif list is empty
    kTtl,         // TTL exhausted
    kSegmentLoss, // vanished on the wire (injected or checker-forced loss)
    kNoState,     // no matching entry and the protocol declined to create one
    kAssertLoser, // a non-DR router on the source LAN suppressing duplicates
                  // (the '94 architecture's stand-in for an Assert loser)
    kNoRoute,     // unicast leg (register/encap) had no route to its target
};
inline constexpr std::size_t kDropReasonCount = 9;

/// Stable label for metrics and JSON: "rpf-fail", "neg-cache", ...
[[nodiscard]] const char* drop_reason_label(DropReason reason);

/// What matched (or what stage of the pipeline produced the record).
enum class EntryKind : std::uint8_t {
    kNone = 0,     // no MRIB entry involved (e.g. no-state drops)
    kWildcard,     // (*,G) shared-tree entry
    kSg,           // (S,G) shortest-path entry
    kSgFallbackWc, // (S,G) without SPT bit fell back to (*,G) (§3.5 first exception)
    kNegCache,     // (S,G)RP-bit negative cache
    kTree,         // CBT bidirectional tree state
    kUnicast,      // unicast leg of an encapsulated data packet
    kRegister,     // encapsulated toward the RP / CBT core
    kOrigin,       // source host put the packet on its LAN
    kDeliver,      // member host consumed the packet
};
[[nodiscard]] const char* entry_kind_label(EntryKind kind);

/// Provenance id stamped into net::Packet::pid at origination (and restamped
/// after decapsulation). splitmix64 finalizer over (src, dst, seq); never 0
/// — 0 means "unstamped" (control traffic) and is skipped by the recorder.
[[nodiscard]] std::uint64_t packet_id(net::Ipv4Address src, net::Ipv4Address dst,
                                      std::uint64_t seq);

inline constexpr int kMaxRecordedOifs = 8;

/// One forwarding decision (or discard) at one node. Packed into exactly
/// one cache line on purpose: ring buffers preallocate, appends never
/// allocate, and each append dirties a single line — the recorder's cost
/// is bounded by memory traffic, not CPU (see bench/provenance_overhead).
struct alignas(64) HopRecord {
    std::uint64_t pid = 0;
    sim::Time at = 0;
    /// Recorder-global append index: the merge tiebreaker for same-instant
    /// records (the sim executes same-time events in a deterministic order;
    /// this preserves it across per-node rings).
    std::uint64_t order = 0;
    std::uint64_t seq = 0;
    net::Ipv4Address src;
    net::Ipv4Address group;      // packet.dst
    std::int32_t node = -1;      // topo node id
    std::int16_t iif = -1;       // arrival interface; -1 for decap/origination
    std::int16_t segment = -1;   // segment-loss records: the vanished-on wire
    EntryKind kind = EntryKind::kNone;
    DropReason drop = DropReason::kNone;
    bool rpf_ok = true;
    bool spt_bit = false;
    bool rp_bit = false;
    std::uint8_t ttl = 0;
    std::uint8_t oif_count = 0; // interfaces actually forwarded on
    std::array<std::int8_t, kMaxRecordedOifs> oifs{};

    /// Convenience for call sites building the oif set. Interface indexes
    /// above int8 range are clamped (no router here has >127 interfaces).
    void add_oif(int ifindex) {
        if (oif_count < kMaxRecordedOifs) {
            oifs[oif_count] =
                static_cast<std::int8_t>(ifindex > 127 ? 127 : ifindex);
        }
        ++oif_count;
    }
};
static_assert(sizeof(HopRecord) == 64, "HopRecord must stay one cache line");

/// HopRecords retained per node (the ring overwrites the oldest). 512
/// keeps each ring ~32 KB so steady-state appends cycle through
/// cache-resident memory; much larger rings never wrap in short runs and
/// every append then writes cold lines, which is what pushes the recorder
/// past its <8% CPU budget (see bench/provenance_overhead).
inline constexpr std::size_t kRingCapacity = 512;

/// The flight recorder: per-node bounded rings plus the labeled drop
/// counters. One Recorder serves one Network (attach via
/// topo::Network::set_provenance); hooks check the attachment pointer
/// before paying any recording cost.
class Recorder {
public:
    explicit Recorder(telemetry::Registry& registry);

    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /// Name lookup for traces/dumps; hosts are trace endpoints.
    void register_node(int node_id, std::string name, bool is_host);

    /// The one way to append: returns `node`'s next ring slot, reset to
    /// defaults with the merge order and `packet`'s common fields (pid, src,
    /// group, seq, ttl) stamped at `now`, for the caller to fill its
    /// decision in place. Call commit() after filling so a typed drop lands
    /// in the counters. nullptr for an unstamped packet (pid 0: control
    /// traffic). Defined inline so per-hop call sites pay no cross-TU call.
    [[nodiscard]] HopRecord* begin(int node, const net::Packet& packet, sim::Time now) {
        if (packet.pid == 0 || node < 0) return nullptr;
        const auto id = static_cast<std::size_t>(node);
        if (rings_.size() <= id) rings_.resize(id + 1);
        Ring& ring = rings_[id];
        if (ring.buf.empty()) ring.buf.reserve(kRingCapacity);
        HopRecord* slot;
        if (ring.buf.size() < kRingCapacity) {
            slot = &ring.buf.emplace_back();
        } else {
            slot = &ring.buf[ring.next];
            *slot = HopRecord{};
            ring.next = ring.next + 1 == kRingCapacity ? 0 : ring.next + 1;
        }
        slot->pid = packet.pid;
        slot->at = now;
        slot->order = order_++;
        slot->seq = packet.seq;
        slot->src = packet.src;
        slot->group = packet.dst;
        slot->node = node;
        slot->ttl = packet.ttl;
        ++ring.total;
        return slot;
    }

    /// Closes a begin(): a non-kNone drop increments
    /// pimlib_forward_drops_total{reason=...}.
    void commit(const HopRecord& slot) {
        const auto reason = static_cast<std::size_t>(slot.drop);
        if (reason != 0 && reason < kDropReasonCount) {
            drop_counters_[reason]->inc();
            ++drop_totals_[reason];
        }
    }

    [[nodiscard]] std::uint64_t total_records() const { return order_; }
    [[nodiscard]] std::uint64_t drop_count(DropReason reason) const;

    /// Every retained record for `pid`, time-ordered. Post-mortem use.
    [[nodiscard]] std::vector<HopRecord> records_for(std::uint64_t pid) const;

    /// Every retained record across all rings, merged in (time, order)
    /// order. Offline consumers only (the timeline exporter stitches these
    /// into per-packet hop chains); cost is O(total retained records).
    [[nodiscard]] std::vector<HopRecord> all_records() const;

    struct TraceHop {
        HopRecord rec;
        sim::Time latency = 0; // sim-time since the previous hop
        std::string node_name;
    };
    struct TraceResult {
        bool found = false;
        std::uint64_t pid = 0;
        std::uint64_t seq = 0;
        std::vector<TraceHop> hops;
    };

    /// The mtrace-style query: finds the last packet from `src` to `group`
    /// delivered to host `dst_node` (by registered name) and reconstructs
    /// its full hop path with per-hop sim-time latency.
    [[nodiscard]] TraceResult trace(net::Ipv4Address src, net::Ipv4Address group,
                                    const std::string& dst_node) const;

    /// Human-readable rendering of a trace (mtrace-like, one line per hop).
    [[nodiscard]] std::string format_trace(const TraceResult& result) const;

    /// Merged, time-ordered recorder contents as JSON: {records, drops,
    /// vanished}. `drops` aggregates per (node, reason); `vanished` lists
    /// packets whose last retained record is not a host delivery — with the
    /// node and DropReason (or forwarding oifs) where the trail ends.
    [[nodiscard]] std::string dump_json() const;

    /// One-line per-router drop aggregate ("A rpf-fail x12, ..."), empty
    /// when nothing was dropped. The post-mortem headline.
    [[nodiscard]] std::string drop_summary() const;

    [[nodiscard]] const std::string& node_name(int node_id) const;

private:
    struct Ring {
        std::vector<HopRecord> buf; // size() < capacity while filling
        std::size_t next = 0;       // overwrite cursor once full
        std::uint64_t total = 0;
    };
    struct NodeInfo {
        std::string name;
        bool is_host = false;
    };

    void for_each_record(const std::function<void(const HopRecord&)>& fn) const;
    [[nodiscard]] std::vector<const HopRecord*> merged_records() const;

    telemetry::Registry* registry_;
    std::uint64_t order_ = 0;
    std::array<telemetry::Counter*, kDropReasonCount> drop_counters_{};
    std::array<std::uint64_t, kDropReasonCount> drop_totals_{};
    std::vector<Ring> rings_;     // indexed by node id
    std::vector<NodeInfo> nodes_; // indexed by node id
};

} // namespace pimlib::provenance
