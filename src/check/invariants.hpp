// The per-entry iif/RPF invariant oracle, factored out of the offline
// checker so the online watchdog applies the *same* rules to live
// ForwardingEntry state that pimcheck applies to MRIB snapshots — the two
// detectors cannot drift apart.
//
// The rules come straight from the paper:
//   §2.3/§3.8  an entry's iif must agree with the unicast RPF interface
//              toward its root (the source for (S,G), the RP for (*,G))
//   §3         the iif must never appear in the entry's own oif list
//              (unless the entry is bidirectional, as CBT's are)
//   §3.3 fn13  an (S,G)RP-bit negative cache must shadow a live (*,G) and
//              share its iif
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "telemetry/snapshot.hpp"
#include "topo/router.hpp"

namespace pimlib::check {

/// One invariant-oracle failure. `oracle` names the rule (see the table in
/// scenario.hpp); `detail` is a human-readable account of the evidence.
struct Violation {
    std::string oracle;
    std::string detail;
};

/// How often the checker group's data crossed each segment, per (seq,
/// segment id): a flat table indexed by seq (rows grown on demand) and
/// segment id, filled by the scenario driver's packet tap. The oracles
/// visit it in (seq, segment) order.
class Crossings {
public:
    /// Segment ids [0, segments), rows for the seqs below `seqs` up front.
    explicit Crossings(int segments, std::uint64_t seqs = 0)
        : segments_(segments), counts_(cell(seqs, 0)) {
        assert(segments > 0);
    }

    void add(std::uint64_t seq, int segment) {
        assert(segment >= 0 && segment < segments_);
        if (cell(seq, segment) >= counts_.size()) counts_.resize(cell(seq + 1, 0));
        ++counts_[cell(seq, segment)];
    }
    /// 0 where the table has no cell.
    [[nodiscard]] int count(std::uint64_t seq, int segment) const {
        return segment < segments_ && cell(seq, segment) < counts_.size()
                   ? counts_[cell(seq, segment)] : 0;
    }
    /// One past the highest seq with a row.
    [[nodiscard]] std::uint64_t seq_end() const { return counts_.size() / cell(1, 0); }
    [[nodiscard]] int segments() const { return segments_; }

private:
    [[nodiscard]] std::size_t cell(std::uint64_t seq, int segment) const {
        return seq * static_cast<std::size_t>(segments_) + static_cast<std::size_t>(segment);
    }
    int segments_;
    std::vector<int> counts_;
};

/// Bounds shared by the offline oracles. A data packet legitimately
/// crosses a segment once; the register/native overlap of an SPT
/// switchover can add a stray crossing or two — anything past
/// kCrossingBound means the packet is circling. Hosts may see a couple of
/// (source,seq) duplicates during make-before-break switchover; a
/// forwarding loop or failed LAN election blows far past kDuplicateBound.
inline constexpr int kCrossingBound = 4;
inline constexpr std::size_t kDuplicateBound = 6;

/// Protocol-neutral view of one forwarding entry, buildable from either a
/// live mcast::ForwardingEntry or a telemetry::EntrySnapshot.
struct EntryView {
    bool wildcard = false;
    bool rp_bit = false;
    int iif = -1;
    /// The entry's root: source for (S,G), RP for (*,G).
    net::Ipv4Address root{};
    bool root_known = false; // false skips the RPF-agreement check
    /// Oifs currently in the list (live ones for online checks).
    std::vector<int> oifs;
    /// A bidirectional (CBT) entry's iif is a tree interface like its oifs,
    /// so a member LAN on it lists it as an oif too.
    bool bidirectional = false;
};

/// Evaluates one entry against `router`'s unicast RPF state. Returns one
/// human-readable fragment per problem (empty = entry is consistent).
/// `wc_shadow` is the same group's (*,G) entry when one exists — required
/// context for RP-bit negative-cache checks.
[[nodiscard]] std::vector<std::string> entry_iif_problems(
    const topo::Router& router, const EntryView& entry, const EntryView* wc_shadow);

// ---------------------------------------------------------------------------
// Pure oracle functions. Each takes plain evidence (crossing tables, received
// sequence sets, MRIB snapshots) and returns the violations it implies —
// no live network required, so tests/invariants_test.cpp exercises every
// rule against hand-built fixtures without running a scenario.
// ---------------------------------------------------------------------------

/// forwarding-loop: TTL-exhaustion drops, or any (seq, segment) crossing
/// count past kCrossingBound (at most 3 reported).
[[nodiscard]] std::vector<Violation> loop_violations(
    const Crossings& crossings, const std::vector<std::string>& segment_names,
    std::uint64_t ttl_drops);

/// duplicate-bound: a host saw more than kDuplicateBound (source,seq)
/// duplicates over the whole run.
[[nodiscard]] std::vector<Violation> duplicate_bound_violations(
    const std::string& host, std::size_t duplicates);

/// delivery: every sequence in [first_seq, last_seq] reached the host.
[[nodiscard]] std::vector<Violation> delivery_violations(
    const std::string& host, const std::set<std::uint64_t>& got,
    std::uint64_t first_seq, std::uint64_t last_seq);

/// steady-duplicate: zero duplicates in the post-convergence window.
/// `steady_copies` maps steady-window seq -> copies the host received.
[[nodiscard]] std::vector<Violation> steady_duplicate_violations(
    const std::string& host, const std::map<std::uint64_t, int>& steady_copies);

/// steady-redundancy: each steady-state seq in [first_seq, last_seq]
/// crossed exactly `want_total` segments in aggregate.
[[nodiscard]] std::vector<Violation> steady_redundancy_violations(
    const Crossings& crossings, const std::vector<std::string>& segment_names,
    std::uint64_t first_seq, std::uint64_t last_seq, int want_total);

/// assert-winner: each steady seq crossed the contested LAN segment
/// exactly once — the election must leave exactly one forwarder.
[[nodiscard]] std::vector<Violation> assert_winner_violations(
    const Crossings& crossings, int lan_segment, std::uint64_t first_seq,
    std::uint64_t last_seq);

/// rp-set-agreement (stale-RP detector): every live router derives the
/// same non-empty RP list for the group. `derived` maps router name ->
/// the RP list it computes from its learned set.
[[nodiscard]] std::vector<Violation> rp_agreement_violations(
    const std::map<std::string, std::vector<net::Ipv4Address>>& derived,
    const std::string& group);

/// Re-homing / blackhole detector shared by the rp-failover and
/// bsr-failover deadline oracles: every member router in `members` must
/// hold a (*,G) rooted at `want_rp` in the deadline snapshot — a missing
/// (*,G) is a blackhole, a wrong root is a failed (or spurious) failover.
/// `oracle` names the emitting rule; `note` is appended to wrong-root
/// details (e.g. " (primary RP crashed)").
[[nodiscard]] std::vector<Violation> rehoming_violations(
    const std::string& oracle, const telemetry::MribSnapshot& at_deadline,
    const std::vector<std::string>& members, const std::string& want_rp,
    const std::string& note);

} // namespace pimlib::check
