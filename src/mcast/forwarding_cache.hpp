// Per-router multicast forwarding cache plus the shared data-plane engine
// implementing the forwarding rules of §3.5, including both SPT-bit
// transition exceptions. It is the one forwarding engine: all five
// protocols in this library (PIM-SM, PIM-DM, DVMRP, CBT, MOSPF) keep their
// entries here and react to the delegate callbacks. CBT's per-group
// bidirectional tree is a (*,G) entry with the bidirectional flag set.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mcast/forwarding_entry.hpp"
#include "net/packet.hpp"
#include "provenance/provenance.hpp"
#include "sim/arena.hpp"
#include "telemetry/snapshot.hpp"
#include "topo/router.hpp"

namespace pimlib::mcast {

class ForwardingCache {
public:
    using SgKey = std::pair<net::Ipv4Address, net::GroupAddress>;

    [[nodiscard]] ForwardingEntry* find_sg(net::Ipv4Address source, net::GroupAddress group);
    [[nodiscard]] const ForwardingEntry* find_sg(net::Ipv4Address source,
                                                 net::GroupAddress group) const;
    [[nodiscard]] ForwardingEntry* find_wc(net::GroupAddress group);
    [[nodiscard]] const ForwardingEntry* find_wc(net::GroupAddress group) const;

    /// Creates (or returns the existing) entry.
    ForwardingEntry& ensure_sg(net::Ipv4Address source, net::GroupAddress group);
    ForwardingEntry& ensure_wc(net::Ipv4Address rp, net::GroupAddress group);

    void remove_sg(net::Ipv4Address source, net::GroupAddress group);
    void remove_wc(net::GroupAddress group);
    /// Drops every entry — what a router crash does to its MFC.
    void clear();

    [[nodiscard]] std::size_t size() const { return sg_.size() + wc_.size(); }
    [[nodiscard]] std::size_t sg_count() const { return sg_.size(); }
    [[nodiscard]] std::size_t wc_count() const { return wc_.size(); }

    /// Iteration helpers, in key order. The callback may mutate the entry
    /// but must not add or remove entries: the indexes are vectors, so an
    /// insert or erase would invalidate the walk.
    void for_each_sg(const std::function<void(ForwardingEntry&)>& fn);
    void for_each_wc(const std::function<void(ForwardingEntry&)>& fn);
    /// (S,G) entries for one group.
    void for_each_sg_of(net::GroupAddress group,
                        const std::function<void(ForwardingEntry&)>& fn);
    void for_each_sg_of(net::GroupAddress group,
                        const std::function<void(const ForwardingEntry&)>& fn) const;
    /// Collects (S,G) keys scheduled for deletion at or before `now`, plus
    /// removes them. Returns the removed keys.
    std::vector<SgKey> reap_expired_entries(sim::Time now);

    /// Resumable cursor for visit_entries(). Holds the last visited *key*,
    /// not an iterator, so entries may be added or removed between calls —
    /// the walk resumes at the next key still present.
    struct VisitCursor {
        bool on_sg = false;   // walking the (*,G) index first, then (S,G)
        bool have_key = false;
        net::GroupAddress wc_after{};
        SgKey sg_after{};
        /// Set when the previous call reached the end of both indexes (the
        /// cursor is simultaneously reset to the start). One full pass.
        bool wrapped = false;
    };

    /// Budgeted iteration for incremental walkers (tree monitor, watchdogs):
    /// visits up to `budget` entries in deterministic index order — (*,G)
    /// first, then (S,G) — resuming after the cursor's last key, and
    /// advances the cursor. Returns the number visited; on reaching the end
    /// the cursor resets to the start with `wrapped` set, so million-entry
    /// caches are covered across many calls without ever paying a full scan
    /// in one tick.
    std::size_t visit_entries(VisitCursor& cursor, std::size_t budget,
                              const std::function<void(const ForwardingEntry&)>& fn) const;

    /// Captures the whole cache as telemetry plain-data — (*,G) entries
    /// first, then (S,G) — with per-oif timer remaining rendered relative
    /// to `now`. Every protocol's MRIB snapshot goes through here.
    [[nodiscard]] telemetry::RouterMrib snapshot(const std::string& router_name,
                                                 sim::Time now) const;

    /// Sum of every entry's entry_state_hash(): equal for caches whose snapshots
    /// diff empty, independent of entry order, no timer, no allocation.
    /// The checker's per-router dedup key (scenario::StackBase::state_key).
    [[nodiscard]] std::uint64_t structural_hash() const;

private:
    template <typename Key>
    using Index = std::vector<std::pair<Key, ForwardingEntry*>>;

    /// Position of `key` in `index` (const or not), or where it would go.
    template <typename IndexT, typename Key>
    [[nodiscard]] static auto lower(IndexT& index, const Key& key) {
        return std::lower_bound(index.begin(), index.end(), key,
                                [](const auto& slot, const Key& k) { return slot.first < k; });
    }
    /// The entry under `key`, or nullptr.
    template <typename Key>
    [[nodiscard]] static ForwardingEntry* find_in(const Index<Key>& index, const Key& key) {
        auto it = lower(index, key);
        return it != index.end() && it->first == key ? it->second : nullptr;
    }

    // Entries live in a slab arena (stable addresses, recycled slots, no
    // per-entry heap churn at million-entry scale). The indexes over it are
    // key-sorted vectors: a lookup is a binary search over contiguous
    // memory, and iteration in key order keeps snapshot()/for_each
    // deterministic for pimcheck replay hashing. An insert or erase moves
    // the tail; the largest per-router cache in any workload is a few
    // hundred entries, a memmove of a few KB.
    sim::Arena<ForwardingEntry> arena_;
    Index<SgKey> sg_;
    Index<net::GroupAddress> wc_;
};

/// Every router's forwarding cache, indexed by node id; nullptr for a node
/// without one (hosts, routers no stack recorded). Router ids ascend in
/// topo::Network::routers() order, so index order is router order.
/// scenario::StackBase::caches() is the one producer.
using CacheTable = std::span<const ForwardingCache* const>;

/// The budgeted walk over every cache of a CacheTable that the tree monitor
/// and the invariant watchdog each step on their own cadence: a router
/// cursor plus the current cache's VisitCursor, so a pass over a
/// million-entry MRIB spreads across many steps.
class MribWalk {
public:
    using Visitor =
        std::function<void(int node_id, const ForwardingCache&, const ForwardingEntry&)>;

    explicit MribWalk(CacheTable caches) : caches_(caches) {}

    /// `node_id`'s cache, or nullptr.
    [[nodiscard]] const ForwardingCache* cache(int node_id) const {
        const auto id = static_cast<std::size_t>(node_id);
        return node_id >= 0 && id < caches_.size() ? caches_[id] : nullptr;
    }

    /// Visits up to `budget` entries, resuming where the last step stopped:
    /// router by router in node-id order, each cache in visit_entries order.
    /// A null or empty cache costs no budget. Returns true when this step
    /// finished a pass and rewound to the first router. The pass finishes
    /// only with budget left over, so one whose last entry takes the last
    /// unit of budget finishes at the start of the next step.
    bool step(std::size_t budget, const Visitor& visit);

private:
    CacheTable caches_;
    std::size_t node_ = 0;
    ForwardingCache::VisitCursor cursor_;
};

/// Data-plane engine: receives every non-link-local multicast packet the
/// router hears, applies the §3.5 rules against the cache, replicates out
/// the live oifs, and reports interesting conditions to the delegate
/// (the control-plane protocol).
class DataPlane : public topo::MulticastDataHandler {
public:
    class Delegate {
    public:
        virtual ~Delegate() = default;
        /// No (S,G) and no (*,G) matched, or a bidirectional (*,G) matched
        /// on an interface off its tree. Dense-mode protocols flood from
        /// here; a PIM-SM DR for the source registers from here, and a CBT
        /// DR encapsulates toward the core.
        virtual void on_no_entry(int ifindex, const net::Packet& packet) { (void)ifindex; (void)packet; }
        /// Packet was forwarded using the (*,G) entry (shared tree). Gives
        /// the DR the §3.3 trigger: data from a source it has no (S,G) for.
        virtual void on_wildcard_forward(int ifindex, const net::Packet& packet) { (void)ifindex; (void)packet; }
        /// The SPT bit of `entry` transitioned 0→1 because data arrived on
        /// the shortest-path iif (§3.3/§3.5 second exception).
        virtual void on_spt_bit_set(ForwardingEntry& entry) { (void)entry; }
        /// Incoming-interface check failed (packet dropped).
        virtual void on_iif_check_failed(int ifindex, const net::Packet& packet) { (void)ifindex; (void)packet; }
        /// Lets the protocol refine the drop reason recorded for an
        /// iif-check failure — e.g. a LAN assert loser hearing the winner's
        /// copy reports kAssertLoser instead of a generic RPF failure.
        virtual provenance::DropReason classify_iif_drop(int ifindex,
                                                         const net::Packet& packet) {
            (void)ifindex;
            (void)packet;
            return provenance::DropReason::kRpfFail;
        }
        /// Data was forwarded via a genuine (S,G) match (normal path or the
        /// second SPT-bit exception). Lets a source DR keep registering
        /// until the RP's join arrives.
        virtual void on_sg_forward(ForwardingEntry& entry, int ifindex,
                                   const net::Packet& packet) {
            (void)entry;
            (void)ifindex;
            (void)packet;
        }
        /// Data matched an (S,G) entry whose live oif list is empty — the
        /// router is a pruned leaf still receiving traffic. Dense-mode
        /// protocols answer with a (rate-limited) prune refresh upstream; a
        /// PIM-SM source DR resumes the register phase.
        virtual void on_no_downstream(ForwardingEntry& entry, int ifindex,
                                      const net::Packet& packet) {
            (void)entry;
            (void)ifindex;
            (void)packet;
        }
    };

    DataPlane(topo::Router& router, ForwardingCache& cache);

    void set_delegate(Delegate* delegate) { delegate_ = delegate; }

    void on_multicast_data(int ifindex, const net::Packet& packet) override;

    /// The one forward call: sends `packet` out every live oif of `entry`
    /// except `ifindex` and records the decision in the same walk — the
    /// oifs captured are exactly the interfaces sent on. `kind` names which
    /// MRIB entry matched; an empty oif set or an expiring TTL is counted
    /// and recorded as the matching drop. Protocols that forward outside
    /// on_multicast_data (dense-mode floods, the RP forwarding
    /// register-decapsulated data down the shared tree, the CBT core
    /// injecting decapsulated data into its tree) call it too.
    void forward_recorded(const ForwardingEntry& entry, int ifindex,
                          const net::Packet& packet, provenance::EntryKind kind);

    /// Records a decision at this router that sends nothing natively: a
    /// typed `drop`, or a kRegister hand-off to the encapsulation path.
    /// `entry` (may be null) supplies the SPT/RP bits. Counts the drop
    /// always; records nothing without a recorder or for unstamped packets,
    /// so call sites need no guard.
    void record_hop(int ifindex, const net::Packet& packet, const ForwardingEntry* entry,
                    provenance::EntryKind kind, bool rpf_ok, provenance::DropReason drop);

    [[nodiscard]] ForwardingCache& cache() { return *cache_; }
    [[nodiscard]] topo::Router& router() { return *router_; }

private:
    /// Sends one TTL-decremented copy of `packet` on each live oif of
    /// `entry` except `ifindex`, appending each oif sent on to `hop` (null
    /// when nothing is recorded). A bidirectional entry sends on its iif
    /// too, in ascending ifindex order with the oifs and at most once.
    /// Returns how many copies it sent.
    int replicate(const ForwardingEntry& entry, int ifindex, const net::Packet& packet,
                  provenance::HopRecord* hop);
    /// The iif check failed against `entry`: counts and records the drop
    /// (its reason refined by the delegate) and tells the delegate.
    void drop_wrong_iif(int ifindex, const net::Packet& packet, const ForwardingEntry& entry,
                        provenance::EntryKind kind);

    topo::Router* router_;
    ForwardingCache* cache_;
    Delegate* delegate_ = nullptr;
};

} // namespace pimlib::mcast
