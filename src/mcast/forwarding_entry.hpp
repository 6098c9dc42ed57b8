// Multicast forwarding entries, exactly as §3 of the paper describes them:
// (S,G) entries with incoming interface, outgoing interface list with
// per-interface timers, and the WC (wildcard), RP and SPT bits. A (*,G)
// entry stores the RP address in place of the source and has the WC bit set.
//
// Layout is deliberately flat: the oif list and the pruned-oif set are small
// sorted vectors (routers have a handful of interfaces), so the per-packet
// walk in DataPlane::replicate touches one contiguous run of memory instead
// of chasing red-black tree nodes, and entries arena-allocate cleanly
// (see ForwardingCache). docs/TIMERS.md quantifies why this matters at
// million-entry scale.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/ipv4.hpp"
#include "sim/simulator.hpp"

namespace pimlib::mcast {

/// State of one outgoing interface within a forwarding entry.
struct OifState {
    /// Soft-state expiry (absolute sim time); refreshed by received joins.
    sim::Time expires = 0;
    /// Pinned by directly-connected membership (IGMP); never times out while
    /// pinned — only an explicit membership loss unpins it.
    bool pinned = false;

    [[nodiscard]] bool alive(sim::Time now) const { return pinned || expires > now; }
};

class ForwardingEntry {
public:
    /// Sorted by ifindex; iteration yields (ifindex, state) pairs just like
    /// the std::map this replaced.
    using OifList = std::vector<std::pair<int, OifState>>;

    /// Makes an (S,G) shortest-path-tree entry.
    static ForwardingEntry make_sg(net::Ipv4Address source, net::GroupAddress group);
    /// Makes a (*,G) shared-tree entry; `rp` is stored in the source slot
    /// "in place of the source address" (§3).
    static ForwardingEntry make_wc(net::Ipv4Address rp, net::GroupAddress group);

    [[nodiscard]] net::GroupAddress group() const { return group_; }
    /// The source for (S,G); the RP address for (*,G).
    [[nodiscard]] net::Ipv4Address source_or_rp() const { return source_or_rp_; }

    // --- flags ---
    [[nodiscard]] bool wildcard() const { return wc_bit_; }   // WC bit
    [[nodiscard]] bool rp_bit() const { return rp_bit_; }     // iif faces the RP
    [[nodiscard]] bool spt_bit() const { return spt_bit_; }   // SPT fully set up
    void set_rp_bit(bool v) { rp_bit_ = v; }
    void set_spt_bit(bool v) { spt_bit_ = v; }

    // --- incoming interface ---
    [[nodiscard]] int iif() const { return iif_; }
    void set_iif(int ifindex) { iif_ = ifindex; }
    /// Upstream neighbor to address joins/prunes to (unset = upstream is
    /// directly connected, e.g. the source's or RP's own subnet).
    [[nodiscard]] std::optional<net::Ipv4Address> upstream_neighbor() const {
        return upstream_neighbor_;
    }
    void set_upstream_neighbor(std::optional<net::Ipv4Address> n) {
        upstream_neighbor_ = n;
    }

    // --- outgoing interface list ---
    /// Adds or refreshes `ifindex` with soft-state expiry at `expires`.
    void add_oif(int ifindex, sim::Time expires);
    /// Adds or marks `ifindex` pinned by local membership.
    void pin_oif(int ifindex);
    void unpin_oif(int ifindex);
    /// Refreshes the timer of an existing oif (no-op when absent).
    void refresh_oif(int ifindex, sim::Time expires);
    /// Removes outright (prune or timer expiry).
    void remove_oif(int ifindex);
    [[nodiscard]] bool has_oif(int ifindex) const { return find_oif(ifindex) != nullptr; }
    /// The interface's state, or null when absent.
    [[nodiscard]] const OifState* find_oif(int ifindex) const;
    [[nodiscard]] const OifList& oifs() const { return oifs_; }
    /// Calls `fn(ifindex)` for every interface alive at `now`, allocation
    /// free — this is the data plane's per-packet path.
    template <typename Fn>
    void for_each_live_oif(sim::Time now, Fn&& fn) const {
        for (const auto& [ifindex, state] : oifs_) {
            if (state.alive(now)) fn(ifindex);
        }
    }
    /// Drops oifs whose timers have expired; returns the removed interfaces.
    [[nodiscard]] std::vector<int> expire_oifs(sim::Time now);
    [[nodiscard]] bool oif_list_empty(sim::Time now) const {
        for (const auto& [ifindex, state] : oifs_) {
            if (state.alive(now)) return false;
        }
        return true;
    }

    // --- negative-cache prune state (for (S,G)RP-bit entries, §3.3) ---
    /// Marks `ifindex` pruned for this source on the shared tree: the oif is
    /// removed and remembered so that future (*,G) oif additions skip it.
    void mark_pruned(int ifindex);
    /// A (*,G) join on the interface cancels the prune.
    void clear_pruned(int ifindex);
    [[nodiscard]] bool is_pruned(int ifindex) const;
    [[nodiscard]] const std::vector<int>& pruned_oifs() const { return pruned_oifs_; }

    // --- entry-level soft state ---
    /// Deletion deadline once the oif list went null (3 × refresh, §3.6);
    /// 0 = not scheduled.
    [[nodiscard]] sim::Time delete_at() const { return delete_at_; }
    void set_delete_at(sim::Time t) { delete_at_ = t; }

    /// RP-reachability timer deadline for (*,G) entries (§3.2, §3.9).
    [[nodiscard]] sim::Time rp_timer_deadline() const { return rp_timer_deadline_; }
    void set_rp_timer_deadline(sim::Time t) { rp_timer_deadline_ = t; }

    /// Last time a data packet matched this entry (maintained by the data
    /// plane; lets an RP keep source state alive while data flows, §3.10).
    [[nodiscard]] sim::Time last_data_at() const { return last_data_; }
    void note_data(sim::Time t) { last_data_ = t; }

    [[nodiscard]] std::string describe() const;

private:
    [[nodiscard]] OifList::iterator lower_bound_oif(int ifindex);
    /// Existing state or a fresh default-constructed one, kept sorted.
    OifState& ensure_oif(int ifindex);

    net::GroupAddress group_;
    net::Ipv4Address source_or_rp_;
    bool wc_bit_ = false;
    bool rp_bit_ = false;
    bool spt_bit_ = false;
    int iif_ = -1;
    std::optional<net::Ipv4Address> upstream_neighbor_;
    OifList oifs_;
    std::vector<int> pruned_oifs_; // sorted
    sim::Time delete_at_ = 0;
    sim::Time rp_timer_deadline_ = 0;
    sim::Time last_data_ = 0;
};

// --- structural state hash (the model checker's dedup key, src/check) ---

/// splitmix64 finalizer: the bijective mixer every state hash folds through.
[[nodiscard]] constexpr std::uint64_t state_mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

/// Order-independent digest of a set of interface indexes: add each member
/// once, in any order.
struct IfindexSet {
    std::uint64_t digest = 0;
    void add(int ifindex) {
        digest += state_mix(static_cast<std::uint32_t>(ifindex) + 0x9E3779B97F4A7C15ull);
    }
};

/// An entry's WC, RP and SPT bits.
struct EntryBits {
    bool wildcard = false;
    bool rp = false;
    bool spt = false;
};

/// Hash of one entry's structure: exactly the fields
/// telemetry::EntrySnapshot::signature() renders — source or RP, group,
/// WC/RP/SPT bits, iif, upstream neighbor, oif set (every stored oif,
/// expired-but-unreaped ones too) and pruned set — and no timer. Entries
/// with equal signatures hash equal. Summing these over a cache gives an
/// order-independent cache hash.
[[nodiscard]] std::uint64_t entry_state_hash(net::Ipv4Address source_or_rp,
                                             net::GroupAddress group, EntryBits bits,
                                             int iif,
                                             std::optional<net::Ipv4Address> upstream,
                                             IfindexSet oifs, IfindexSet pruned);

} // namespace pimlib::mcast
