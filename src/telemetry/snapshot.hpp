// Point-in-time captures of every router's multicast forwarding state
// (the MRIB): (*,G) and (S,G) entries with oif lists, per-oif timer
// remaining, and negative caches (RP-bit prunes / pruned oifs).
//
// Snapshots are plain data — the mcast layer fills them in (it knows the
// cache internals); telemetry only stores, renders and diffs them. Diffing
// compares a *structural* signature that deliberately excludes timer
// remaining, so two captures of a stable tree taken seconds apart diff
// empty even though every soft-state timer ticked down in between.
//
// Snapshots serve diffs, dump-state, the checker's deadline oracles and
// its final-state report. The checker's per-checkpoint dedup key is not
// built from them: scenario::StackBase::state_key() hashes the same
// structural fields straight off the live forwarding caches
// (mcast::entry_state_hash), with no string and no sort.
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace pimlib::telemetry {

struct OifSnapshot {
    int ifindex = -1;
    sim::Time remaining = 0; // time until the oif times out (0 = pinned/expired)
    bool pinned = false;
};

struct EntrySnapshot {
    std::string source_or_rp; // the RP address for (*,G) entries
    std::string group;
    bool wildcard = false; // (*,G)
    bool rp_bit = false;
    bool spt_bit = false;
    int iif = -1;
    /// Upstream neighbor joins are addressed to (RPF'); empty when upstream
    /// is directly connected. Part of the structural signature so an assert
    /// retargeting a join shows up in a snapshot diff.
    std::string upstream;
    std::vector<OifSnapshot> oifs;
    std::vector<int> pruned_oifs; // negative cache: interfaces explicitly pruned
    sim::Time delete_in = 0;      // time until the whole entry expires

    /// Stable identity of the entry: "(*,G)" / "(S,G)" plus addresses.
    [[nodiscard]] std::string key() const;
    /// Structural signature: key + flags + iif + oif/pruned sets, timers
    /// excluded. Two entries with equal signatures are "the same tree arm".
    [[nodiscard]] std::string signature() const;
    /// Human-readable one-liner including timer remaining.
    [[nodiscard]] std::string describe() const;
};

struct RouterMrib {
    std::string router;
    std::vector<EntrySnapshot> entries;
};

struct MribSnapshot {
    sim::Time at = 0;
    std::vector<RouterMrib> routers;

    [[nodiscard]] std::size_t entry_count() const;
    [[nodiscard]] std::string to_text() const;
};

/// What changed between two snapshots, keyed "router key". `changed` holds
/// entries present in both whose structural signature differs (flag flip,
/// iif move, oif added/pruned) — pure timer countdown never registers.
struct MribDiff {
    std::vector<std::string> added;
    std::vector<std::string> removed;
    std::vector<std::string> changed;

    [[nodiscard]] bool empty() const {
        return added.empty() && removed.empty() && changed.empty();
    }
    [[nodiscard]] std::string to_text() const;
};

[[nodiscard]] MribDiff diff(const MribSnapshot& before, const MribSnapshot& after);

} // namespace pimlib::telemetry
