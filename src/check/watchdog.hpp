// Online invariant watchdogs: three of pimcheck's oracles lifted into
// cheap incremental monitors that run *during* ordinary simulations, so a
// protocol bug is caught in the scenario where it happens — with a
// provenance post-mortem attached — instead of only under the offline
// state-space checker.
//
//   lan-delivery   per-(host, source, group) sequence-number accounting:
//                  a gap that outlives its grace window is a lost packet
//                  (the skip-spt-bit-handshake failure mode: pruning the
//                  shared-tree arm before SPT data arrives silently drops
//                  the switchover window), and a host's duplicate count
//                  blowing past the checker's bound is a forwarding loop
//                  or a missing prune
//   iif-rpf        budgeted walk over every router's live forwarding
//                  entries applying check::entry_iif_problems — the one
//                  per-entry rule, which pimcheck's iif-consistency
//                  applies to the same caches at the end of a run
//   stale-entry    entries whose delete deadline passed long ago and
//                  RP-bit negative caches that outlived their (*,G):
//                  soft-state leaks that inflate MRIBs forever
//
// Transient states are expected mid-convergence, so structural findings
// (iif-rpf, stale-entry) must be observed in two consecutive passes before
// a violation is raised. Each violation increments
// pimlib_watchdog_violations_total{watchdog=...}, emits a
// kWatchdogViolation event through the hub, and — when a provenance
// recorder is attached — carries the drop summary plus (for the first few)
// the full flight-recorder JSON dump.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mcast/forwarding_cache.hpp"
#include "net/ipv4.hpp"
#include "provenance/provenance.hpp"
#include "sim/simulator.hpp"
#include "topo/network.hpp"

namespace pimlib::check {

/// Labelled "lan-delivery", "iif-rpf", "stale-entry" (WatchdogViolation::watchdog).
enum class WatchdogKind : std::uint8_t { kLanDelivery, kIifRpf, kStaleEntry };
inline constexpr std::size_t kWatchdogKindCount = 3;

struct WatchdogViolation {
    sim::Time at = 0;
    std::string watchdog; // the WatchdogKind's label
    std::string node;
    std::string group;
    std::string detail;
    /// Provenance post-mortem: one-line per-router drop aggregate, and the
    /// merged flight-recorder JSON for the first few findings.
    std::string postmortem_summary;
    std::string postmortem_json;
};

class Watchdog {
public:
    /// Sweeps `caches` (indexed by node id; must outlive the watchdog),
    /// typically scenario::StackBase::caches().
    Watchdog(topo::Network& network, mcast::CacheTable caches);

    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    /// Attaches the flight recorder post-mortems are pulled from (usually
    /// the network's own provenance recorder). Optional.
    void set_recorder(const provenance::Recorder* recorder) { recorder_ = recorder; }

    /// Scenarios that inject loss or faults call this: sequence gaps are
    /// then expected and the lan-delivery gap detector stays quiet
    /// (duplicate and structural checks remain armed).
    void set_loss_expected(bool expected) { loss_expected_ = expected; }
    [[nodiscard]] bool loss_expected() const { return loss_expected_; }

    void start();
    void stop() { timer_.stop(); }

    [[nodiscard]] const std::vector<WatchdogViolation>& violations() const {
        return violations_;
    }
    [[nodiscard]] std::size_t entries_scanned() const { return entries_scanned_total_; }

    /// Human-readable rendering, one block per violation.
    [[nodiscard]] std::string dump() const;

private:
    /// One sweep increment (what the periodic timer runs).
    void tick();
    void raise(WatchdogKind kind, const topo::Node& node, net::GroupAddress group,
               std::string detail);
    void sweep_hosts(sim::Time now);
    void sweep_entries(sim::Time now);
    void check_entry(const topo::Router& router, const mcast::ForwardingCache& cache,
                     const mcast::ForwardingEntry& entry, sim::Time now);
    /// Two-pass confirmation: returns true when `key` was already suspect
    /// in the previous completed sweep (and not yet raised).
    bool confirm(const std::string& key);

    topo::Network* network_;
    const provenance::Recorder* recorder_ = nullptr;
    bool loss_expected_ = false;

    sim::PeriodicTimer timer_;
    std::uint64_t tick_count_ = 0;

    // Budgeted structural sweep state.
    mcast::MribWalk walk_;
    std::uint64_t sweep_ = 0; // completed full sweeps
    /// suspect key → sweep number it was last observed in. Confirmed (and
    /// raised) when seen again in the immediately following sweep.
    std::map<std::string, std::uint64_t> suspects_;
    std::set<std::string> raised_;
    std::size_t entries_scanned_total_ = 0;

    // Per-host delivery accounting. Deliberately O(1) amortised per record
    // with no per-packet allocation: `pending` holds exactly the missing
    // sequence numbers, so any seq at or below max_seq that is not pending
    // must have been delivered before — a duplicate — without keeping a
    // seen-set over the whole stream.
    struct StreamState {
        std::uint64_t anchor = 0;  // first seq observed (no backfill below it)
        std::uint64_t max_seq = 0;
        std::map<std::uint64_t, sim::Time> pending; // missing seq → deadline
        /// Gap tracking was incomplete (loss_expected or the pending cap
        /// overflowed): duplicate counting is disabled for this stream, as
        /// an untracked late arrival is indistinguishable from a repeat.
        bool gaps_untracked = false;
    };
    struct HostState {
        std::size_t cursor = 0; // consumed received() records
        /// Duplicates counted incrementally as records are consumed — a
        /// full Host::duplicate_count() rescan per tick is quadratic.
        std::size_t dupes = 0;
        bool dupes_reported = false;
        std::map<std::pair<net::Ipv4Address, net::GroupAddress>, StreamState> streams;
    };
    std::vector<HostState> host_state_; // indexed like Network::hosts()

    /// pimlib_watchdog_violations_total{watchdog} per WatchdogKind.
    std::array<telemetry::Counter*, kWatchdogKindCount> violations_total_{};
    std::size_t postmortems_emitted_ = 0;

    std::vector<WatchdogViolation> violations_;
};

} // namespace pimlib::check
