// PIM sparse mode — the core protocol of the paper (§3).
//
// One PimSmRouter instance runs on each topo::Router and implements:
//   §3.1  DR behavior when local hosts join (IGMP-driven (*,G) creation)
//   §3.2  shared (RP-rooted) tree setup via explicit joins; RP-reachability
//   §3.3  switching from the shared tree to source-specific shortest-path
//         trees, with the SPT bit and RP-bit prunes (negative caches)
//   §3.4  periodic soft-state refreshes of all join/prune state
//   §3.5  data-packet processing (via mcast::DataPlane, incl. registers)
//   §3.6  per-oif timers, entry deletion at 3 × refresh period
//   §3.7  multi-access LAN procedures: prune to the LAN, join override,
//         suppression of duplicate joins; DR election via PIM Query
//   §3.8  adaptation to unicast routing changes
//   §3.9  multiple RPs: senders register with all, receivers join one and
//         fail over on RP-reachability timeout
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "igmp/router_agent.hpp"
#include "mcast/forwarding_cache.hpp"
#include "pim/messages.hpp"
#include "pim/rp_set.hpp"
#include "sim/simulator.hpp"
#include "topo/router.hpp"

namespace pimlib::pim {

/// When a receiver's DR abandons the shared tree for a source-specific
/// shortest-path tree (§3.3: "a DR may adopt a policy of not setting up an
/// (S,G) entry until it has received m data packets from the source within
/// some interval of n seconds", or "remain on the RP-distribution tree
/// indefinitely").
struct SptPolicy {
    enum class Mode {
        kImmediate, // switch on the first data packet from a new source
        kThreshold, // switch after `packets` packets within `window`
        kNever,     // stay on the shared tree
    };
    Mode mode = Mode::kImmediate;
    int packets = 10;
    sim::Time window = 10 * sim::kSecond;

    static SptPolicy immediate() { return SptPolicy{Mode::kImmediate, 0, 0}; }
    static SptPolicy never() { return SptPolicy{Mode::kNever, 0, 0}; }
    static SptPolicy threshold(int packets, sim::Time window) {
        return SptPolicy{Mode::kThreshold, packets, window};
    }
};

struct PimConfig {
    /// Periodic join/prune refresh (§3.4). Paper-era default 60 s; tests
    /// compress time by scaling everything down together.
    sim::Time join_prune_interval = 60 * sim::kSecond;
    /// How long received join/prune state lives without refresh.
    sim::Time holdtime = 180 * sim::kSecond; // 3 × refresh (§3.6)
    /// PIM Query (hello) interval and neighbor liveness.
    sim::Time query_interval = 30 * sim::kSecond;
    sim::Time neighbor_holdtime = 105 * sim::kSecond;
    /// RP-reachability generation interval and downstream timeout (§3.9).
    sim::Time rp_reachability_interval = 30 * sim::kSecond;
    sim::Time rp_timeout = 90 * sim::kSecond;
    /// LAN procedures (§3.7): joins overheard from peers suppress our own
    /// refresh for up to this long; overheard prunes are overridden after a
    /// small random delay; a prune received on a LAN with >1 downstream
    /// neighbor only takes effect after the override window passes.
    sim::Time join_suppression = 90 * sim::kSecond;
    sim::Time override_delay = 500 * sim::kMillisecond;
    /// How long a LAN forwarder-election (Assert) outcome is remembered per
    /// (interface, source, group) without being re-triggered by duplicate
    /// data. Matches the holdtime convention: 3 × refresh.
    sim::Time assert_holdtime = 180 * sim::kSecond;

    /// Seeded-bug switches for the model checker's mutation gate (pimcheck
    /// --mutate …). Both default off; production behavior is unmodified.
    /// skip-spt-bit-handshake prunes the source off the shared tree the
    /// moment the switchover (S,G) join is sent, instead of waiting for data
    /// to arrive over the SPT — breaking §3.3's make-before-break handshake
    /// and losing in-flight shared-tree packets. no-rp-bit-prune never sends
    /// the (S,G)RP-bit prune (triggered or periodic), so upstream negative
    /// caches are never built and the shared tree keeps carrying the source
    /// redundantly (§3.3).
    bool mutate_skip_spt_bit_handshake = false;
    bool mutate_no_rp_bit_prune = false;
    /// assert-loser-keeps-forwarding records the lost election but skips the
    /// loser's prune action, so both parallel forwarders keep delivering the
    /// same source onto the LAN — the exact duplicate storm the Assert
    /// mechanism exists to stop.
    bool mutate_assert_loser_keeps_forwarding = false;
    /// one-shot-assert sends at most one Assert per (interface, source,
    /// group) election — dropping the resend/reply path that makes the
    /// election robust to losing a single Assert frame. With no loss the
    /// one exchange resolves the election exactly as before; lose the
    /// winner's Assert and the inferior forwarder never learns it lost,
    /// so both keep forwarding onto the LAN (§2.2's duplicate storm).
    bool mutate_one_shot_assert = false;
    /// fragile-rp-holdtime advertises RP-reachability holdtimes of 1.1×
    /// the generation interval instead of the loss-tolerant 3× bound
    /// (§3.4's soft-state rule: state must survive at least one lost
    /// refresh). Every message still arrives → timers never expire; lose
    /// a single RpReachability frame and the member's RP timer fires,
    /// triggering a spurious failover away from a perfectly live RP.
    bool mutate_fragile_rp_holdtime = false;

    /// Uniformly scales every interval (convenience for tests: a factor of
    /// 0.01 turns the 60 s refresh into 0.6 s).
    [[nodiscard]] PimConfig scaled(double factor) const;
};

class PimSmRouter final : public mcast::DataPlane::Delegate {
public:
    PimSmRouter(topo::Router& router, igmp::RouterAgent& igmp, PimConfig config = {});
    ~PimSmRouter() override;

    PimSmRouter(const PimSmRouter&) = delete;
    PimSmRouter& operator=(const PimSmRouter&) = delete;

    [[nodiscard]] RpSet& rp_set() { return rp_set_; }
    [[nodiscard]] mcast::ForwardingCache& cache() { return cache_; }
    [[nodiscard]] const mcast::ForwardingCache& cache() const { return cache_; }
    [[nodiscard]] topo::Router& router() { return *router_; }
    [[nodiscard]] const PimConfig& config() const { return config_; }

    void set_spt_policy(SptPolicy policy) { spt_policy_ = policy; }
    [[nodiscard]] SptPolicy spt_policy() const { return spt_policy_; }

    // --- dense-mode interfaces (§3.1, §4 "interoperation with dense mode
    // regions") ---
    //
    // "The router will flag individual interfaces as dense or sparse mode,
    // to allow differential treatment of different interfaces." A border
    // router flags its domain-facing interface dense; on such an interface
    //   - it acts for the whole region behind it: data arriving from any
    //     source routed via that interface is registered with the RP (the
    //     region's sources are proxied, §4), and
    //   - region membership (delivered out of band, per the paper: "relies
    //     on getting the group member existence information to the border
    //     routers") pins the interface onto the shared tree exactly like a
    //     local IGMP member.
    void set_interface_dense(int ifindex, bool dense);
    [[nodiscard]] bool is_interface_dense(int ifindex) const {
        return dense_ifaces_.contains(ifindex);
    }
    /// Splices region membership onto the shared tree ("border routers send
    /// explicit joins", §4). `present=false` unpins; state then ages out.
    void set_dense_membership(int ifindex, net::GroupAddress group, bool present);

    /// True if this router is one of the RPs for `group`.
    [[nodiscard]] bool is_rp_for(net::GroupAddress group) const;

    /// Receives kBootstrap / kCandidateRpAdvertisement packets. The
    /// bootstrap subsystem (pim/bootstrap) lives outside this class and
    /// registers itself here; without a handler both codes are ignored.
    void set_bootstrap_handler(std::function<void(int, const net::Packet&)> handler) {
        bootstrap_handler_ = std::move(handler);
    }

    /// Re-homes shared trees after the RP set changed: any (*,G) whose RP no
    /// longer appears in the group's (non-empty) mapping fails over to the
    /// current mapping immediately instead of waiting for the RP timer. The
    /// bootstrap subsystem calls this when a BSR update replaces the
    /// dynamic RP set (§3.9 machinery, BSR-triggered).
    void reconcile_rp_mappings();

    /// Simulates a crash+restart: every piece of soft state — forwarding
    /// cache, PIM neighbors, LAN suppression/override/pending-prune state,
    /// SPT counters, RP-side source liveness, register phase — is dropped,
    /// exactly as a real reboot would lose it (§2.7: neighbors' state about
    /// us then ages out at 3× refresh, while we rebuild ours from IGMP
    /// reports and the periodic refresh machinery). Configuration survives:
    /// the RP set, dense-interface flags and region memberships, SPT policy.
    void reboot();

    // --- introspection (tests, examples, benchmarks) ---
    [[nodiscard]] std::vector<net::Ipv4Address> neighbors_on(int ifindex) const;
    /// The elected designated router address on `ifindex` (highest address
    /// among us and our PIM neighbors).
    [[nodiscard]] net::Ipv4Address dr_address_on(int ifindex) const;
    [[nodiscard]] bool is_dr_on(int ifindex) const;
    [[nodiscard]] std::size_t state_entry_count() const { return cache_.size(); }
    /// Sources this RP currently knows to be active for `group` (§3 "PIM
    /// ... does require enumeration of sources").
    [[nodiscard]] std::vector<net::Ipv4Address> active_sources(net::GroupAddress group) const;

    /// Join/Prune messages sent by this router (periodic + triggered);
    /// exposes the §3.7 suppression machinery to tests and benchmarks.
    [[nodiscard]] std::uint64_t join_prune_messages_sent() const {
        return join_prune_sent_;
    }

    // --- mcast::DataPlane::Delegate ---
    void on_no_entry(int ifindex, const net::Packet& packet) override;
    void on_wildcard_forward(int ifindex, const net::Packet& packet) override;
    void on_spt_bit_set(mcast::ForwardingEntry& entry) override;
    void on_iif_check_failed(int ifindex, const net::Packet& packet) override;
    void on_sg_forward(mcast::ForwardingEntry& entry, int ifindex,
                       const net::Packet& packet) override;
    void on_no_downstream(mcast::ForwardingEntry& entry, int ifindex,
                          const net::Packet& packet) override;
    provenance::DropReason classify_iif_drop(int ifindex,
                                             const net::Packet& packet) override;

private:
    struct EntryRef {
        net::Ipv4Address source_or_rp; // RP for wildcard
        net::GroupAddress group;
        bool wildcard;
        friend auto operator<=>(const EntryRef&, const EntryRef&) = default;
    };

    // --- message handling ---
    void on_pim_message(int ifindex, const net::Packet& packet);
    void handle_query(int ifindex, const net::Packet& packet, const Query& query);
    void handle_register(const net::Packet& packet, const Register& reg);
    void handle_join_prune(int ifindex, const net::Packet& packet, const JoinPrune& msg);
    /// Unbundles each group record through handle_join_prune, so aggregated
    /// refreshes hit the exact same join/prune/suppression logic.
    void handle_join_prune_bundle(int ifindex, const net::Packet& packet,
                                  const JoinPruneBundle& msg);
    void handle_rp_reachability(int ifindex, const RpReachability& msg);
    void handle_assert(int ifindex, const net::Packet& packet, const Assert& msg);

    void process_targeted_join(int ifindex, net::GroupAddress group,
                               const AddressEntry& entry, sim::Time holdtime);
    void process_targeted_prune(int ifindex, net::Ipv4Address from,
                                net::GroupAddress group, const AddressEntry& entry);
    void apply_prune(int ifindex, net::GroupAddress group, const AddressEntry& entry);
    void observe_peer_join(int ifindex, const JoinPrune& msg);
    void observe_peer_prune(int ifindex, const JoinPrune& msg);

    // --- membership (IGMP) ---
    void on_membership(int ifindex, net::GroupAddress group, bool present);
    void join_group_as_dr(int ifindex, net::GroupAddress group);
    /// Joins groups with local members but no (*,G) yet — memberships that
    /// arrived before an RP mapping existed or while every RP was unreachable.
    void adopt_pending_memberships();

    // --- tree construction helpers ---
    mcast::ForwardingEntry* establish_wc(net::GroupAddress group, net::Ipv4Address rp);
    mcast::ForwardingEntry& establish_sg(net::Ipv4Address source, net::GroupAddress group);
    void initiate_spt_switch(net::Ipv4Address source, net::GroupAddress group);
    void send_triggered_join(const mcast::ForwardingEntry& entry);
    void send_prune_upstream(const mcast::ForwardingEntry& entry);
    void send_join_prune(int ifindex, std::optional<net::Ipv4Address> upstream,
                         net::GroupAddress group, std::vector<AddressEntry> joins,
                         std::vector<AddressEntry> prunes);
    /// One wire message carrying every group's refresh for (ifindex,
    /// upstream); emits the same per-group telemetry as individual sends.
    void send_join_prune_bundle(int ifindex, net::Ipv4Address upstream,
                                std::vector<JoinPruneBundle::GroupRecord> groups);
    void send_register(const net::Packet& data, net::Ipv4Address rp);
    /// Registers `packet` with the group's RPs if we are the DR of its
    /// directly-connected source and no native (S,G) path exists yet.
    /// `already_forwarded` says the data plane has delivered this packet
    /// locally (prevents a self-RP from duplicating it).
    void maybe_register(int ifindex, const net::Packet& packet, bool already_forwarded);
    /// Typed drop for a packet no MRIB entry matched: kAssertLoser when this
    /// router is a non-DR on the source's own LAN (ceding to the DR),
    /// kNoState otherwise.
    [[nodiscard]] provenance::DropReason classify_no_entry_drop(
        int ifindex, const net::Packet& packet) const;
    [[nodiscard]] AddressEntry join_entry_for(const mcast::ForwardingEntry& entry) const;

    // --- LAN forwarder election (Assert) ---
    //
    // The '94 architecture leaves parallel-forwarder duplicates to DR
    // election; the full per-interface Assert machine (later standardized in
    // RFC 7761 §4.6) resolves them by metric: when a router receives a data
    // packet for (S,G) on an interface it itself forwards that traffic onto,
    // it sends an Assert carrying its route metric toward the tree root.
    // All parallel forwarders compare ranks — SPT forwarders beat RPT
    // forwarders, then lower metric, then higher interface address — and
    // every loser prunes the interface from its oif list. Downstream routers
    // listening on the LAN re-point their upstream (RPF') at the winner.

    /// How this router forwards (S,G) onto `ifindex`, if it does: the
    /// (wc_bit, metric) pair an Assert we originate would carry.
    struct ForwarderRole {
        bool wc = false;          // forwarding via the (*,G) shared tree
        std::uint32_t metric = 0; // unicast metric toward source (or RP if wc)
    };
    [[nodiscard]] std::optional<ForwarderRole> forwarder_role_on(
        int ifindex, net::Ipv4Address source, net::GroupAddress group);
    void send_assert(int ifindex, net::Ipv4Address source, net::GroupAddress group,
                     const ForwarderRole& role);
    /// The losing forwarder's prune: an RPT loser installs an (S,G)RP-bit
    /// negative cache pruned on `ifindex` (other sources keep flowing); an
    /// SPT loser removes the oif outright. Honors the
    /// assert-loser-keeps-forwarding mutation.
    void apply_assert_loss(int ifindex, net::Ipv4Address source,
                           net::GroupAddress group, bool our_wc);
    /// Downstream reaction: entries whose iif is `ifindex` re-point their
    /// upstream neighbor (RPF') at the assert winner and send a triggered
    /// join; a (*,G)-only downstream facing an SPT winner builds the (S,G).
    void retarget_downstream_to_winner(int ifindex, net::Ipv4Address source,
                                       net::GroupAddress group,
                                       net::Ipv4Address winner, bool winner_wc);
    /// A targeted join for (S,G) arriving on `ifindex` cancels our loser
    /// state there (the join picked us as RPF'; RFC 7761 "join overrides
    /// assert").
    void clear_assert_loss(int ifindex, net::Ipv4Address source,
                           net::GroupAddress group);
    [[nodiscard]] bool is_assert_loser(int ifindex, net::Ipv4Address source,
                                       net::GroupAddress group) const;
    void expire_assert_state();

    // --- periodic machinery ---
    void on_refresh_tick();
    void send_periodic_join_prune();
    void expire_soft_state();
    void check_rp_timers();
    void failover_to_alternate_rp(net::GroupAddress group, net::Ipv4Address dead_rp);
    void on_query_tick();
    void send_queries();
    void on_rp_reachability_tick();
    void on_route_change();

    // --- small helpers ---
    [[nodiscard]] int pim_neighbor_count(int ifindex) const;
    [[nodiscard]] std::uint32_t holdtime_ms() const;
    void cancel_pending_prune(const EntryRef& ref, int ifindex);
    [[nodiscard]] static EntryRef ref_of(const mcast::ForwardingEntry& entry);
    mcast::ForwardingEntry* entry_of(const EntryRef& ref);
    [[nodiscard]] net::Ipv4Address primary_reachable_rp(net::GroupAddress group) const;

    topo::Router* router_;
    igmp::RouterAgent* igmp_;
    PimConfig config_;
    SptPolicy spt_policy_ = SptPolicy::immediate();
    RpSet rp_set_;
    mcast::ForwardingCache cache_;
    mcast::DataPlane data_plane_;
    std::mt19937 rng_;

    // neighbors_[ifindex][address] = liveness deadline
    std::map<int, std::map<net::Ipv4Address, sim::Time>> neighbors_;

    // §3.7 LAN state.
    std::map<EntryRef, sim::Time> suppress_until_;
    std::map<std::pair<EntryRef, int>, sim::EventId> pending_prunes_;
    std::set<std::pair<EntryRef, int>> override_scheduled_;

    // §3.3 threshold policy counters per (S,G).
    struct SptCounter {
        int packets = 0;
        sim::Time window_start = 0;
    };
    std::map<std::pair<net::Ipv4Address, net::GroupAddress>, SptCounter> spt_counters_;

    // RP-side source liveness: last register/data per (S,G) where we are RP.
    std::map<std::pair<net::Ipv4Address, net::GroupAddress>, sim::Time> rp_source_active_;

    // Per-(interface, source, group) Assert outcome. Soft state: expires
    // after assert_holdtime, cleared by reboot, cancelled by a targeted
    // (S,G) join on the interface.
    struct AssertKey {
        int ifindex;
        net::Ipv4Address source;
        net::GroupAddress group;
        friend auto operator<=>(const AssertKey&, const AssertKey&) = default;
    };
    struct AssertState {
        net::Ipv4Address winner;      // interface address of the winning forwarder
        bool winner_wc = false;       // winner forwards via the shared tree
        std::uint32_t winner_metric = 0;
        bool we_lost = false;         // we pruned the interface as loser
        sim::Time expires = 0;
        sim::Time last_sent = 0;      // rate limit for our own Assert resends
    };
    std::map<AssertKey, AssertState> asserts_;
    std::function<void(int, const net::Packet&)> bootstrap_handler_;

    // (S,G)s in the register phase at this (source-DR) router: every data
    // packet is encapsulated to the RP(s) until a join arrives (fig. 3).
    using SgKey = std::pair<net::Ipv4Address, net::GroupAddress>;
    std::set<SgKey> registering_;
    /// Incarnation counter: bumped by reboot() so scheduled lambdas that
    /// cannot be cancelled (join overrides) no-op if they fire afterwards.
    std::uint64_t epoch_ = 0;
    std::uint64_t join_prune_sent_ = 0;
    std::set<int> dense_ifaces_;
    /// Region memberships announced via set_dense_membership, so they can be
    /// re-established after RP failover like IGMP memberships are.
    std::map<int, std::set<net::GroupAddress>> dense_members_;

    sim::PeriodicTimer refresh_timer_;
    sim::PeriodicTimer query_timer_;
    sim::PeriodicTimer rp_reach_timer_;
    int rib_token_ = 0;
};

} // namespace pimlib::pim
