#include "check/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "check/invariants.hpp"
#include "check/watchdog.hpp"
#include "fault/fault_injector.hpp"
#include "mcast/forwarding_entry.hpp"
#include "provenance/provenance.hpp"
#include "stats/counters.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "topo/host.hpp"
#include "topo/network.hpp"
#include "topo/router.hpp"
#include "topo/segment.hpp"
#include "trace/timeline.hpp"
#include "trace/tracer.hpp"

namespace pimlib::check {

// The scripts in src/check/scenarios/, embedded by src/CMakeLists.txt in
// scenario_names() order.
extern const std::pair<std::string_view, std::string_view> kEmbeddedScenarios[];
extern const std::size_t kEmbeddedScenarioCount;

namespace {

constexpr sim::Time kMs = sim::kMillisecond;

// Convergence probes after stimuli stop: one join/prune interval each.
constexpr int kConvergenceProbes = 12;

void add_violation(RunResult& out, std::string oracle, std::string detail) {
    out.violations.push_back(Violation{std::move(oracle), std::move(detail)});
}

/// Dedup key for an explored state. This is a timed protocol, so the
/// global state is (clock, configuration): two branches that reach the
/// same MRIB structure at different points of the schedule are different
/// states — one of them still has timers and in-flight messages the other
/// has already consumed. splitmix64 finalizer over both.
std::uint64_t timed_state_key(sim::Time t, std::uint64_t structural) {
    return mcast::state_mix(static_cast<std::uint64_t>(t) * 0x9E3779B97F4A7C15ull ^
                            structural);
}

void append(RunResult& out, std::vector<Violation> found) {
    for (Violation& v : found) out.violations.push_back(std::move(v));
}

/// Snapshot → protocol-neutral view for the shared per-entry oracle.
EntryView entry_view(const telemetry::EntrySnapshot& e) {
    EntryView view;
    view.wildcard = e.wildcard;
    view.rp_bit = e.rp_bit;
    view.iif = e.iif;
    if (const auto root = net::Ipv4Address::parse(e.source_or_rp)) {
        view.root = *root;
        view.root_known = true;
    }
    for (const telemetry::OifSnapshot& oif : e.oifs) view.oifs.push_back(oif.ifindex);
    return view;
}

/// Every surviving entry's iif must agree with the unicast RPF oracle
/// toward its root, an RP-bit entry must shadow a live (*,G) (footnote 13),
/// and no entry may list its own iif as an oif. The per-entry rules live in
/// check/invariants.hpp, shared with the online iif-rpf watchdog.
void check_iif_consistency(RunResult& out, const telemetry::MribSnapshot& snap,
                           scenario::World& world) {
    for (const telemetry::RouterMrib& r : snap.routers) {
        const topo::Router& router = world.router(r.router);
        if (world.faults().is_crashed(router)) continue;
        for (const telemetry::EntrySnapshot& e : r.entries) {
            const EntryView view = entry_view(e);
            EntryView shadow;
            bool has_shadow = false;
            if (!e.wildcard && e.rp_bit) {
                for (const telemetry::EntrySnapshot& other : r.entries) {
                    if (other.wildcard && other.group == e.group) {
                        shadow = entry_view(other);
                        has_shadow = true;
                    }
                }
            }
            for (const std::string& problem : entry_iif_problems(
                     router, view, has_shadow ? &shadow : nullptr)) {
                add_violation(out, "iif-consistency",
                              r.router + " " + e.key() + ": " + problem);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scenarios: embedded scripts, parsed once per process
// ---------------------------------------------------------------------------

/// Oracles judged only on clean branches (no forced loss, no fault).
const std::set<std::string> kCleanOracles = {"delivery", "steady-redundancy",
                                             "steady-iif", "assert-winner"};
/// Oracles judged on the state captured at the horizon.
const std::set<std::string> kDeadlineOracles = {"rp-failover", "bsr-rp-rehoming",
                                                "exactly-one-bsr", "rp-set-agreement"};

/// A checker scenario: its parsed script plus what the oracles read from it.
struct Scenario {
    scenario::Script script;
    ScenarioInfo info;
    std::vector<std::string> segment_names; // by segment id
    std::vector<std::string> members;       // joined hosts, first-join order
    std::string source;                     // the data source host, "" if none
    net::GroupAddress group{};              // the joined group
    std::uint64_t seq_count = 0;            // packets the source sends

    /// The first sequence number the source sends at or after `from`.
    [[nodiscard]] std::uint64_t first_seq_from(sim::Time from) const {
        std::uint64_t seq = 1;
        for (const scenario::Action& a : script.actions) {
            if (a.verb != "send" || a.args[0] != source) continue;
            for (int i = 0; i < a.count; ++i) {
                if (a.at + i * a.interval < from) ++seq;
            }
        }
        return seq;
    }
};

Scenario load(std::string_view name, std::string_view text) {
    Scenario sc;
    sc.script = scenario::parse_script(text);
    const scenario::Script& s = sc.script;
    for (const scenario::OracleSpec& o : s.oracles) {
        if (!kCleanOracles.contains(o.name) && !kDeadlineOracles.contains(o.name)) {
            throw std::runtime_error(std::string(name) + " line " +
                                     std::to_string(o.line) + ": unknown oracle '" +
                                     o.name + "'");
        }
    }
    for (const scenario::Action& a : s.actions) {
        if (a.verb == "join" &&
            std::find(sc.members.begin(), sc.members.end(), a.args[0]) == sc.members.end()) {
            if (sc.members.empty()) sc.group = a.group;
            sc.members.push_back(a.args[0]);
        } else if (a.verb == "send") {
            if (sc.source.empty()) sc.source = a.args[0];
            if (a.args[0] == sc.source) sc.seq_count += static_cast<std::uint64_t>(a.count);
        }
    }

    // One throwaway world names the segments and finds the member routers.
    scenario::World world(s);
    sc.info.name = std::string(name);
    sc.info.segments = world.segments();
    sc.info.fault_slots = s.fault_slots;
    sc.info.horizon = s.horizon;
    for (const scenario::SegmentInfo& seg : sc.info.segments) {
        sc.segment_names.push_back(seg.name);
    }
    // Member routers: the routers on each joined host's LAN.
    std::vector<std::string>& routers = sc.info.member_routers;
    for (const std::string& member : sc.members) {
        for (const topo::Interface& iface : world.host(member).interfaces()) {
            for (const std::string& r : sc.info.segments[static_cast<std::size_t>(iface.segment->id())].routers) {
                if (std::find(routers.begin(), routers.end(), r) == routers.end()) routers.push_back(r);
            }
        }
    }
    return sc;
}

const std::vector<Scenario>& scenarios() {
    static const std::vector<Scenario> all = [] {
        std::vector<Scenario> v;
        for (std::size_t i = 0; i < kEmbeddedScenarioCount; ++i) {
            v.push_back(load(kEmbeddedScenarios[i].first, kEmbeddedScenarios[i].second));
        }
        return v;
    }();
    return all;
}

const Scenario& find_scenario(const std::string& name) {
    const auto& all = scenarios();
    for (const Scenario& sc : all) {
        if (sc.info.name == name) return sc;
    }
    assert(false && "unknown scenario; validate against scenario_names()");
    return all.front();
}

// ---------------------------------------------------------------------------
// The run driver
// ---------------------------------------------------------------------------

/// Shared per-run driver state: recorder, crossing tap, checkpointing and
/// the convergence probe loop.
struct Driver {
    topo::Network& net;
    RunResult& out;
    const RunConfig& cfg;
    ChoiceRecorder recorder;
    CrossingMap crossings;
    std::unique_ptr<trace::PacketTracer> tracer;
    std::unique_ptr<provenance::Recorder> flight_recorder;
    std::unique_ptr<Watchdog> watchdog;

    Driver(topo::Network& n, RunResult& o, const RunConfig& c,
           net::Ipv4Address data_source, net::GroupAddress group)
        : net(n), out(o), cfg(c), recorder(c.choices) {
        recorder.bind(net.simulator());
        net.simulator().set_choice_source(&recorder);
        net.add_packet_tap([this, data_source](const topo::Segment& seg,
                                               const net::Frame& frame) {
            if (frame.packet.proto != net::IpProto::kUdp) return;
            if (!frame.packet.is_multicast()) return;
            if (frame.packet.src != data_source) return;
            ++crossings[{frame.packet.seq, seg.id()}];
        });
        if (cfg.collect_trace) {
            tracer = std::make_unique<trace::PacketTracer>(net);
            tracer->set_group_filter(group);
            net.telemetry().set_tracing(true); // timeline needs events + spans
        }
        if (cfg.collect_trace || cfg.collect_provenance) {
            flight_recorder = std::make_unique<provenance::Recorder>();
            net.set_provenance(flight_recorder.get());
        }
    }

    ~Driver() {
        net.simulator().set_choice_source(nullptr);
        if (flight_recorder) net.set_provenance(nullptr);
    }

    /// Called after the oracles ran: a failing branch with a recorder
    /// attached emits the merged flight-recorder contents as its post-
    /// mortem, plus a one-line per-router drop summary.
    void emit_postmortem() {
        if (!flight_recorder || out.violations.empty()) return;
        out.provenance_dump = flight_recorder->dump_json();
        out.provenance_summary = flight_recorder->drop_summary();
    }

    /// Runs the online invariant watchdogs alongside the offline oracles.
    /// The lan-delivery gap detector is disarmed on branches that force
    /// choices or faults — loss is then expected, exactly the offline
    /// oracles' "clean branch" discipline (duplicate and structural checks
    /// stay live everywhere).
    void attach_watchdog(scenario::StackBase& stack) {
        if (!cfg.watchdog) return;
        watchdog = std::make_unique<Watchdog>(
            net, [&stack](const topo::Router& r) { return stack.cache_of(r); });
        if (flight_recorder) watchdog->set_recorder(flight_recorder.get());
        bool loss_possible = !cfg.forced_fault.empty();
        for (const Pick& pick : cfg.choices) {
            if (pick.value != 0) loss_possible = true;
        }
        watchdog->set_loss_expected(loss_possible);
        watchdog->start();
    }

    /// Resolves RunConfig::forced_loss segment names against this
    /// scenario's segment table and arms the recorder's loss windows.
    void arm_forced_loss(const std::vector<std::string>& segment_names) {
        if (cfg.forced_loss.empty()) return;
        std::vector<LossWindow> windows;
        for (const ForcedLoss& loss : cfg.forced_loss) {
            const auto it = std::find(segment_names.begin(), segment_names.end(),
                                      loss.segment);
            if (it == segment_names.end()) continue;
            windows.push_back(LossWindow{
                static_cast<int>(std::distance(segment_names.begin(), it)),
                loss.from, loss.to});
        }
        recorder.set_loss_windows(std::move(windows));
    }

    /// Installs one decision point per fault slot. Alternative 0 is "no
    /// fault"; alternative j fires candidate j-1 (and schedules its repair
    /// when the slot has one).
    void arm_fault_slots(scenario::World& world,
                         const std::vector<scenario::FaultSlot>& slots) {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            net.simulator().schedule_at(slots[i].at, [this, i, &slots, &world] {
                const scenario::FaultSlot& slot = slots[i];
                if (!cfg.forced_fault.empty()) {
                    if (i != 0) return;
                    for (const scenario::Action& cand : slot.candidates) {
                        if (scenario::fault_label(cand) == cfg.forced_fault) {
                            world.inject(cand, slot.repair);
                        }
                    }
                    return;
                }
                const std::size_t pick = recorder.choose(
                    slot.candidates.size() + 1,
                    sim::ChoicePoint{sim::ChoicePoint::Kind::kFault,
                                     static_cast<int>(i)});
                if (pick > 0) world.inject(slot.candidates[pick - 1], slot.repair);
            });
        }
    }

    /// The global MRIB's structural key. Protocol state changes only inside
    /// simulator events, and between run_until calls the driver only reads,
    /// so the key taken at the last checkpoint holds until an event runs;
    /// it is recomputed (in its own profiler zone) only then.
    std::uint64_t state_key(scenario::StackBase& stack) {
        const std::uint64_t executed = net.simulator().executed();
        if (executed == key_executed_) {
            assert(key_ == stack.state_key() && "MRIB changed outside an event");
            return key_;
        }
        PROF_ZONE("check.state_key");
        key_ = stack.state_key();
        key_executed_ = executed;
        return key_;
    }

    /// Advances the simulation to `until`, keying the global MRIB every
    /// checkpoint interval along the way from cfg.key_from on. Nothing
    /// stops at the checkpoints before cfg.key_from: the run goes through
    /// them in one stretch (an instant's events always run in one batch,
    /// so where run_until stops does not change the execution).
    void checkpoint_until(sim::Time until, scenario::StackBase& stack) {
        PROF_ZONE("check.checkpoints");
        sim::Time t = net.simulator().now();
        const sim::Time step = cfg.checkpoint_every > 0 ? cfg.checkpoint_every
                                                        : 10 * kMs;
        if (t < until && t < cfg.key_from) {
            // The last unkeyed checkpoint: `until` itself, or the last one
            // on the grid before key_from.
            const sim::Time last = until < cfg.key_from
                                       ? until
                                       : t + (cfg.key_from - 1 - t) / step * step;
            out.events += net.simulator().run_until(last);
            t = last;
        }
        while (t < until) {
            t = std::min(until, t + step);
            out.events += net.simulator().run_until(t);
            out.state_hashes.push_back(timed_state_key(t, state_key(stack)));
        }
    }

    /// Runs probe intervals until the global MRIB revisits an earlier probe
    /// state: either it is stable (the key repeats at once) or it is in a
    /// recurrent soft-state orbit — decaying caches re-established by
    /// periodic joins cycle through a small state set; that still counts
    /// as converged.
    void probe_convergence(scenario::StackBase& stack, sim::Time probe_interval) {
        PROF_ZONE("check.checkpoints");
        std::vector<std::uint64_t> probe_keys{state_key(stack)};
        bool converged = false;
        for (int round = 0; round < kConvergenceProbes && !converged; ++round) {
            out.events +=
                net.simulator().run_until(net.simulator().now() + probe_interval);
            const std::uint64_t key = state_key(stack);
            const sim::Time t = net.simulator().now();
            if (t >= cfg.key_from) out.state_hashes.push_back(timed_state_key(t, key));
            converged = std::find(probe_keys.begin(), probe_keys.end(), key) !=
                        probe_keys.end();
            probe_keys.push_back(key);
        }
        out.converged = converged;
        if (!converged) {
            add_violation(out, "convergence",
                          "global MRIB neither stabilized nor revisited a state "
                          "within " +
                              std::to_string(kConvergenceProbes) +
                              " probe intervals after stimuli stopped");
        }
    }

    void finish() {
        out.trace = recorder.trace();
        out.choices_applied = recorder.fully_applied();
        out.end_time = net.simulator().now();
        if (!cfg.forced_fault.empty()) out.clean = false;
        for (const ChoiceRec& rec : out.trace) {
            if (rec.pick != 0 &&
                rec.point.kind != sim::ChoicePoint::Kind::kEventOrder) {
                out.clean = false;
            }
        }
        if (tracer) out.trace_dump = tracer->dump();
        if (watchdog) {
            watchdog->stop();
            out.watchdog_report = watchdog->dump();
            out.watchdog_count = watchdog->violations().size();
        }
        if (cfg.collect_trace) {
            out.timeline_json =
                trace::chrome_timeline_json(net.telemetry(), flight_recorder.get());
        }
    }

private:
    // state_key()'s memo: the last key and the executed-event count it
    // was taken at (none yet: a count no simulator reaches).
    std::uint64_t key_ = 0;
    std::uint64_t key_executed_ = ~std::uint64_t{0};
};

// ---------------------------------------------------------------------------
// Oracles named by `oracle` lines
// ---------------------------------------------------------------------------

/// Evidence captured at the horizon, before the convergence probes.
struct Deadline {
    telemetry::MribSnapshot mrib;
    struct BsrView {
        net::Ipv4Address elected;
        bool claims = false;
    };
    std::map<std::string, BsrView> views;
    std::map<std::string, std::vector<net::Ipv4Address>> derived;
};

Deadline capture_deadline(const Scenario& sc, scenario::World& world) {
    Deadline d;
    d.mrib = world.stack().capture_mrib();
    scenario::PimSmStack* pim = world.pim_sm();
    const bool bsr = std::any_of(
        sc.script.oracles.begin(), sc.script.oracles.end(),
        [](const scenario::OracleSpec& o) {
            return o.name == "exactly-one-bsr" || o.name == "rp-set-agreement";
        });
    // Only bootstrap worlds: bootstrap_at() would start agents in a
    // static-RP world and change the rest of the run.
    if (!bsr || pim == nullptr) return d;
    for (const auto& router : world.net.routers()) {
        if (world.faults().is_crashed(*router)) continue;
        pim::BootstrapAgent& agent = pim->bootstrap_at(*router);
        d.views[router->name()] = {agent.elected_bsr(), agent.is_elected_bsr()};
        const pim::RpList rps = pim->pim_at(*router).rp_set().rps_for(sc.group);
        d.derived[router->name()].assign(rps.begin(), rps.end());
    }
    return d;
}

/// exactly-one-bsr: every live router holds the same elected-BSR view, and
/// exactly one live router claims the role.
void judge_one_bsr(RunResult& out, const Deadline& d) {
    net::Ipv4Address elected;
    int claims = 0;
    for (const auto& [name, view] : d.views) {
        if (view.elected.is_unspecified()) {
            add_violation(out, "exactly-one-bsr",
                          name + " has no elected-BSR view at the deadline");
            continue;
        }
        if (elected.is_unspecified()) {
            elected = view.elected;
        } else if (view.elected != elected) {
            add_violation(out, "exactly-one-bsr",
                          name + " elected " + view.elected.to_string() +
                              " while others elected " + elected.to_string());
        }
        if (view.claims) ++claims;
    }
    if (claims != 1) {
        add_violation(out, "exactly-one-bsr",
                      std::to_string(claims) +
                          " live router(s) claim the BSR role, want exactly 1");
    }
}

void judge(const Scenario& sc, const scenario::OracleSpec& o, scenario::World& world,
           const Driver& driver, const Deadline& deadline, std::uint64_t steady_iif_drops,
           RunResult& out) {
    if (kCleanOracles.contains(o.name) && !out.clean) return;
    if (o.name == "delivery") {
        // §3.3: switching from shared tree to SPT must not lose packets,
        // and soft-state refresh must keep the tree delivering; from the
        // steady window on, no member sees a duplicate.
        const net::Ipv4Address source = world.host(sc.source).address();
        const std::uint64_t steady = sc.first_seq_from(o.from);
        for (const std::string& member : sc.members) {
            std::set<std::uint64_t> got;
            std::map<std::uint64_t, int> steady_copies;
            for (const topo::Host::ReceivedRecord& rec : world.host(member).received()) {
                if (rec.source != source || rec.group != sc.group) continue;
                got.insert(rec.seq);
                if (rec.seq >= steady) ++steady_copies[rec.seq];
            }
            append(out, delivery_violations(member, got, 1, sc.seq_count));
            append(out, steady_duplicate_violations(member, steady_copies));
        }
    } else if (o.name == "steady-redundancy") {
        // §3.3/§3.5: a converged tree crosses exactly the delivery tree's
        // segments once per packet. An extra crossing is a shared-tree arm
        // that an RP-bit prune should have shut off.
        append(out, steady_redundancy_violations(driver.crossings, sc.segment_names,
                                                 sc.first_seq_from(o.from),
                                                 sc.seq_count, o.crossings));
    } else if (o.name == "steady-iif") {
        // §3.5: in steady state every packet arrives on the expected iif.
        if (steady_iif_drops > 0) {
            add_violation(out, "steady-iif",
                          std::to_string(steady_iif_drops) +
                              " iif-check drops during the steady-state window");
        }
    } else if (o.name == "assert-winner") {
        append(out, assert_winner_violations(driver.crossings, world.lan(o.args.at(0)).id(),
                                             sc.first_seq_from(o.from), sc.seq_count));
    } else if (o.name == "rp-failover" || o.name == "bsr-rp-rehoming") {
        // §3.9: members' (*,G) must root at the first live RP of the list.
        std::size_t live = 0;
        while (live + 1 < o.args.size() &&
               world.faults().is_crashed(world.router(o.args[live]))) {
            ++live;
        }
        const std::string want = world.router(o.args.at(live)).router_id().to_string();
        append(out, rehoming_violations(
                        o.name, deadline.mrib, sc.info.member_routers, want,
                        live > 0 ? " (primary RP " + o.args[0] + " crashed)" : ""));
    } else if (o.name == "exactly-one-bsr") {
        judge_one_bsr(out, deadline);
    } else if (o.name == "rp-set-agreement") {
        append(out, rp_agreement_violations(deadline.derived, sc.group.to_string()));
    }
}

std::string describe_choice(const Scenario& sc, std::uint32_t index, const ChoiceRec& rec) {
    std::string what;
    switch (rec.point.kind) {
    case sim::ChoicePoint::Kind::kEventOrder:
        what = "fire queued event " + std::to_string(rec.pick + 1) + " of " +
               std::to_string(rec.alternatives) + " tied at this instant";
        break;
    case sim::ChoicePoint::Kind::kFrameLoss: {
        const auto seg = static_cast<std::size_t>(rec.point.detail);
        what = "drop the frame crossing segment " +
               (seg < sc.segment_names.size() ? sc.segment_names[seg]
                                              : std::to_string(rec.point.detail));
        break;
    }
    case sim::ChoicePoint::Kind::kFault:
        what = "inject fault candidate " + std::to_string(rec.pick) + " at slot " +
               std::to_string(rec.point.detail);
        break;
    }
    return "choice " + std::to_string(index) + " at t=" + scenario::format_time(rec.at) +
           ": " + what;
}

/// Every iif-check failure, whichever reason the protocol gave it: a plain
/// RPF failure or a LAN assert loser ceding the copy to the winner.
std::uint64_t iif_drops(const stats::NetworkStats& stats) {
    return stats.drops(provenance::DropReason::kRpfFail) +
           stats.drops(provenance::DropReason::kAssertLoser);
}

} // namespace

const std::vector<std::string>& scenario_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (std::size_t i = 0; i < kEmbeddedScenarioCount; ++i) {
            v.emplace_back(kEmbeddedScenarios[i].first);
        }
        return v;
    }();
    return names;
}

std::string_view scenario_script(const std::string& name) {
    for (std::size_t i = 0; i < kEmbeddedScenarioCount; ++i) {
        if (kEmbeddedScenarios[i].first == name) return kEmbeddedScenarios[i].second;
    }
    return {};
}

const std::vector<std::string>& known_mutations() {
    static const std::vector<std::string> names = {
        "skip-spt-bit-handshake", "no-rp-bit-prune",
        "assert-loser-keeps-forwarding", "stale-rp-set-after-bsr-failover",
        "one-shot-assert", "fragile-rp-holdtime"};
    return names;
}

const ScenarioInfo& scenario_info(const std::string& name) {
    return find_scenario(name).info;
}

const MutationTrigger& trigger_for_mutation(const std::string& mutation) {
    // The loss windows bracket the one control message whose loss turns the
    // seeded bug into a symptom: the Assert exchange of the first duplicate
    // burst (~280ms, lan-assert) and one mid-run RpReachability refresh on a
    // member's RP-facing link (the ~900ms generation tick, rp-failover).
    static const std::map<std::string, MutationTrigger> triggers = [] {
        std::map<std::string, MutationTrigger> m;
        m["stale-rp-set-after-bsr-failover"] =
            MutationTrigger{"crash-router-R1", {}};
        // The window is a third of a millisecond wide on purpose: it must
        // kill the winner's Assert reply (261.3ms) while delivering the
        // data copy (261.1ms) and the inferior Assert (261.2ms) that cause
        // it — dropping those merely postpones the election.
        m["one-shot-assert"] = MutationTrigger{
            "", {ForcedLoss{"dlan", 261 * kMs + 250 * sim::kMicrosecond,
                            261 * kMs + 350 * sim::kMicrosecond}}};
        m["fragile-rp-holdtime"] =
            MutationTrigger{"", {ForcedLoss{"M-R1", 850 * kMs, 950 * kMs}}};
        return m;
    }();
    static const MutationTrigger empty;
    const auto it = triggers.find(mutation);
    return it == triggers.end() ? empty : it->second;
}

bool apply_mutation(const std::string& mutation, scenario::StackConfig& config) {
    if (mutation.empty()) return true;
    if (mutation == "skip-spt-bit-handshake") {
        config.pim.mutate_skip_spt_bit_handshake = true;
        return true;
    }
    if (mutation == "no-rp-bit-prune") {
        config.pim.mutate_no_rp_bit_prune = true;
        return true;
    }
    if (mutation == "assert-loser-keeps-forwarding") {
        config.pim.mutate_assert_loser_keeps_forwarding = true;
        return true;
    }
    if (mutation == "stale-rp-set-after-bsr-failover") {
        config.bootstrap.mutate_stale_rp_set = true;
        return true;
    }
    if (mutation == "one-shot-assert") {
        config.pim.mutate_one_shot_assert = true;
        return true;
    }
    if (mutation == "fragile-rp-holdtime") {
        config.pim.mutate_fragile_rp_holdtime = true;
        return true;
    }
    return false;
}

std::string scenario_for_mutation(const std::string& mutation) {
    if (mutation == "assert-loser-keeps-forwarding") return "lan-assert";
    if (mutation == "one-shot-assert") return "lan-assert";
    if (mutation == "stale-rp-set-after-bsr-failover") return "bsr-failover";
    if (mutation == "fragile-rp-holdtime") return "rp-failover";
    return "walkthrough";
}

std::string forced_fault_for_mutation(const std::string& mutation) {
    return trigger_for_mutation(mutation).fault;
}

bool mutation_requires_search(const std::string& mutation) {
    return !trigger_for_mutation(mutation).losses.empty();
}

RunResult run_scenario(const std::string& name, const RunConfig& cfg) {
    const Scenario& sc = find_scenario(name);
    const scenario::Script& script = sc.script;
    RunResult out;

    // Construction order is part of the branch identity: it fixes the
    // sequence numbers of same-instant events, so every choice index.
    std::optional<scenario::World> built;
    std::optional<Driver> attached;
    {
        PROF_ZONE("check.world");
        built.emplace(script, scenario::World::Observers::kNone, cfg.mutation);
        attached.emplace(built->net, out, cfg,
                         sc.source.empty() ? net::Ipv4Address{}
                                           : built->host(sc.source).address(),
                         sc.group);
        attached->attach_watchdog(built->stack());
        attached->arm_forced_loss(sc.segment_names);
        built->start_workloads();
        built->schedule_actions();
        attached->arm_fault_slots(*built, script.fault_slots);
    }
    scenario::World& world = *built;
    Driver& driver = *attached;

    std::uint64_t iif_base = 0;
    for (const scenario::OracleSpec& o : script.oracles) {
        if (o.name != "steady-iif") continue;
        driver.checkpoint_until(o.from, world.stack());
        iif_base = iif_drops(world.net.stats());
    }
    driver.checkpoint_until(script.horizon, world.stack());
    const std::uint64_t steady_iif_drops = iif_drops(world.net.stats()) - iif_base;
    const bool deadline_oracles =
        std::any_of(script.oracles.begin(), script.oracles.end(),
                    [](const scenario::OracleSpec& o) {
                        return kDeadlineOracles.contains(o.name);
                    });
    Deadline deadline;
    if (deadline_oracles) {
        PROF_ZONE("check.oracles");
        deadline = capture_deadline(sc, world);
    }
    driver.probe_convergence(world.stack(), world.config().pim.join_prune_interval);

    {
        PROF_ZONE("check.oracles");
        out.final_mrib = world.stack().capture_mrib();
        driver.finish();
        // Oracles every scenario gets, then the script's own in script order.
        append(out, loop_violations(driver.crossings, sc.segment_names,
                                    world.net.stats().drops(provenance::DropReason::kTtl)));
        for (const std::string& member : sc.members) {
            append(out, duplicate_bound_violations(member,
                                                   world.host(member).duplicate_count()));
        }
        check_iif_consistency(out, out.final_mrib, world);
        for (const scenario::OracleSpec& o : script.oracles) {
            judge(sc, o, world, driver, deadline, steady_iif_drops, out);
        }
        driver.emit_postmortem();
    }

    PROF_ZONE("check.world");
    attached.reset();
    built.reset();
    return out;
}

std::string replay_script(const std::string& name, const std::string& mutation,
                          const RunResult& result) {
    const Scenario& sc = find_scenario(name);
    std::string out = "# pimcheck counterexample -- scenario " + name;
    if (!mutation.empty()) out += " --mutate " + mutation;
    out += "\n";
    for (const Violation& v : result.violations) {
        out += "# violation: " + v.oracle + ": " + v.detail + "\n";
    }

    ChoiceSet forced;
    std::string fault_lines;
    for (std::size_t i = 0; i < result.trace.size(); ++i) {
        const ChoiceRec& rec = result.trace[i];
        if (rec.pick == 0) continue;
        forced.push_back(Pick{static_cast<std::uint32_t>(i), rec.pick});
        const auto slot = static_cast<std::size_t>(rec.point.detail);
        if (rec.point.kind == sim::ChoicePoint::Kind::kFault &&
            slot < sc.script.fault_slots.size() &&
            rec.pick <= sc.script.fault_slots[slot].candidates.size()) {
            const scenario::FaultSlot& fs = sc.script.fault_slots[slot];
            fault_lines += scenario::render_fault(fs, fs.candidates[rec.pick - 1]);
        }
    }
    if (forced.empty()) {
        out += "# the deterministic baseline run already fails -- no forced "
               "choices needed\n";
    } else {
        out += "# deviations from the deterministic baseline (replay exactly "
               "with:\n";
        out += "#   pimcheck --scenario " + name;
        if (!mutation.empty()) out += " --mutate " + mutation;
        out += " --replay " + format_choices(forced) + "):\n";
        for (const Pick& pick : forced) {
            out += "#   " + describe_choice(sc, pick.index, result.trace[pick.index]) + "\n";
        }
        out += "# fault injections replay at the end; pimsim cannot force "
               "message-level order/loss\n";
    }
    out += sc.script.text;
    if (!out.empty() && out.back() != '\n') out += "\n";
    out += fault_lines;
    return out;
}

} // namespace pimlib::check
