// The checker's scenarios and invariant oracles.
//
// A scenario is a pimsim script (src/check/scenarios/*.pimsim, embedded at
// build time and parsed once per process): a small world (topology + PIM-SM
// stack + oracle unicast routing + stimuli), its fault slots, its judgment
// horizon and the oracles that judge it. Each run builds a fresh world from
// the parsed script and replays it under a ChoiceRecorder. The first four
// oracles below judge every scenario; the rest run when the script names
// them in an `oracle` line, with their constants as arguments:
//
//   duplicate-bound      no host sees more than a handful of (source,seq)
//                        duplicates; a forwarding loop dupes every packet
//   forwarding-loop      no data packet crosses the same segment more than
//                        a few times, and nothing dies of TTL exhaustion
//   iif-consistency      every surviving MRIB entry's iif agrees with the
//                        unicast RPF oracle, and never appears in its own
//                        oif list (§2.3, §3.8)
//   convergence          after stimuli stop, the global MRIB reaches a
//                        stable state or a recurrent soft-state orbit
//   delivery from=T      every packet the source sends is delivered to
//                        every member (§3.3's lossless SPT-switchover
//                        claim), and steady-duplicate: zero duplicates
//                        among packets sent from T on (the steady window)
//   steady-redundancy from=T crossings=N
//                        each steady-state packet crosses exactly N
//                        segments — one extra crossing means a missing
//                        RP-bit negative cache (§3.3, §3.5)
//   steady-iif from=T    zero incoming-interface check failures from T to
//                        the horizon (§3.5's iif discipline)
//   rp-failover R1 R2…   at the horizon, every member router's (*,G) roots
//                        at the first live RP of the list (§3.9)
//   assert-winner LAN from=T
//                        after the per-interface Assert election, each
//                        steady packet crosses the contested LAN exactly
//                        once — one winner forwards, every loser prunes
//   exactly-one-bsr      every live router agrees on the elected BSR, and
//                        exactly one live router claims the role
//   rp-set-agreement     every live router derives the same non-empty RP
//                        list from the learned set
//   bsr-rp-rehoming R1 R2…
//                        rp-failover's rule for bootstrap-learned RP sets
//
// Oracles that assert efficiency or completeness only apply to "clean"
// branches — no forced frame loss and no injected fault — because the
// protocol's own spec tolerates transient loss after a dropped control
// message (soft state repairs at the next periodic refresh, §3.4).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "check/choice.hpp"
#include "check/invariants.hpp" // Violation + the pure oracle functions
#include "scenario/stacks.hpp"
#include "scenario/world.hpp" // SegmentInfo, FaultSlot
#include "telemetry/snapshot.hpp"

namespace pimlib::check {

/// Drop every frame crossing `segment` (by scenario segment name) whose
/// transmission time falls in [from, to). A robust test trigger for
/// loss-dependent bugs: unlike a forced Pick it keys on (segment, time),
/// so it survives trace reshaping between protocol revisions.
struct ForcedLoss {
    std::string segment;
    sim::Time from = 0;
    sim::Time to = 0;
};

struct RunConfig {
    /// Forced picks identifying the branch; empty = baseline run.
    ChoiceSet choices;
    /// Seeded-bug selector: "" or one of known_mutations().
    std::string mutation;
    /// Unconditionally apply this fault candidate at the first fault slot
    /// (by label, bypassing the choice machinery). Test hook.
    std::string forced_fault;
    /// Unconditionally drop frames in these (segment, time-window) slots.
    /// The drops are recorded as ordinary non-default picks, so the run is
    /// non-clean and its trace replays. Test hook for loss-dependent bugs.
    std::vector<ForcedLoss> forced_loss;
    /// Capture a decoded packet trace of the whole run (expensive; used
    /// when emitting counterexamples).
    bool collect_trace = false;
    /// Attach a provenance flight recorder to the run; on an oracle failure
    /// the merged time-ordered recorder contents are emitted as a post-
    /// mortem JSON dump (RunResult::provenance_dump). Implied by
    /// collect_trace.
    bool collect_provenance = false;
    /// Run the online invariant watchdogs (check/watchdog.hpp) alongside
    /// the offline oracles; their findings land in
    /// RunResult::watchdog_report. Used by pimcheck --replay so a
    /// counterexample shows what the live watchdogs would have said.
    bool watchdog = false;
    /// Cadence of MRIB state-key checkpoints.
    sim::Time checkpoint_every = sim::kMillisecond;
    /// Checkpoints before this instant run but are not keyed: no state
    /// key, no state_hashes entry. The forward explorer sets a child
    /// branch's fork instant here (before it the child replays its parent,
    /// whose keys the dedup set already holds), and kKeyNothing on replays
    /// whose keys nothing dedups. The convergence probes still compute
    /// their keys, which the convergence oracle reads.
    sim::Time key_from = 0;
};

/// RunConfig::key_from for a replay that keys no checkpoint.
inline constexpr sim::Time kKeyNothing = std::numeric_limits<sim::Time>::max();

struct RunResult {
    std::vector<ChoiceRec> trace;
    std::vector<Violation> violations;
    /// Timed-state keys — hash of (sim clock, structural MRIB key) — one
    /// per checkpoint plus the convergence probes. The structural key is
    /// scenario::StackBase::state_key(): integers off the live forwarding
    /// caches, no snapshot, equal exactly when two MRIB snapshots would
    /// diff empty. The clock is part of the key because this is a timed
    /// protocol: the same MRIB structure at two points of the schedule is
    /// two different global states. The explorer dedups these globally.
    /// Only checkpoints at or after RunConfig::key_from are keyed, so a
    /// forward-search child holds the keys from its fork instant on.
    std::vector<std::uint64_t> state_hashes;
    telemetry::MribSnapshot final_mrib;
    /// No forced loss, no fault: every efficiency oracle applies.
    bool clean = true;
    bool converged = false;
    /// The forced choice set was consistent with this scenario (every pick
    /// reached and in range). Inconsistent branches are discarded upstream.
    bool choices_applied = true;
    sim::Time end_time = 0;
    std::size_t events = 0;
    std::string trace_dump; // filled when RunConfig::collect_trace
    /// Post-mortem flight-recorder dump (JSON) and one-line drop summary,
    /// filled only when a recorder was attached AND an oracle failed.
    std::string provenance_dump;
    std::string provenance_summary;
    /// Chrome trace-event JSON of the whole run (control events, spans and
    /// provenance hops stitched into causal tracks — load in Perfetto).
    /// Filled when RunConfig::collect_trace.
    std::string timeline_json;
    /// Online watchdog findings (human-readable, one block per violation)
    /// and their count. Filled when RunConfig::watchdog.
    std::string watchdog_report;
    std::size_t watchdog_count = 0;
};

/// Static metadata about a scenario world, derived from its script and
/// exported for the backward search engine (check/backward.hpp): it needs
/// to reason about fault candidates, segments and deadlines *before*
/// replaying anything.
struct ScenarioInfo {
    std::string name;
    /// Segments in creation order — the index is exactly the
    /// ChoicePoint::detail of kFrameLoss decisions on that segment.
    std::vector<scenario::SegmentInfo> segments;
    /// The script's fault slots; slot i is ChoicePoint::detail i of kFault,
    /// and its candidate j fires on pick value j+1 (labels: fault_label()).
    std::vector<scenario::FaultSlot> fault_slots;
    /// The oracle-judgment deadline (the script's `horizon`, before the
    /// convergence probes take over).
    sim::Time horizon = 0;
    /// Last-hop routers with joined members behind them (the routers on
    /// the LANs of the script's `join` hosts) — the routers whose
    /// forwarding state the delivery/re-homing oracles judge. Backward
    /// search ranks losses on member↔critical-router links first.
    std::vector<std::string> member_routers;
};

/// Aborts (assert) on unknown names — validate against scenario_names().
[[nodiscard]] const ScenarioInfo& scenario_info(const std::string& name);

/// The embedded source of scenario `name` (src/check/scenarios/NAME.pimsim),
/// or "" for unknown names. pimsim runs it unchanged.
[[nodiscard]] std::string_view scenario_script(const std::string& name);

/// Everything a test needs to make a seeded mutation's symptom appear on
/// a directly-forced branch: the fault to fire (if fault-dependent) and
/// the frame-loss windows to apply (if loss-dependent). Baseline-visible
/// mutations have both parts empty.
struct MutationTrigger {
    std::string fault;
    std::vector<ForcedLoss> losses;
};
[[nodiscard]] const MutationTrigger& trigger_for_mutation(const std::string& mutation);

/// True when `mutation`'s symptom only appears under a specific frame-loss
/// placement (a non-empty trigger loss window) — the mutations where a
/// search has to *find* the loss, and where backward search's pre-image
/// ranking earns its keep. Fault-dependent and baseline-visible mutations
/// return false: any engine trips over those immediately.
[[nodiscard]] bool mutation_requires_search(const std::string& mutation);

[[nodiscard]] const std::vector<std::string>& scenario_names();
[[nodiscard]] const std::vector<std::string>& known_mutations();

/// Applies a mutation by name to the stack config; false if unknown.
[[nodiscard]] bool apply_mutation(const std::string& mutation,
                                  scenario::StackConfig& config);

/// The scenario whose oracles catch `mutation` — each seeded bug only
/// manifests in the world built to exercise its mechanism (e.g. the assert
/// mutations need two parallel upstreams on a LAN). Defaults to
/// "walkthrough" for unknown names.
[[nodiscard]] std::string scenario_for_mutation(const std::string& mutation);

/// The fault (RunConfig::forced_fault syntax) a mutation needs before its
/// symptom appears on the deterministic baseline branch, or "" when it is
/// visible without one. A stale RP set, for instance, is indistinguishable
/// from a fresh one until the elected BSR actually dies.
[[nodiscard]] std::string forced_fault_for_mutation(const std::string& mutation);

/// Runs one branch of `name`. Aborts (assert) on unknown scenario names —
/// callers validate against scenario_names() first.
[[nodiscard]] RunResult run_scenario(const std::string& name, const RunConfig& cfg);

/// A pimsim script reproducing `result`'s branch of `name`: the scenario's
/// own script plus the picked fault candidates as `at` lines, so topology,
/// stimuli and fault injections replay exactly; message-level order/loss
/// choices (which pimsim cannot force) are documented in a comment header,
/// including the --replay spec for reproducing them in pimcheck.
[[nodiscard]] std::string replay_script(const std::string& name,
                                        const std::string& mutation,
                                        const RunResult& result);

} // namespace pimlib::check
