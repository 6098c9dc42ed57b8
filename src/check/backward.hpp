// Backward fault-oriented search, after Helmy/Estrin/Gupta's fault-
// oriented test generation for PIM (cs/0007005): instead of exploring the
// schedule space forward and waiting for an oracle to trip, start from a
// *target* invariant violation, compute the protocol conditions that
// pre-image it, and search the small set of fault placements and message
// losses that can establish those conditions.
//
// The engine never inspects the code under test (it would defeat the
// point — the mutation is what we're hunting). It reasons only from:
//
//   - the target's semantics: which oracle family witnesses it, and which
//     *kind* of event can cause it. A persistent blackhole pre-images to
//     decayed soft state — a lost periodic control message on the path
//     between a member and the critical router, late enough that the next
//     refresh cannot repair it before the judgment deadline. A duplicate
//     burst on a LAN pre-images to a failed Assert election — a lost
//     Assert in the exchange right after data first appears on the LAN.
//   - the scenario's static metadata (check/scenario.hpp ScenarioInfo,
//     derived from its script): segments and the routers they attach,
//     fault candidates and the routers they hit, member routers, horizon.
//   - the baseline replay's decision trace: where control frames crossed
//     which segment at what time (sim::ChoicePoint::control).
//
// Candidate single-change branches are ranked by that pre-image relevance
// and replayed best-first; a hit is shrunk (target-preserving greedy
// minimization) and packaged as the same replayable Counterexample the
// forward explorer emits. Unfruitful branches are extended one more
// ranked change (fault + loss composition) up to max_depth.
#pragma once

#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "check/scenario.hpp"

namespace pimlib::check {

struct BackwardOptions {
    /// Empty = default_scenario_for_target(target).
    std::string scenario;
    /// Seeded bug under test ("" = healthy protocol, search comes up dry).
    std::string mutation;
    /// One of backward_targets().
    std::string target = "blackhole";
    /// Hard caps; whichever trips first ends the search.
    std::size_t max_replays = 2000;
    double time_budget_seconds = 50.0;
    /// Changes per branch: 1 = single fault or single loss, 2 adds their
    /// composition (a crash whose recovery message then gets lost, ...).
    std::size_t max_depth = 2;
    std::size_t max_counterexamples = 1;
    sim::Time checkpoint_every = sim::kMillisecond;
    /// When set, the search publishes pimlib_check_* counters here on
    /// completion (replays, target hits, skipped branches, counterexamples)
    /// for CI metric artifacts.
    telemetry::Registry* metrics = nullptr;
};

struct BackwardReport {
    std::string scenario;
    std::string target;
    /// Replays executed, including the baseline reconnaissance run and the
    /// shrink/trace replays spent packaging counterexamples.
    std::size_t replays = 0;
    /// Replays up to and including the first target hit — the honest
    /// "runs to counterexample" figure to compare against the forward
    /// explorer's (whose ExploreReport::runs also excludes shrinking).
    std::size_t replays_to_hit = 0;
    /// Runs violating *any* oracle (a non-target hit is counted but not
    /// emitted — it belongs to a different target's search).
    std::size_t violating_runs = 0;
    /// Runs violating an oracle in the target's family.
    std::size_t target_hits = 0;
    std::size_t skipped_branches = 0; // choice sets inconsistent on replay
    /// Candidate branches ranked over the whole search (diagnostic).
    std::size_t candidates_ranked = 0;
    /// Every ranked candidate was replayed without a hit.
    bool exhausted = false;
    double elapsed_seconds = 0.0;
    std::vector<Counterexample> counterexamples;

    [[nodiscard]] bool found() const { return !counterexamples.empty(); }
};

/// The four target violations the engine knows how to pre-image.
[[nodiscard]] const std::vector<std::string>& backward_targets();

/// True when any violation's oracle is in `target`'s witness family.
/// False for unknown targets.
[[nodiscard]] bool target_matches(const std::string& target,
                                  const std::vector<Violation>& violations);

/// The target whose witness family catches `mutation`'s symptom, or ""
/// for unknown mutations. The CI mutation gate drives backward search
/// through this mapping.
[[nodiscard]] std::string target_for_mutation(const std::string& mutation);

/// The scenario world built to exercise `target`'s mechanism (aborts via
/// assert on unknown targets — validate against backward_targets()).
[[nodiscard]] std::string default_scenario_for_target(const std::string& target);

[[nodiscard]] BackwardReport backward_search(const BackwardOptions& options);

} // namespace pimlib::check
