// Bounded forward search over a scenario's nondeterminism.
//
// The explorer enumerates branches as sparse ChoiceSets (see choice.hpp):
// it replays a branch, then derives children by flipping one decision
// point strictly after the branch's last forced pick — the canonical
// in-order construction that generates each choice set exactly once. The
// per-branch budget (max_depth forced picks, at most one loss and one
// fault per execution) and a seeded sample of children per run keep the
// frontier tractable; wall-clock and run-count budgets bound the whole
// search. Every run's timed-state keys — (sim clock, structural MRIB
// key) pairs, see scenario.hpp; the structural key is
// scenario::StackBase::state_key(), read straight off the forwarding
// caches and recomputed only at checkpoints that follow an executed event
// — land in one global dedup set (a flat open-addressing table,
// state_set.hpp): the "distinct protocol states visited" metric.
//
// The search skips every piece of work whose result it already holds, and
// each cut is exact. A child replays its parent exactly up to its flipped
// pick, so it keys only the checkpoints from that pick's instant (its fork
// instant) on: the keys before it are the parent's, already in the set.
// Shrinking and counterexample replays key nothing. A wave that the run
// budget makes the last samples no children (one flip is kept so the
// frontier still reads as open), and a finished slot keeps only what the
// merge reads: its new keys, violations and children with their fork
// instants, not the run's choice trace or MRIB capture.
//
// A branch whose oracles fail is shrunk (greedy pick-dropping, re-running
// each candidate) to a minimal failing choice set and packaged as a
// replayable counterexample: pimsim script + decoded packet trace. The
// backward engine (check/backward.hpp) packages its hits through the same
// path, declared first below.
//
// Exploration is wave-synchronous and optionally parallel: each BFS wave's
// branches are claimed off an atomic cursor by a worker pool, then the
// results are merged strictly in branch order. Child sampling uses a
// per-branch RNG seeded from hash(seed, branch) — never a shared stream —
// so a run-bounded search produces bit-identical reports for a fixed seed
// regardless of thread count (time-budget truncation is the one
// wall-clock-dependent escape hatch).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "telemetry/metrics.hpp"

namespace pimlib::check {

// What both search engines share: how a search replays its branches, the
// one counterexample path (greedy shrink, traced replay, packaging), the
// single-fault rule and the pimlib_check_* counters both publish. The
// engines differ in how they pick the next branch and what counts as a hit.

struct Counterexample {
    ChoiceSet choices; // shrunk to a minimal failing set
    std::vector<Violation> violations;
    std::string script;     // pimsim replay (see scenario.hpp)
    std::string trace_dump; // decoded packet trace of the failing run
    /// Flight-recorder post-mortem of the failing run: merged time-ordered
    /// per-hop records (JSON) plus a one-line per-router drop summary
    /// naming who discarded what and why.
    std::string provenance_dump;
    std::string provenance_summary;
};

/// One search's replays: the scenario and seeded bug every branch runs
/// under, and what makes a replay a hit.
struct Search {
    std::string scenario;
    std::string mutation;
    sim::Time checkpoint_every = sim::kMillisecond;
    /// The replay still shows the bug: any violation for the forward
    /// engine, one in the target's witness family for the backward one.
    std::function<bool(const std::vector<Violation>&)> still_fails;
    /// Counts every replay when set: the backward engine's budget includes
    /// its shrink and trace replays; the forward engine's runs do not.
    std::size_t* replays = nullptr;

    /// Replays `choices`, keying its checkpoints from `key_from` on.
    [[nodiscard]] RunResult run(const ChoiceSet& choices, bool collect_trace = false,
                                sim::Time key_from = kKeyNothing) const;
};

/// Greedy minimization: drops forced picks one at a time while the replay
/// still fails.
[[nodiscard]] ChoiceSet shrink(const Search& search, ChoiceSet failing);

/// Shrinks `failing`, replays the result with a trace (falling back to
/// `failing` itself when the shrunk set no longer fails) and packages that
/// replay: its choices, script and trace. `found` are the violations the
/// search saw, reported if no traced replay fails.
[[nodiscard]] Counterexample package_counterexample(const Search& search,
                                                    const ChoiceSet& failing,
                                                    const std::vector<Violation>& found);

/// Single-fault semantics: a branch forces at most one frame loss and one
/// fault per execution. Built from what `branch`, whose run recorded
/// `trace`, has already forced; allows() says whether it may force one
/// more pick of a kind.
struct FaultBudget {
    FaultBudget(const ChoiceSet& branch, const std::vector<ChoiceRec>& trace);
    [[nodiscard]] bool allows(sim::ChoicePoint::Kind kind) const {
        using Kind = sim::ChoicePoint::Kind;
        return !(kind == Kind::kFrameLoss && loss) && !(kind == Kind::kFault && fault);
    }
    bool loss = false;
    bool fault = false;
};

/// Publishes the counters both engines report under `labels`; each engine
/// adds its own beside them.
void publish_search_metrics(telemetry::Registry& registry,
                            const telemetry::LabelSet& labels, std::size_t runs,
                            std::size_t violating_runs, std::size_t skipped_branches,
                            std::size_t counterexamples);

struct ExploreOptions {
    std::string scenario = "walkthrough";
    std::string mutation;
    /// Hard caps; whichever trips first ends the search.
    std::size_t max_runs = 100000;
    double time_budget_seconds = 50.0;
    /// Forced picks per branch (search depth).
    std::size_t max_depth = 3;
    /// Seeded sample of children enqueued per completed run. Wide on
    /// purpose: the loss choice points (one per frame) are where branches
    /// structurally diverge, and sampling them narrowly revisits the same
    /// few divergence windows over and over.
    std::size_t children_per_run = 800;
    std::size_t max_frontier = 50000;
    std::size_t max_counterexamples = 3;
    std::uint64_t seed = 1;
    /// Stop the whole search at the first verified violation (mutation
    /// gate mode). The stop point is the smallest violating branch index
    /// of its wave, so it is deterministic even under parallel execution.
    bool stop_at_first_violation = false;
    sim::Time checkpoint_every = sim::kMillisecond;
    /// Worker threads per wave; <= 1 explores inline on the caller's
    /// thread (the same code path, minus the thread spawns).
    std::size_t threads = 1;
    /// When set, the search publishes pimlib_check_* counters here on
    /// completion (runs, deduped states, violations, skipped branches,
    /// counterexamples) for CI metric artifacts.
    telemetry::Registry* metrics = nullptr;
};

struct ExploreReport {
    std::size_t runs = 0;
    std::size_t deduped_states = 0;
    std::size_t violating_runs = 0;
    std::size_t skipped_branches = 0; // choice sets inconsistent on replay
    bool frontier_exhausted = false;
    double elapsed_seconds = 0.0;
    std::vector<Counterexample> counterexamples;

    [[nodiscard]] bool clean() const { return violating_runs == 0; }
};

[[nodiscard]] ExploreReport explore(const ExploreOptions& options);

} // namespace pimlib::check
