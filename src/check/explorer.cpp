#include "check/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "check/state_set.hpp"
#include "telemetry/profiler/profiler.hpp"

namespace pimlib::check {
namespace {

using Clock = std::chrono::steady_clock;

/// A frontier entry: its forced picks and its fork instant, the clock of its
/// last pick in its parent's run. Up to that instant the branch replays its
/// parent exactly, so its checkpoint keys before it are the parent's, which
/// the dedup set already holds.
struct Branch {
    ChoiceSet choices;
    sim::Time fork_at = 0;
};

/// A sampled child of a finished run: the flipped pick and its fork instant.
struct Fork {
    Pick flip;
    sim::Time at = 0;
};

/// Candidate children of a completed run: flip one decision point after the
/// last already-forced pick. The single-fault rule (FaultBudget) is also
/// the main guard against frontier blowup.
std::vector<Pick> child_flips(const ChoiceSet& current, const RunResult& result) {
    std::vector<Pick> flips;
    const FaultBudget budget(current, result.trace);
    const std::uint32_t start = current.empty() ? 0 : current.back().index + 1;
    for (std::uint32_t i = start; i < result.trace.size(); ++i) {
        const ChoiceRec& rec = result.trace[i];
        if (rec.alternatives < 2 || !budget.allows(rec.point.kind)) continue;
        for (std::uint32_t v = 1; v < rec.alternatives; ++v) {
            if (v == rec.pick) continue;
            flips.push_back(Pick{i, v});
        }
    }
    return flips;
}

/// Seed for a branch's private child-sampling RNG. Derived from the search
/// seed and the branch identity alone — never from a shared RNG stream —
/// so the sample is the same whichever worker runs the branch, and the
/// whole search is reproducible across thread counts.
std::uint64_t branch_seed(std::uint64_t seed, const ChoiceSet& branch) {
    std::uint64_t h = 0xcbf29ce484222325ull ^ seed;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    for (const Pick& pick : branch) {
        mix(pick.index);
        mix(pick.value);
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
}

/// Sampled, ordered children of a completed clean run. Fault-slot flips
/// are exempt from the sampling cap: there are only a handful per scenario
/// and each is a first-class branch dimension (some seeded bugs only
/// manifest after a fault), so they must never lose the shuffle to the
/// thousands of message-order flips. When no next-wave slot can run
/// (`next_wave_runs` false) the sample is skipped: at most one child is
/// kept, exactly when the full sample would be non-empty, so a frontier the
/// run budget cut still reads as open.
std::vector<Fork> sample_children(const ExploreOptions& options,
                                  const ChoiceSet& current,
                                  const RunResult& result, bool next_wave_runs) {
    std::vector<Pick> flips = child_flips(current, result);
    const auto is_fault = [&result](const Pick& p) {
        return p.index < result.trace.size() &&
               result.trace[p.index].point.kind == sim::ChoicePoint::Kind::kFault;
    };
    auto fault_end = std::stable_partition(flips.begin(), flips.end(), is_fault);
    const auto fault_count =
        static_cast<std::size_t>(std::distance(flips.begin(), fault_end));
    std::size_t keep = options.children_per_run + fault_count;
    if (next_wave_runs) {
        std::mt19937_64 rng(branch_seed(options.seed, current));
        std::shuffle(fault_end, flips.end(), rng);
    } else {
        keep = std::min<std::size_t>(keep, 1);
    }
    if (flips.size() > keep) flips.resize(keep);
    std::vector<Fork> children;
    children.reserve(flips.size());
    for (const Pick& flip : flips) {
        children.push_back(Fork{flip, result.trace[flip.index].at});
    }
    return children;
}

/// One wave slot's outcome, filled by whichever worker claimed it and read
/// back strictly in slot order by the merge step. It keeps only what the
/// merge reads: a run's choice trace and final MRIB capture are dropped
/// once its children are sampled.
struct Slot {
    bool ran = false;
    bool choices_applied = false;
    std::vector<std::uint64_t> new_states; // keys the dedup set lacked
    std::vector<Violation> violations;
    std::vector<Fork> children;
};

} // namespace

RunResult Search::run(const ChoiceSet& choices, bool collect_trace,
                      sim::Time key_from) const {
    RunConfig cfg;
    cfg.choices = choices;
    cfg.mutation = mutation;
    cfg.collect_trace = collect_trace;
    cfg.checkpoint_every = checkpoint_every;
    cfg.key_from = key_from;
    if (replays != nullptr) ++*replays;
    PROF_ZONE("check.explore");
    return run_scenario(scenario, cfg);
}

ChoiceSet shrink(const Search& search, ChoiceSet failing) {
    bool shrunk = true;
    while (shrunk && !failing.empty()) {
        shrunk = false;
        for (std::size_t i = 0; i < failing.size(); ++i) {
            ChoiceSet candidate = failing;
            candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
            if (search.still_fails(search.run(candidate).violations)) {
                failing = std::move(candidate);
                shrunk = true;
                break;
            }
        }
    }
    return failing;
}

Counterexample package_counterexample(const Search& search, const ChoiceSet& failing,
                                      const std::vector<Violation>& found) {
    Counterexample ce;
    ce.choices = shrink(search, failing);
    RunResult replay = search.run(ce.choices, true);
    if (!search.still_fails(replay.violations)) {
        // Shrinking is best-effort; fall back to the original branch.
        ce.choices = failing;
        replay = search.run(ce.choices, true);
    }
    ce.violations = search.still_fails(replay.violations) ? replay.violations : found;
    ce.script = replay_script(search.scenario, search.mutation, replay);
    ce.trace_dump = std::move(replay.trace_dump);
    ce.provenance_dump = std::move(replay.provenance_dump);
    ce.provenance_summary = std::move(replay.provenance_summary);
    return ce;
}

FaultBudget::FaultBudget(const ChoiceSet& branch, const std::vector<ChoiceRec>& trace) {
    for (const Pick& pick : branch) {
        if (pick.index >= trace.size()) continue;
        loss |= trace[pick.index].point.kind == sim::ChoicePoint::Kind::kFrameLoss;
        fault |= trace[pick.index].point.kind == sim::ChoicePoint::Kind::kFault;
    }
}

void publish_search_metrics(telemetry::Registry& registry,
                            const telemetry::LabelSet& labels, std::size_t runs,
                            std::size_t violating_runs, std::size_t skipped_branches,
                            std::size_t counterexamples) {
    registry.counter("pimlib_check_runs_total", labels,
                     "scenario replays executed by the checker")
        .inc(runs);
    registry.counter("pimlib_check_violating_runs_total", labels,
                     "replays that tripped an invariant oracle")
        .inc(violating_runs);
    registry.counter("pimlib_check_skipped_branches_total", labels,
                     "inconsistent choice sets discarded on replay")
        .inc(skipped_branches);
    registry.counter("pimlib_check_counterexamples_total", labels,
                     "shrunk replayable counterexamples emitted")
        .inc(counterexamples);
}

ExploreReport explore(const ExploreOptions& options) {
    ExploreReport report;
    const Search search{options.scenario, options.mutation, options.checkpoint_every,
                        [](const std::vector<Violation>& found) { return !found.empty(); }};
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.time_budget_seconds));

    std::vector<Branch> frontier{Branch{}};
    StateSet states;
    bool stopped = false;
    // The merge dropped a branch (a wave slot or a child) that the run
    // budget or the deadline left no room for: an empty frontier then means
    // the search was cut, not that it ran out.
    bool cut = false;

    while (!frontier.empty() && !stopped && report.runs < options.max_runs &&
           Clock::now() < deadline) {
        // --- run the wave -------------------------------------------------
        // Workers claim slots off the cursor; every slot's budget verdict
        // depends only on its index, so the set of slots that run is the
        // same for any thread count (modulo the wall-clock deadline).
        std::vector<Slot> slots(frontier.size());
        std::atomic<std::size_t> cursor{0};
        // Smallest violating slot so far: later slots may be skipped (they
        // are discarded by the merge anyway), earlier ones always run.
        std::atomic<std::size_t> first_violating{frontier.size()};
        const std::size_t runs_before = report.runs;
        const bool expand = frontier.front().choices.size() < options.max_depth;
        // Past the run budget no next-wave slot runs (the search ends with
        // this wave), so its children need not be sampled.
        const bool next_wave_runs = runs_before + frontier.size() < options.max_runs;

        const auto worker = [&] {
            for (std::size_t i = cursor.fetch_add(1); i < frontier.size();
                 i = cursor.fetch_add(1)) {
                if (runs_before + i >= options.max_runs) continue;
                if (Clock::now() >= deadline) continue;
                if (options.stop_at_first_violation &&
                    i > first_violating.load(std::memory_order_relaxed)) {
                    continue;
                }
                Slot& slot = slots[i];
                const Branch& branch = frontier[i];
                RunResult result = search.run(branch.choices, false, branch.fork_at);
                PROF_ZONE("check.slot");
                // `states` is read-only until the merge: drop the keys
                // earlier waves already hold here, in parallel, so the
                // serial merge inserts only what may be new.
                std::erase_if(result.state_hashes, [&states](std::uint64_t key) {
                    return states.contains(key);
                });
                slot.new_states = std::move(result.state_hashes);
                slot.choices_applied = result.choices_applied;
                slot.ran = true;
                if (!result.violations.empty()) {
                    slot.violations = std::move(result.violations);
                    std::size_t prev =
                        first_violating.load(std::memory_order_relaxed);
                    while (i < prev && !first_violating.compare_exchange_weak(
                                           prev, i, std::memory_order_relaxed)) {
                    }
                } else if (expand && result.choices_applied) {
                    slot.children = sample_children(options, branch.choices,
                                                    result, next_wave_runs);
                }
            }
        };

        const std::size_t workers =
            std::max<std::size_t>(1, std::min(options.threads, frontier.size()));
        if (workers <= 1) {
            worker();
        } else {
            std::vector<std::thread> pool;
            pool.reserve(workers);
            for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
            for (std::thread& t : pool) t.join();
        }

        // --- merge in branch order ---------------------------------------
        PROF_ZONE("check.merge");
        std::vector<Branch> next;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            Slot& slot = slots[i];
            if (!slot.ran) {
                // Past the run budget or the deadline: the wave's tail is cut.
                cut = true;
                break;
            }
            ++report.runs;
            for (const std::uint64_t key : slot.new_states) states.insert(key);
            if (!slot.choices_applied) {
                // The flipped prefix reshaped the execution so a later
                // forced pick was never reached (or shrank out of range):
                // not a real branch of the state space.
                ++report.skipped_branches;
                continue;
            }
            if (!slot.violations.empty()) {
                ++report.violating_runs;
                if (report.counterexamples.size() < options.max_counterexamples) {
                    report.counterexamples.push_back(package_counterexample(
                        search, frontier[i].choices, slot.violations));
                }
                if (options.stop_at_first_violation) {
                    stopped = true;
                    break;
                }
                continue; // don't grow the tree under a failing branch
            }
            // Next-wave slots past the run budget never run, so they are not
            // built; one is kept so a cut frontier still reads as open.
            const std::size_t next_cap = std::min(
                options.max_frontier,
                std::max<std::size_t>(1, options.max_runs - report.runs));
            for (const Fork& fork : slot.children) {
                if (next.size() >= next_cap) {
                    cut = true;
                    break;
                }
                Branch child{frontier[i].choices, fork.at};
                child.choices.push_back(fork.flip);
                next.push_back(std::move(child));
            }
        }
        if (!stopped) frontier = std::move(next);
    }

    report.frontier_exhausted = frontier.empty() && !stopped && !cut;
    report.deduped_states = states.size();
    report.elapsed_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    if (options.metrics != nullptr) {
        const telemetry::LabelSet labels{
            {"engine", "forward"},
            {"scenario", options.scenario},
            {"mutation", options.mutation.empty() ? "none" : options.mutation}};
        publish_search_metrics(*options.metrics, labels, report.runs,
                               report.violating_runs, report.skipped_branches,
                               report.counterexamples.size());
        options.metrics
            ->counter("pimlib_check_deduped_states_total", labels,
                      "distinct timed protocol states visited")
            .inc(report.deduped_states);
    }
    return report;
}

} // namespace pimlib::check
