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

/// Replays one branch, keying its checkpoints from `key_from` on.
RunResult run_branch(const ExploreOptions& options, const ChoiceSet& choices,
                     bool collect_trace, sim::Time key_from) {
    RunConfig cfg;
    cfg.choices = choices;
    cfg.mutation = options.mutation;
    cfg.collect_trace = collect_trace;
    cfg.checkpoint_every = options.checkpoint_every;
    cfg.key_from = key_from;
    PROF_ZONE("check.explore");
    return run_scenario(options.scenario, cfg);
}

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
/// last already-forced pick. Loss and fault picks are rationed to one each
/// per execution — single-failure semantics, and the main guard against
/// frontier blowup.
std::vector<Pick> child_flips(const ChoiceSet& current, const RunResult& result) {
    std::vector<Pick> flips;
    bool have_loss = false;
    bool have_fault = false;
    for (const Pick& pick : current) {
        if (pick.index < result.trace.size()) {
            const auto kind = result.trace[pick.index].point.kind;
            have_loss |= kind == sim::ChoicePoint::Kind::kFrameLoss;
            have_fault |= kind == sim::ChoicePoint::Kind::kFault;
        }
    }
    const std::uint32_t start = current.empty() ? 0 : current.back().index + 1;
    for (std::uint32_t i = start; i < result.trace.size(); ++i) {
        const ChoiceRec& rec = result.trace[i];
        if (rec.alternatives < 2) continue;
        if (rec.point.kind == sim::ChoicePoint::Kind::kFrameLoss && have_loss) continue;
        if (rec.point.kind == sim::ChoicePoint::Kind::kFault && have_fault) continue;
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

ChoiceSet shrink_counterexample(const ExploreOptions& options, ChoiceSet failing) {
    bool shrunk = true;
    while (shrunk && !failing.empty()) {
        shrunk = false;
        for (std::size_t i = 0; i < failing.size(); ++i) {
            ChoiceSet candidate = failing;
            candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
            const RunResult result =
                run_branch(options, candidate, false, kKeyNothing);
            if (!result.violations.empty()) {
                failing = std::move(candidate);
                shrunk = true;
                break;
            }
        }
    }
    return failing;
}

ExploreReport explore(const ExploreOptions& options) {
    ExploreReport report;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.time_budget_seconds));

    std::vector<Branch> frontier{Branch{}};
    StateSet states;
    bool stopped = false;

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
                RunResult result =
                    run_branch(options, branch.choices, false, branch.fork_at);
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
            if (report.runs >= options.max_runs) break;
            Slot& slot = slots[i];
            if (!slot.ran) break; // deadline truncation (or a discarded tail)
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
                    const ChoiceSet& failing = frontier[i].choices;
                    const ChoiceSet minimal = shrink_counterexample(options, failing);
                    RunResult replay = run_branch(options, minimal, true, kKeyNothing);
                    if (replay.violations.empty()) {
                        // Shrinking is best-effort; fall back to the original.
                        replay = run_branch(options, failing, true, kKeyNothing);
                    }
                    Counterexample ce;
                    ce.choices = replay.violations.empty() ? failing : minimal;
                    ce.violations = replay.violations.empty() ? slot.violations
                                                              : replay.violations;
                    ce.script = replay_script(options.scenario, options.mutation,
                                              replay);
                    ce.trace_dump = std::move(replay.trace_dump);
                    ce.provenance_dump = std::move(replay.provenance_dump);
                    ce.provenance_summary = std::move(replay.provenance_summary);
                    report.counterexamples.push_back(std::move(ce));
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
                if (next.size() >= next_cap) break;
                Branch child{frontier[i].choices, fork.at};
                child.choices.push_back(fork.flip);
                next.push_back(std::move(child));
            }
        }
        if (!stopped) frontier = std::move(next);
    }

    report.frontier_exhausted = frontier.empty() && !stopped;
    report.deduped_states = states.size();
    report.elapsed_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    if (options.metrics != nullptr) {
        const telemetry::LabelSet labels{
            {"engine", "forward"},
            {"scenario", options.scenario},
            {"mutation", options.mutation.empty() ? "none" : options.mutation}};
        telemetry::Registry& reg = *options.metrics;
        reg.counter("pimlib_check_runs_total", labels,
                    "scenario replays executed by the checker")
            .inc(report.runs);
        reg.counter("pimlib_check_deduped_states_total", labels,
                    "distinct timed protocol states visited")
            .inc(report.deduped_states);
        reg.counter("pimlib_check_violating_runs_total", labels,
                    "replays that tripped an invariant oracle")
            .inc(report.violating_runs);
        reg.counter("pimlib_check_skipped_branches_total", labels,
                    "inconsistent choice sets discarded on replay")
            .inc(report.skipped_branches);
        reg.counter("pimlib_check_counterexamples_total", labels,
                    "shrunk replayable counterexamples emitted")
            .inc(report.counterexamples.size());
    }
    return report;
}

} // namespace pimlib::check
