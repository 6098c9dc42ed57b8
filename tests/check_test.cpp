// Tests for the state-space checker itself (src/check): choice encoding,
// replay determinism, the scenario oracles on known-good and known-bad
// branches, the mutation gate (forward and backward), shrinking, and the
// parallel explorer's thread-count independence.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>

#include "check/backward.hpp"
#include "check/explorer.hpp"
#include "check/state_set.hpp"
#include "mcast/forwarding_entry.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace pimlib::check {
namespace {

std::string render(const std::vector<Violation>& violations) {
    std::string out;
    for (const Violation& v : violations) {
        out += v.oracle + ": " + v.detail + "\n";
    }
    return out;
}

std::string render(const std::vector<ChoiceRec>& trace) {
    std::string out;
    for (const ChoiceRec& rec : trace) {
        out += std::to_string(static_cast<int>(rec.point.kind)) + "/" +
               std::to_string(rec.point.detail) + (rec.point.control ? "c" : "d") + " " +
               std::to_string(rec.pick) + "of" + std::to_string(rec.alternatives) + "@" +
               std::to_string(rec.at) + "\n";
    }
    return out;
}

TEST(StateSet, HoldsTheZeroKey) {
    StateSet set;
    EXPECT_FALSE(set.contains(0));
    EXPECT_TRUE(set.insert(0));
    EXPECT_FALSE(set.insert(0));
    EXPECT_TRUE(set.contains(0));
    EXPECT_EQ(set.size(), 1u);
    // 0 is the empty-slot marker; holding it must not hide a real key.
    EXPECT_FALSE(set.contains(1024));
    EXPECT_TRUE(set.insert(1024));
    EXPECT_TRUE(set.contains(1024));
    EXPECT_EQ(set.size(), 2u);
}

TEST(StateSet, GrowsPastItsLoadLimitAndFindsEveryKeyAfterRehash) {
    StateSet set;
    std::mt19937_64 rng(7);
    std::vector<std::uint64_t> keys;
    // Random keys, like the splitmix outputs the explorer stores, plus a
    // run of small integers that all collide in the low bits' first slots.
    for (int i = 0; i < 20000; ++i) keys.push_back(rng() | 1);
    for (std::uint64_t k = 1; k <= 3000; ++k) keys.push_back(k);
    std::size_t capacity = 0;
    std::size_t rehashes = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(set.insert(keys[i])) << i;
        if (set.capacity() != capacity) {
            ++rehashes;
            capacity = set.capacity();
            // Every key so far survives the rehash.
            for (std::size_t j = 0; j <= i; ++j) ASSERT_TRUE(set.contains(keys[j])) << j;
        }
        ASSERT_LE(2 * set.size(), set.capacity()) << "past the load limit";
    }
    EXPECT_GE(rehashes, 5u);
    EXPECT_EQ(set.size(), keys.size());
    for (const std::uint64_t k : keys) {
        EXPECT_FALSE(set.insert(k));
        EXPECT_TRUE(set.contains(k));
    }
    EXPECT_EQ(set.size(), keys.size());
    for (std::uint64_t k = 3001; k <= 6000; ++k) EXPECT_FALSE(set.contains(k)) << k;
    EXPECT_FALSE(set.contains(0));
}

TEST(ChoiceCodec, FormatParseRoundTrip) {
    const ChoiceSet choices = {{3, 1}, {17, 2}, {240, 1}};
    const std::string wire = format_choices(choices);
    const auto parsed = parse_choices(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, choices);
}

TEST(ChoiceCodec, ParseRejectsGarbage) {
    EXPECT_FALSE(parse_choices("not-a-spec").has_value());
    EXPECT_FALSE(parse_choices("3:").has_value());
    EXPECT_FALSE(parse_choices("3:1,").has_value());
    EXPECT_FALSE(parse_choices(":2").has_value());
}

TEST(ChoiceCodec, ParseSortsByIndex) {
    const auto parsed = parse_choices("17:2,3:1");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, (ChoiceSet{{3, 1}, {17, 2}}));
}

TEST(ChoiceCodec, FuzzRoundTrip) {
    // Random (but seeded) sparse choice sets must survive format -> parse
    // unchanged: the wire format is how counterexamples reach --replay.
    std::mt19937 rng(20260807);
    std::uniform_int_distribution<std::uint32_t> index_dist(0, 50'000);
    std::uniform_int_distribution<std::uint32_t> value_dist(1, 40);
    std::uniform_int_distribution<int> size_dist(0, 12);
    for (int round = 0; round < 300; ++round) {
        ChoiceSet choices;
        std::set<std::uint32_t> used;
        const int size = size_dist(rng);
        while (static_cast<int>(choices.size()) < size) {
            const std::uint32_t index = index_dist(rng);
            if (!used.insert(index).second) continue;
            choices.push_back(Pick{index, value_dist(rng)});
        }
        std::sort(choices.begin(), choices.end(),
                  [](const Pick& a, const Pick& b) { return a.index < b.index; });
        const auto parsed = parse_choices(format_choices(choices));
        ASSERT_TRUE(parsed.has_value()) << format_choices(choices);
        EXPECT_EQ(*parsed, choices) << format_choices(choices);
    }
}

TEST(CheckScenario, BaselineWalkthroughSatisfiesAllOracles) {
    const RunResult result = run_scenario("walkthrough", RunConfig{});
    EXPECT_TRUE(result.violations.empty()) << render(result.violations);
    EXPECT_TRUE(result.clean);
    EXPECT_TRUE(result.converged);
    EXPECT_TRUE(result.choices_applied);
    EXPECT_GT(result.state_hashes.size(), 10u);
}

TEST(CheckScenario, ReplayIsDeterministic) {
    const RunResult first = run_scenario("walkthrough", RunConfig{});
    const RunResult second = run_scenario("walkthrough", RunConfig{});
    ASSERT_EQ(first.state_hashes.size(), second.state_hashes.size());
    EXPECT_EQ(first.state_hashes, second.state_hashes);
    EXPECT_EQ(first.trace.size(), second.trace.size());
    EXPECT_TRUE(telemetry::diff(first.final_mrib, second.final_mrib).empty());
}

TEST(CheckScenario, BaselineStateHashesUnchanged) {
    // Every checkpoint's timed state key of each baseline replay, pinned as
    // (count, ordered fold). The dedup set and every explorer report are
    // built from these keys; a change that only makes keying cheaper must
    // not move one of them.
    struct Pinned {
        std::string scenario;
        std::size_t count;
        std::uint64_t fold;
    };
    const std::vector<Pinned> pinned = {
        {"walkthrough", 1901, 0x847e0d236a1bc67dull},
        {"rp-failover", 2301, 0x0a43f0cbc6da0941ull},
        {"lan-assert", 1651, 0x8b1fc16082dfc95full},
        {"bsr-failover", 3301, 0xe65dde2bda256378ull},
    };
    ASSERT_EQ(pinned.size(), scenario_names().size());
    for (const Pinned& p : pinned) {
        const RunResult result = run_scenario(p.scenario, RunConfig{});
        std::uint64_t fold = 0;
        for (const std::uint64_t h : result.state_hashes) fold = mcast::state_mix(fold ^ h);
        EXPECT_EQ(result.state_hashes.size(), p.count) << p.scenario;
        EXPECT_EQ(fold, p.fold) << p.scenario << std::hex << " fold 0x" << fold;
    }
}

TEST(CheckScenario, ChildKeysBeforeTheForkAreTheParents) {
    // The explorer keys a child only from its fork instant (the clock of its
    // flipped pick in the parent's run): up to that instant the child
    // replays its parent, so the keys it skips are the parent's. Check it on
    // children spread over each baseline's decision points, keying the child
    // fully.
    for (const std::string& name : scenario_names()) {
        const RunResult parent = run_scenario(name, RunConfig{});
        std::vector<std::uint32_t> flippable;
        for (std::uint32_t i = 0; i < parent.trace.size(); ++i) {
            if (parent.trace[i].alternatives > 1) flippable.push_back(i);
        }
        ASSERT_GE(flippable.size(), 8u) << name;
        for (std::size_t n = 0; n < 8; ++n) {
            const std::uint32_t index = flippable[n * (flippable.size() - 1) / 7];
            const sim::Time fork_at = parent.trace[index].at;
            RunConfig full;
            full.choices = {Pick{index, 1}};
            RunConfig forked = full;
            forked.key_from = fork_at;
            const RunResult child = run_scenario(name, full);
            const RunResult keyed_from_fork = run_scenario(name, forked);
            ASSERT_TRUE(child.choices_applied) << name << " " << index;
            // The forked run keys exactly the full run's tail ...
            const std::size_t tail = keyed_from_fork.state_hashes.size();
            ASSERT_LE(tail, child.state_hashes.size());
            const std::size_t prefix = child.state_hashes.size() - tail;
            EXPECT_TRUE(std::equal(keyed_from_fork.state_hashes.begin(),
                                   keyed_from_fork.state_hashes.end(),
                                   child.state_hashes.begin() +
                                       static_cast<std::ptrdiff_t>(prefix)))
                << name << " " << index;
            // ... and the skipped head is the parent's.
            ASSERT_LE(prefix, parent.state_hashes.size());
            EXPECT_TRUE(std::equal(child.state_hashes.begin(),
                                   child.state_hashes.begin() +
                                       static_cast<std::ptrdiff_t>(prefix),
                                   parent.state_hashes.begin()))
                << name << " " << index << " fork at " << fork_at;
            // Up to the horizon the checkpoints sit on the 1 ms grid: the
            // forked run skips exactly those before the fork instant.
            if (fork_at <= scenario_info(name).horizon) {
                const auto before = static_cast<std::size_t>(
                    fork_at > 0 ? (fork_at - 1) / sim::kMillisecond : 0);
                EXPECT_EQ(prefix, before) << name << " fork at " << fork_at;
            }
        }
    }
}

TEST(CheckScenario, KeyFreeReplayRunsTheSameExecution) {
    // Keying only reads the MRIB: a replay that keys nothing must run the
    // same events, take the same choices and find the same violations. The
    // mutation triggers give every scenario a violating branch to compare.
    std::vector<std::pair<std::string, RunConfig>> runs;
    for (const std::string& name : scenario_names()) runs.emplace_back(name, RunConfig{});
    for (const std::string& mutation : known_mutations()) {
        RunConfig cfg;
        cfg.mutation = mutation;
        cfg.forced_fault = forced_fault_for_mutation(mutation);
        cfg.forced_loss = trigger_for_mutation(mutation).losses;
        runs.emplace_back(scenario_for_mutation(mutation), cfg);
    }
    std::size_t violating = 0;
    for (const auto& [name, keyed_cfg] : runs) {
        RunConfig unkeyed_cfg = keyed_cfg;
        unkeyed_cfg.key_from = kKeyNothing;
        const RunResult keyed = run_scenario(name, keyed_cfg);
        const RunResult unkeyed = run_scenario(name, unkeyed_cfg);
        const std::string what = name + " " + keyed_cfg.mutation;
        EXPECT_FALSE(keyed.state_hashes.empty()) << what;
        EXPECT_TRUE(unkeyed.state_hashes.empty()) << what;
        EXPECT_EQ(render(unkeyed.violations), render(keyed.violations)) << what;
        EXPECT_EQ(render(unkeyed.trace), render(keyed.trace)) << what;
        EXPECT_EQ(unkeyed.events, keyed.events) << what;
        EXPECT_EQ(unkeyed.end_time, keyed.end_time) << what;
        EXPECT_EQ(unkeyed.converged, keyed.converged) << what;
        EXPECT_TRUE(telemetry::diff(unkeyed.final_mrib, keyed.final_mrib).empty()) << what;
        if (!keyed.violations.empty()) ++violating;
    }
    EXPECT_EQ(violating, known_mutations().size());
}

TEST(CheckScenario, MutationsFailTheTriggeredBranch) {
    for (const std::string& mutation : known_mutations()) {
        RunConfig cfg;
        cfg.mutation = mutation;
        // Fault-dependent mutations (e.g. a stale RP set) show no symptom
        // until the fault fires, and loss-dependent ones (one-shot assert,
        // fragile RP holdtime) additionally need a specific frame lost;
        // force the documented trigger — the explorer tests below cover
        // finding it unaided.
        cfg.forced_fault = forced_fault_for_mutation(mutation);
        cfg.forced_loss = trigger_for_mutation(mutation).losses;
        const RunResult result =
            run_scenario(scenario_for_mutation(mutation), cfg);
        EXPECT_FALSE(result.violations.empty())
            << mutation << " was not caught on its trigger branch";
    }
}

TEST(CheckScenario, RequiresSearchFlagsExactlyTheLossDependentMutations) {
    // The smoke gate's >=5x backward-advantage bar applies only to
    // mutations whose trigger involves frame loss; keep the flag honest.
    std::set<std::string> loss_dependent;
    for (const std::string& mutation : known_mutations()) {
        if (mutation_requires_search(mutation)) loss_dependent.insert(mutation);
    }
    EXPECT_EQ(loss_dependent, (std::set<std::string>{
                                  "one-shot-assert", "fragile-rp-holdtime"}));
}

TEST(CheckScenario, RpFailoverRehomesToAlternate) {
    RunConfig crash;
    crash.forced_fault = "crash-router-R1";
    const RunResult crashed = run_scenario("rp-failover", crash);
    // The §3.9 oracle inside the scenario asserts every member's (*,G) is
    // rooted at R2 by the deadline; any violation here is a failover bug.
    EXPECT_TRUE(crashed.violations.empty()) << render(crashed.violations);
    EXPECT_FALSE(crashed.clean);

    const RunResult calm = run_scenario("rp-failover", RunConfig{});
    EXPECT_TRUE(calm.violations.empty()) << render(calm.violations);

    // The two end states must be structurally different trees (different
    // RP roots), and the diff machinery must see that.
    const telemetry::MribDiff d = telemetry::diff(calm.final_mrib,
                                                  crashed.final_mrib);
    EXPECT_FALSE(d.empty());
}

TEST(CheckExplorer, MutationGateCatchesSeededBugs) {
    for (const std::string& mutation : known_mutations()) {
        if (mutation_requires_search(mutation)) continue; // backward test below
        ExploreOptions options;
        options.scenario = scenario_for_mutation(mutation);
        options.mutation = mutation;
        options.max_runs = 5;
        options.stop_at_first_violation = true;
        const ExploreReport report = explore(options);
        EXPECT_GT(report.violating_runs, 0u) << mutation << " not caught";
        ASSERT_FALSE(report.counterexamples.empty()) << mutation;
        const Counterexample& ce = report.counterexamples.front();
        EXPECT_FALSE(ce.violations.empty());
        EXPECT_NE(ce.script.find("pimcheck counterexample"), std::string::npos);
        EXPECT_FALSE(ce.trace_dump.empty());
    }
}

TEST(CheckBackward, CatchesEverySeededMutation) {
    for (const std::string& mutation : known_mutations()) {
        BackwardOptions options;
        options.mutation = mutation;
        options.target = target_for_mutation(mutation);
        options.scenario = scenario_for_mutation(options.mutation);
        options.max_replays = 100;
        const BackwardReport report = backward_search(options);
        EXPECT_TRUE(report.found()) << mutation << " not found backward";
        ASSERT_FALSE(report.counterexamples.empty()) << mutation;
        const Counterexample& ce = report.counterexamples.front();
        EXPECT_FALSE(ce.violations.empty()) << mutation;
        // The hit must match the searched-for target family.
        EXPECT_TRUE(target_matches(options.target, ce.violations))
            << mutation << ": " << render(ce.violations);
    }
}

TEST(CheckBackward, BeatsForwardOnLossDependentMutations) {
    // Cheap in-test version of the smoke gate's >=5x bar (the gate itself
    // measures the full ratio against a 400-run forward cap): forward
    // search burns 25 runs without a hit on each loss-dependent mutation —
    // the measured forward cost is hundreds to thousands of runs — while
    // backward lands within a small fixed replay budget (measured: 5 for
    // one-shot-assert, 35 for fragile-rp-holdtime).
    for (const std::string& mutation : known_mutations()) {
        if (!mutation_requires_search(mutation)) continue;

        ExploreOptions forward;
        forward.scenario = scenario_for_mutation(mutation);
        forward.mutation = mutation;
        forward.max_runs = 25;
        forward.stop_at_first_violation = true;
        const ExploreReport fwd = explore(forward);
        EXPECT_EQ(fwd.violating_runs, 0u)
            << mutation << " unexpectedly trivial for forward search";

        BackwardOptions backward;
        backward.mutation = mutation;
        backward.target = target_for_mutation(mutation);
        backward.scenario = scenario_for_mutation(backward.mutation);
        backward.max_replays = 100;
        const BackwardReport bwd = backward_search(backward);
        ASSERT_TRUE(bwd.found()) << mutation;
        EXPECT_LE(bwd.replays_to_hit, 50u)
            << mutation << " backward took " << bwd.replays_to_hit;
    }
}

TEST(CheckBackward, HealthyProtocolComesUpDry) {
    for (const std::string& target : backward_targets()) {
        BackwardOptions options;
        options.target = target;
        options.scenario = default_scenario_for_target(target);
        options.max_replays = 30;
        const BackwardReport report = backward_search(options);
        EXPECT_FALSE(report.found()) << target << " hit on healthy protocol";
        EXPECT_EQ(report.violating_runs, 0u) << target;
    }
}

TEST(CheckExplorer, ShrinkDropsIrrelevantPicks) {
    // With a seeded bug the deterministic baseline already fails, so any
    // forced pick is removable and shrinking must reach the empty set.
    ExploreOptions options;
    options.mutation = "skip-spt-bit-handshake";
    const ChoiceSet shrunk = shrink_counterexample(options, ChoiceSet{{0, 1}});
    EXPECT_TRUE(shrunk.empty());
}

TEST(CheckExplorer, ShrinkIsIdempotentAndMinimal) {
    // stale-rp-set-after-bsr-failover needs exactly its crash fault: find
    // the counterexample backward, then check the shrunk choice set (a) is
    // a fixed point of shrinking and (b) cannot lose any single pick and
    // still violate.
    BackwardOptions backward;
    backward.mutation = "stale-rp-set-after-bsr-failover";
    backward.target = target_for_mutation(backward.mutation);
    backward.scenario = scenario_for_mutation(backward.mutation);
    backward.max_replays = 50;
    const BackwardReport report = backward_search(backward);
    ASSERT_TRUE(report.found());
    const ChoiceSet shrunk = report.counterexamples.front().choices;
    ASSERT_FALSE(shrunk.empty()); // the fault pick must survive shrinking

    ExploreOptions options;
    options.scenario = backward.scenario;
    options.mutation = backward.mutation;
    EXPECT_EQ(shrink_counterexample(options, shrunk), shrunk);

    for (std::size_t drop = 0; drop < shrunk.size(); ++drop) {
        ChoiceSet smaller = shrunk;
        smaller.erase(smaller.begin() + static_cast<std::ptrdiff_t>(drop));
        RunConfig cfg;
        cfg.choices = smaller;
        cfg.mutation = options.mutation;
        const RunResult result = run_scenario(options.scenario, cfg);
        EXPECT_TRUE(result.violations.empty())
            << "dropping pick " << drop << " still violates: not minimal";
    }
}

TEST(CheckExplorer, SkippedBranchesBoundedAndMetricsPublished) {
    telemetry::Registry registry;
    ExploreOptions options;
    options.mutation = "no-rp-bit-prune";
    options.scenario = scenario_for_mutation(options.mutation);
    options.max_runs = 6;
    options.stop_at_first_violation = true;
    options.metrics = &registry;
    const ExploreReport report = explore(options);
    EXPECT_GT(report.violating_runs, 0u);
    // A skipped branch (forced picks that no longer apply after the prefix
    // reshaped the run) is still a completed execution: always <= runs.
    EXPECT_LE(report.skipped_branches, report.runs);
    EXPECT_LE(report.runs, options.max_runs);

    const std::string prom = telemetry::to_prometheus(registry);
    EXPECT_NE(prom.find("pimlib_check_runs_total"), std::string::npos);
    EXPECT_NE(prom.find("pimlib_check_violating_runs_total"), std::string::npos);
    EXPECT_NE(prom.find("pimlib_check_counterexamples_total"), std::string::npos);
    EXPECT_NE(prom.find("engine=\"forward\""), std::string::npos);
}

TEST(CheckExplorer, ThreadCountDoesNotChangeResults) {
    // The wave-synchronous explorer must be bit-identical across thread
    // counts: same runs, same dedup, same counterexamples.
    auto run_with = [](std::size_t threads) {
        ExploreOptions options;
        options.scenario = "walkthrough";
        options.max_runs = 60;
        options.threads = threads;
        return explore(options);
    };
    const ExploreReport one = run_with(1);
    const ExploreReport eight = run_with(8);
    EXPECT_EQ(one.runs, eight.runs);
    EXPECT_EQ(one.deduped_states, eight.deduped_states);
    EXPECT_EQ(one.violating_runs, eight.violating_runs);
    EXPECT_EQ(one.skipped_branches, eight.skipped_branches);
    ASSERT_EQ(one.counterexamples.size(), eight.counterexamples.size());
    for (std::size_t i = 0; i < one.counterexamples.size(); ++i) {
        EXPECT_EQ(format_choices(one.counterexamples[i].choices),
                  format_choices(eight.counterexamples[i].choices));
    }
}

TEST(CheckExplorer, RunBudgetLeavesTheFrontierOpen) {
    // The explorer builds no next-wave branch past the run budget; a search
    // the budget cut must still report its frontier as open.
    for (const std::size_t budget : {std::size_t{1}, std::size_t{8}}) {
        ExploreOptions options;
        options.max_runs = budget;
        const ExploreReport report = explore(options);
        EXPECT_EQ(report.runs, budget);
        EXPECT_FALSE(report.frontier_exhausted) << budget;
    }
}

TEST(CheckExplorer, SearchFingerprintsUnchanged) {
    // Each scenario's search at a budget that reaches depth 2 (16 children
    // per run), pinned as recorded before children keyed from their fork
    // instant and the slots dropped what the merge does not read: those
    // cuts skip only work whose result is known, so no count may move.
    struct Pinned {
        std::string scenario;
        std::size_t runs;
        std::size_t deduped_states;
        std::size_t violating_runs;
        std::size_t skipped_branches;
        bool frontier_exhausted;
    };
    const std::vector<Pinned> pinned = {
        {"walkthrough", 300, 8781, 0, 0, false},
        {"rp-failover", 300, 4103, 0, 0, true},
        {"lan-assert", 300, 2903, 0, 0, true},
        {"bsr-failover", 300, 6103, 0, 0, false},
    };
    ASSERT_EQ(pinned.size(), scenario_names().size());
    for (const Pinned& p : pinned) {
        ExploreOptions options;
        options.scenario = p.scenario;
        options.max_runs = 300;
        options.children_per_run = 16;
        options.time_budget_seconds = 3600;
        const ExploreReport report = explore(options);
        EXPECT_EQ(report.runs, p.runs) << p.scenario;
        EXPECT_EQ(report.deduped_states, p.deduped_states) << p.scenario;
        EXPECT_EQ(report.violating_runs, p.violating_runs) << p.scenario;
        EXPECT_EQ(report.skipped_branches, p.skipped_branches) << p.scenario;
        EXPECT_EQ(report.frontier_exhausted, p.frontier_exhausted) << p.scenario;
    }
}

TEST(CheckExplorer, ExploresDistinctStatesWithoutViolations) {
    ExploreOptions options;
    options.max_runs = 8;
    options.max_depth = 2;
    options.time_budget_seconds = 60.0;
    const ExploreReport report = explore(options);
    EXPECT_TRUE(report.clean());
    EXPECT_GE(report.runs, 2u);
    EXPECT_GT(report.deduped_states, 10u);
}

} // namespace
} // namespace pimlib::check
