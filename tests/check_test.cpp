// Tests for the state-space checker itself (src/check): choice encoding,
// replay determinism, the scenario oracles on known-good and known-bad
// branches, the mutation gate (forward and backward), shrinking, and the
// parallel explorer's thread-count independence.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>

#include "alloc_count.hpp"
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

/// The forward engine's replays of `options`: any violation is a hit.
Search any_violation(const ExploreOptions& options) {
    return Search{options.scenario, options.mutation, options.checkpoint_every,
                  [](const std::vector<Violation>& found) { return !found.empty(); }};
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

TEST(CheckScenario, BulkKeyedCheckpointsMatchStepped) {
    // A keyed checkpoint before the next pending event runs nothing, so the
    // driver stamps it with the key as it stands instead of stopping there.
    // Each replay's keys (count and ordered fold) and event count below
    // were recorded with a driver that stopped at every checkpoint: every
    // scenario's baseline and a child keyed from its fork instant mid-run,
    // at cadences of 1, 3 and 7 ms (no horizon sits on the 3 or 7 ms
    // grid) and of 100 and 1100 us, whose grids also hit the instants
    // where LAN deliveries (0.1 ms) change the MRIB.
    struct Pinned {
        std::string scenario;
        sim::Time every;
        bool child;
        std::size_t count;
        std::uint64_t fold;
        std::size_t events;
    };
    const std::vector<Pinned> pinned = {
        {"walkthrough", 1000, false, 1901, 0x847e0d236a1bc67dull, 866},
        {"walkthrough", 1000, true, 702, 0x2ce0bb69aa71dd3full, 866},
        {"walkthrough", 3000, false, 635, 0xcd5e43ac74b6d426ull, 866},
        {"walkthrough", 3000, true, 236, 0xe66163ae3244cc36ull, 866},
        {"walkthrough", 7000, false, 273, 0x2a8f113d276f1eebull, 866},
        {"walkthrough", 7000, true, 102, 0xbdf3bcd81891e09aull, 866},
        {"walkthrough", 100, false, 19001, 0xd5d847e8e33ee4c8ull, 866},
        {"walkthrough", 100, true, 7002, 0xad8462e0c5a1359eull, 866},
        {"walkthrough", 1100, false, 1730, 0x2d85ce99d66b6e1bull, 866},
        {"walkthrough", 1100, true, 640, 0xddae833f91ed0142ull, 866},
        {"rp-failover", 1000, false, 2301, 0x0a43f0cbc6da0941ull, 707},
        {"rp-failover", 1000, true, 902, 0xc068485cc68e753eull, 706},
        {"rp-failover", 3000, false, 768, 0x8c205597e8dbe7c2ull, 707},
        {"rp-failover", 3000, true, 302, 0x5f3d98c216952a39ull, 706},
        {"rp-failover", 7000, false, 330, 0xd3c75d5aac1f58dfull, 707},
        {"rp-failover", 7000, true, 131, 0x67155d77d0d88f0aull, 706},
        {"rp-failover", 100, false, 23001, 0xd0748a201208364bull, 707},
        {"rp-failover", 100, true, 9002, 0x6fc41a6d1bf9c680ull, 706},
        {"rp-failover", 1100, false, 2092, 0x8ab97820f94decd4ull, 707},
        {"rp-failover", 1100, true, 820, 0xde2d9d38b51d0049ull, 706},
        {"lan-assert", 1000, false, 1651, 0x8b1fc16082dfc95full, 979},
        {"lan-assert", 1000, true, 750, 0x45f12e40d482b3ddull, 979},
        {"lan-assert", 3000, false, 551, 0x9800bef37baf3132ull, 979},
        {"lan-assert", 3000, true, 251, 0x4404558f51923e39ull, 979},
        {"lan-assert", 7000, false, 237, 0x7b1931343bcdd07full, 979},
        {"lan-assert", 7000, true, 109, 0x4695a8c4aefac4b6ull, 979},
        {"lan-assert", 100, false, 16501, 0xe2e6c478c144e2e1ull, 979},
        {"lan-assert", 100, true, 7490, 0xa637645a87e1a0f3ull, 979},
        {"lan-assert", 1100, false, 1501, 0x9f7ffe0a8ce437ddull, 979},
        {"lan-assert", 1100, true, 682, 0x40cc40d8699797e2ull, 979},
        {"bsr-failover", 1000, false, 3301, 0xe65dde2bda256378ull, 1409},
        {"bsr-failover", 1000, true, 1501, 0x6ec0c09cd0eb5c7cull, 1409},
        {"bsr-failover", 3000, false, 1101, 0x8e357a37ffd2f2bdull, 1409},
        {"bsr-failover", 3000, true, 501, 0x55ae7cdd66c0808dull, 1409},
        {"bsr-failover", 7000, false, 473, 0x47213f5e0419256dull, 1409},
        {"bsr-failover", 7000, true, 216, 0x1674acf00e40f27bull, 1409},
        {"bsr-failover", 100, false, 33001, 0x463664df0ae74297ull, 1409},
        {"bsr-failover", 100, true, 14992, 0x12ccccecc2d64d38ull, 1409},
        {"bsr-failover", 1100, false, 3001, 0x6a8a5292d2e58e30ull, 1409},
        {"bsr-failover", 1100, true, 1364, 0x6fd50ad69d0731acull, 1409},
    };
    ASSERT_EQ(pinned.size(), scenario_names().size() * 10);
    for (const Pinned& p : pinned) {
        RunConfig cfg;
        cfg.checkpoint_every = p.every;
        if (p.child) {
            // Flip the middle decision point of the baseline; the child
            // keys from the flipped pick's instant, as the explorer does.
            const RunResult parent = run_scenario(p.scenario, RunConfig{});
            std::vector<std::uint32_t> flippable;
            for (std::uint32_t i = 0; i < parent.trace.size(); ++i) {
                if (parent.trace[i].alternatives > 1) flippable.push_back(i);
            }
            ASSERT_FALSE(flippable.empty()) << p.scenario;
            const std::uint32_t index = flippable[flippable.size() / 2];
            cfg.choices = {Pick{index, 1}};
            cfg.key_from = parent.trace[index].at;
        }
        const RunResult result = run_scenario(p.scenario, cfg);
        std::uint64_t fold = 0;
        for (const std::uint64_t h : result.state_hashes) fold = mcast::state_mix(fold ^ h);
        const std::string what = p.scenario + " every " + std::to_string(p.every) + "us" +
                                 (p.child ? " child" : "");
        EXPECT_EQ(result.state_hashes.size(), p.count) << what;
        EXPECT_EQ(fold, p.fold) << what << std::hex << " fold 0x" << fold;
        EXPECT_EQ(result.events, p.events) << what;
    }
}

TEST(CheckScenario, ReplayAllocationsBounded) {
    // A replay builds only its mutable part: the topology, names and
    // initial routes come from the scenario's blueprint, RNG engines are
    // built on first draw and registry series cost no string temporaries.
    // The bound leaves ~10% over the 1049 allocations one walkthrough
    // baseline replay makes; rebuilding the world's invariant part per run
    // takes it past 2000, and a map node per data crossing to 1173.
    (void)run_scenario("walkthrough", RunConfig{}); // loads every scenario
    const std::uint64_t before = test::g_alloc_count.load();
    const RunResult result = run_scenario("walkthrough", RunConfig{});
    const std::uint64_t allocs = test::g_alloc_count.load() - before;
    EXPECT_TRUE(result.violations.empty()) << render(result.violations);
    EXPECT_LE(allocs, 1150u) << allocs << " allocations";
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
    for (const Mutation& mutation : mutations()) {
        RunConfig cfg;
        cfg.mutation = mutation.name;
        cfg.forced_fault = mutation.forced_fault;
        cfg.forced_loss = mutation.losses;
        runs.emplace_back(mutation.scenario, cfg);
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
    EXPECT_EQ(violating, mutations().size());
}

TEST(CheckScenario, MutationsFailTheTriggeredBranch) {
    for (const Mutation& mutation : mutations()) {
        RunConfig cfg;
        cfg.mutation = mutation.name;
        // Fault-dependent mutations (e.g. a stale RP set) show no symptom
        // until the fault fires, and loss-dependent ones (one-shot assert,
        // fragile RP holdtime) additionally need a specific frame lost;
        // force the documented trigger — the explorer tests below cover
        // finding it unaided.
        cfg.forced_fault = mutation.forced_fault;
        cfg.forced_loss = mutation.losses;
        const RunResult result = run_scenario(mutation.scenario, cfg);
        EXPECT_FALSE(result.violations.empty())
            << mutation.name << " was not caught on its trigger branch";
    }
}

TEST(CheckScenario, RequiresSearchFlagsExactlyTheLossDependentMutations) {
    // The smoke gate's >=5x backward-advantage bar applies only to
    // mutations whose trigger involves frame loss; keep the flag honest.
    std::set<std::string> loss_dependent;
    for (const Mutation& mutation : mutations()) {
        if (mutation.requires_search()) loss_dependent.insert(mutation.name);
    }
    EXPECT_EQ(loss_dependent, (std::set<std::string>{
                                  "one-shot-assert", "fragile-rp-holdtime"}));
}

TEST(CheckScenario, MutationRowsAndTargetFamiliesNameWhatExists) {
    // Nothing else checks these names: a misspelt loss segment is skipped
    // silently, a misspelt fault never fires, a misspelt witness oracle
    // never matches.
    const auto has = [](const std::vector<std::string>& names, const std::string& name) {
        return std::find(names.begin(), names.end(), name) != names.end();
    };
    for (const Mutation& mutation : mutations()) {
        SCOPED_TRACE(mutation.name);
        ASSERT_TRUE(has(scenario_names(), mutation.scenario)) << mutation.scenario;
        EXPECT_TRUE(has(backward_targets(), mutation.target)) << mutation.target;
        const ScenarioInfo& info = scenario_info(mutation.scenario);
        if (!mutation.forced_fault.empty()) {
            // RunConfig::forced_fault fires at the first fault slot.
            ASSERT_FALSE(info.fault_slots.empty());
            std::vector<std::string> labels;
            for (const scenario::Action& fault : info.fault_slots.front().candidates) {
                labels.push_back(scenario::fault_label(fault));
            }
            EXPECT_TRUE(has(labels, mutation.forced_fault)) << mutation.forced_fault;
        }
        std::vector<std::string> segments;
        for (const scenario::SegmentInfo& seg : info.segments) segments.push_back(seg.name);
        for (const ForcedLoss& loss : mutation.losses) {
            EXPECT_TRUE(has(segments, loss.segment)) << loss.segment;
        }
    }
    for (const std::string& target : backward_targets()) {
        EXPECT_FALSE(target_oracles(target).empty()) << target;
        for (const std::string& oracle : target_oracles(target)) {
            EXPECT_NE(find_oracle(oracle), nullptr) << target << ": " << oracle;
        }
    }
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
    for (const Mutation& mutation : mutations()) {
        if (mutation.requires_search()) continue; // backward test below
        ExploreOptions options;
        options.scenario = mutation.scenario;
        options.mutation = mutation.name;
        options.max_runs = 5;
        options.stop_at_first_violation = true;
        const ExploreReport report = explore(options);
        EXPECT_GT(report.violating_runs, 0u) << mutation.name << " not caught";
        ASSERT_FALSE(report.counterexamples.empty()) << mutation.name;
        const Counterexample& ce = report.counterexamples.front();
        EXPECT_FALSE(ce.violations.empty());
        EXPECT_NE(ce.script.find("pimcheck counterexample"), std::string::npos);
        EXPECT_FALSE(ce.trace_dump.empty());
    }
}

TEST(CheckBackward, CatchesEverySeededMutation) {
    for (const Mutation& mutation : mutations()) {
        BackwardOptions options;
        options.mutation = mutation.name;
        options.target = mutation.target;
        options.scenario = mutation.scenario;
        options.max_replays = 100;
        const BackwardReport report = backward_search(options);
        EXPECT_TRUE(report.found()) << mutation.name << " not found backward";
        ASSERT_FALSE(report.counterexamples.empty()) << mutation.name;
        const Counterexample& ce = report.counterexamples.front();
        EXPECT_FALSE(ce.violations.empty()) << mutation.name;
        // The hit must match the searched-for target family.
        EXPECT_TRUE(target_matches(options.target, ce.violations))
            << mutation.name << ": " << render(ce.violations);
    }
}

TEST(CheckBackward, BeatsForwardOnLossDependentMutations) {
    // Cheap in-test version of the smoke gate's >=5x bar (the gate itself
    // measures the full ratio against a 400-run forward cap): forward
    // search burns 25 runs without a hit on each loss-dependent mutation —
    // the measured forward cost is hundreds to thousands of runs — while
    // backward lands within a small fixed replay budget (measured: 5 for
    // one-shot-assert, 35 for fragile-rp-holdtime).
    for (const Mutation& mutation : mutations()) {
        if (!mutation.requires_search()) continue;

        ExploreOptions forward;
        forward.scenario = mutation.scenario;
        forward.mutation = mutation.name;
        forward.max_runs = 25;
        forward.stop_at_first_violation = true;
        const ExploreReport fwd = explore(forward);
        EXPECT_EQ(fwd.violating_runs, 0u)
            << mutation.name << " unexpectedly trivial for forward search";

        BackwardOptions backward;
        backward.mutation = mutation.name;
        backward.target = mutation.target;
        backward.scenario = mutation.scenario;
        backward.max_replays = 100;
        const BackwardReport bwd = backward_search(backward);
        ASSERT_TRUE(bwd.found()) << mutation.name;
        EXPECT_LE(bwd.replays_to_hit, 50u)
            << mutation.name << " backward took " << bwd.replays_to_hit;
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
    const ChoiceSet shrunk = shrink(any_violation(options), ChoiceSet{{0, 1}});
    EXPECT_TRUE(shrunk.empty());
}

TEST(CheckExplorer, ShrinkIsIdempotentAndMinimal) {
    // stale-rp-set-after-bsr-failover needs exactly its crash fault: find
    // the counterexample backward, then check the shrunk choice set (a) is
    // a fixed point of shrinking and (b) cannot lose any single pick and
    // still violate.
    const Mutation* stale = find_mutation("stale-rp-set-after-bsr-failover");
    ASSERT_NE(stale, nullptr);
    BackwardOptions backward;
    backward.mutation = stale->name;
    backward.target = stale->target;
    backward.scenario = stale->scenario;
    backward.max_replays = 50;
    const BackwardReport report = backward_search(backward);
    ASSERT_TRUE(report.found());
    const ChoiceSet shrunk = report.counterexamples.front().choices;
    ASSERT_FALSE(shrunk.empty()); // the fault pick must survive shrinking

    ExploreOptions options;
    options.scenario = backward.scenario;
    options.mutation = backward.mutation;
    EXPECT_EQ(shrink(any_violation(options), shrunk), shrunk);

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
    options.scenario = find_mutation(options.mutation)->scenario;
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
    // the budget cut must still report its frontier as open. rp-failover at
    // 300 runs trims a wave to the budget whose branches all sit at the
    // depth limit, so it ends with no frontier left although children were
    // dropped at the cut (its whole tree takes 4633 runs).
    struct Cut {
        std::string scenario;
        std::size_t budget;
        std::size_t children;
    };
    const ExploreOptions defaults;
    for (const Cut& c : {Cut{defaults.scenario, 1, defaults.children_per_run},
                         Cut{defaults.scenario, 8, defaults.children_per_run},
                         Cut{"rp-failover", 300, 16}}) {
        ExploreOptions options;
        options.scenario = c.scenario;
        options.max_runs = c.budget;
        options.children_per_run = c.children;
        options.time_budget_seconds = 3600;
        const ExploreReport report = explore(options);
        EXPECT_EQ(report.runs, c.budget) << c.scenario;
        EXPECT_FALSE(report.frontier_exhausted) << c.scenario << ' ' << c.budget;
    }
}

TEST(CheckExplorer, SearchFingerprintsUnchanged) {
    // Each scenario's search at a budget that reaches depth 2 (16 children
    // per run), pinned as recorded before children keyed from their fork
    // instant and the slots dropped what the merge does not read: those
    // cuts skip only work whose result is known, so no count may move.
    // Every one of these searches is cut by its budget, so none has
    // exhausted its frontier.
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
        {"rp-failover", 300, 4103, 0, 0, false},
        {"lan-assert", 300, 2903, 0, 0, false},
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
