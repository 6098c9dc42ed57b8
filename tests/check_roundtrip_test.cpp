// Counterexample round-trip tests: every artifact pimcheck emits must be
// actionable. The replay spec embedded in an emitted script's header is
// parsed back out and re-run in-process (same violation must fire), and
// the script itself is fed through the library's script interpreter (the
// one pimsim runs) to prove the emitted text is a loadable scenario. Every
// shipped script — examples/scenarios and the embedded checker scenarios —
// must load and run the same way.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <iterator>
#include <set>
#include <string>

#include <unistd.h>

#include "check/backward.hpp"
#include "check/explorer.hpp"
#include "scenario/world.hpp"

namespace {

using pimlib::check::ChoiceSet;
using pimlib::check::Counterexample;
using pimlib::check::RunConfig;
using pimlib::check::RunResult;
using pimlib::check::Violation;
using pimlib::scenario::run_script;

/// Parsed form of a counterexample script's header comments.
struct ReplaySpec {
    std::string scenario;
    std::string mutation;
    ChoiceSet choices; // empty when the baseline branch already fails
};

std::string word_after(const std::string& text, const std::string& flag,
                       std::size_t from = 0) {
    const std::size_t at = text.find(flag, from);
    if (at == std::string::npos) return {};
    std::size_t begin = at + flag.size();
    std::size_t end = begin;
    while (end < text.size() && text[end] != ' ' && text[end] != '\n' &&
           text[end] != ')') {
        ++end;
    }
    return text.substr(begin, end - begin);
}

std::optional<ReplaySpec> parse_header(const std::string& script) {
    ReplaySpec spec;
    spec.scenario = word_after(script, "-- scenario ");
    if (spec.scenario.empty()) return std::nullopt;
    spec.mutation = word_after(script, " --mutate ");
    const std::string replay = word_after(script, " --replay ");
    if (!replay.empty()) {
        const auto parsed = pimlib::check::parse_choices(replay);
        if (!parsed.has_value()) return std::nullopt;
        spec.choices = *parsed;
    }
    return spec;
}

std::set<std::string> oracle_set(const std::vector<Violation>& violations) {
    std::set<std::string> out;
    for (const Violation& v : violations) out.insert(v.oracle);
    return out;
}

/// Re-runs the spec extracted from `ce.script` and checks the same oracle
/// family fires again.
void expect_round_trip(const Counterexample& ce) {
    const auto spec = parse_header(ce.script);
    ASSERT_TRUE(spec.has_value()) << ce.script.substr(0, 200);
    RunConfig cfg;
    cfg.choices = spec->choices;
    cfg.mutation = spec->mutation;
    const RunResult replayed =
        pimlib::check::run_scenario(spec->scenario, cfg);
    EXPECT_FALSE(replayed.violations.empty())
        << "replay spec reproduced nothing: " << ce.script.substr(0, 300);
    EXPECT_EQ(oracle_set(replayed.violations), oracle_set(ce.violations));
}

TEST(CounterexampleRoundTrip, ForwardBaselineVisibleMutation) {
    pimlib::check::ExploreOptions options;
    options.mutation = "assert-loser-keeps-forwarding";
    options.scenario = pimlib::check::find_mutation(options.mutation)->scenario;
    options.max_runs = 5;
    options.stop_at_first_violation = true;
    const auto report = pimlib::check::explore(options);
    ASSERT_FALSE(report.counterexamples.empty());
    expect_round_trip(report.counterexamples.front());
}

TEST(CounterexampleRoundTrip, BackwardFaultDependentMutation) {
    pimlib::check::BackwardOptions options;
    options.mutation = "stale-rp-set-after-bsr-failover";
    options.target = pimlib::check::find_mutation(options.mutation)->target;
    options.scenario = pimlib::check::find_mutation(options.mutation)->scenario;
    options.max_replays = 50;
    const auto report = pimlib::check::backward_search(options);
    ASSERT_TRUE(report.found());
    expect_round_trip(report.counterexamples.front());
}

TEST(CounterexampleRoundTrip, BackwardLossDependentMutation) {
    pimlib::check::BackwardOptions options;
    options.mutation = "one-shot-assert";
    options.target = pimlib::check::find_mutation(options.mutation)->target;
    options.scenario = pimlib::check::find_mutation(options.mutation)->scenario;
    options.max_replays = 100;
    const auto report = pimlib::check::backward_search(options);
    ASSERT_TRUE(report.found());
    expect_round_trip(report.counterexamples.front());
}

// --- pimsim parser round trip -------------------------------------------

TEST(CounterexampleRoundTrip, EmittedScriptIsLoadablePimsimScenario) {
    // A counterexample with a fault pick exercises the emitted
    // crash/restart fault directives too.
    pimlib::check::BackwardOptions options;
    options.mutation = "stale-rp-set-after-bsr-failover";
    options.target = pimlib::check::find_mutation(options.mutation)->target;
    options.scenario = pimlib::check::find_mutation(options.mutation)->scenario;
    options.max_replays = 50;
    const auto report = pimlib::check::backward_search(options);
    ASSERT_TRUE(report.found());
    const std::string& script = report.counterexamples.front().script;
    EXPECT_NE(script.find("at 500ms crash-router R1"), std::string::npos) << script;
    // The interpreter pimsim runs: parse + full run, throwing on any error.
    testing::internal::CaptureStdout();
    bool held = false;
    EXPECT_NO_THROW(held = run_script(script));
    EXPECT_TRUE(held);
    (void)testing::internal::GetCapturedStdout();
}

TEST(CounterexampleRoundTrip, EmittedScriptCarriesItsMutation) {
    // pimsim runs the script alone: without its `mutate` line a mutated
    // counterexample replays on the healthy protocol and shows nothing.
    for (const pimlib::check::Mutation& mutation : pimlib::check::mutations()) {
        SCOPED_TRACE(mutation.name);
        RunConfig cfg;
        cfg.mutation = mutation.name;
        cfg.forced_fault = mutation.forced_fault;
        cfg.forced_loss = mutation.losses;
        const std::string script = pimlib::check::replay_script(
            mutation.scenario, mutation.name,
            pimlib::check::run_scenario(mutation.scenario, cfg));
        EXPECT_EQ(pimlib::scenario::parse_script(script).mutations,
                  std::vector<std::string>{mutation.name});
        testing::internal::CaptureStdout();
        bool held = false;
        EXPECT_NO_THROW(held = run_script(script));
        EXPECT_TRUE(held);
        (void)testing::internal::GetCapturedStdout();
    }
}

/// What parsing, building and running `text` throws, or "" when it runs.
std::string script_error(const std::string& text) {
    testing::internal::CaptureStdout();
    std::string error;
    try {
        (void)run_script(text);
    } catch (const std::exception& e) {
        error = e.what();
    }
    (void)testing::internal::GetCapturedStdout();
    return error;
}

TEST(CounterexampleRoundTrip, PimsimParserRejectsGarbage) {
    EXPECT_NE(script_error("run 1x\n"), ""); // bad unit
    EXPECT_NE(script_error("protocol warp-drive\nrun 1ms\n"), "");
    // Numbers are checked, and every error names its line.
    const std::string head = "topology\nrouter A\nlan lan0 A\nhost h lan0\nend\n";
    EXPECT_EQ(script_error(head + "at -5ms join h 224.1.1.1\nrun 1s\n"),
              "line 6: negative time '-5ms'");
    EXPECT_EQ(script_error(head + "workload churn rate=abc\nrun 1s\n"),
              "line 6: bad rate 'abc'");
    EXPECT_EQ(script_error(head + "at 1ms send h 224.1.1.1 count=-3\nrun 1s\n"),
              "line 6: bad count '-3'");
    EXPECT_EQ(script_error(head + "at 1ms send h 224.1.1.1 count=0\nrun 1s\n"),
              "line 6: bad count '0'");
    EXPECT_EQ(script_error(head + "at 1ms loss-lan lan0 1.5\nrun 1s\n"),
              "line 6: bad loss rate '1.5'");
    // Observer switches take on|off and nothing else: ring sizes are fixed.
    EXPECT_EQ(script_error(head + "provenance on 64\nrun 1s\n"),
              "line 6: provenance takes on|off");
    EXPECT_EQ(script_error(head + "profile on 4096\nrun 1s\n"),
              "line 6: profile takes on|off");
    EXPECT_EQ(script_error(head + "fault-slot 1ms crash-router\nrun 1s\n"),
              "line 6: fault candidate 'crash-router' must be fail-link:A,B or crash-router:R");
    // Names are checked when the world is built, still with the line.
    EXPECT_EQ(script_error(head + "at 1ms join nobody 224.1.1.1\nrun 1s\n"),
              "line 6: no host named nobody");
    EXPECT_EQ(script_error(head + "at 1ms send h 224.1.1.1 count=3\nrun 1s\n"), "");
    EXPECT_EQ(script_error(head + "expect h 224.1.1.1 -1\nrun 1s\n"), "line 6: bad count '-1'");
    EXPECT_EQ(script_error(head + "expect nobody 224.1.1.1 1\nrun 1s\n"),
              "line 6: no host named nobody");
    // An unmet expect is no script error: the run reports the failing line
    // and returns false, which pimsim turns into exit status 1.
    testing::internal::CaptureStdout();
    EXPECT_FALSE(run_script(head + "expect h 224.1.1.1 1\nrun 1s\n"));
    EXPECT_NE(testing::internal::GetCapturedStdout().find(
                  "h            224.1.1.1 >= 1: received 0 (0 duplicates) FAILED (line 6)"),
              std::string::npos);
}

// --- every shipped script loads and runs ---------------------------------

TEST(PimsimScripts, EveryExampleAndCheckerScenarioRuns) {
    std::vector<std::string> scripts;
    for (const auto& entry : std::filesystem::directory_iterator(PIMLIB_SCENARIO_DIR)) {
        std::ifstream file(entry.path());
        scripts.emplace_back(std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>());
    }
    EXPECT_EQ(scripts.size(), 11u);
    for (const std::string& name : pimlib::check::scenario_names()) {
        scripts.emplace_back(pimlib::check::scenario_script(name));
    }
    // walkthrough_pentagon writes a timeline file into the working directory.
    namespace fs = std::filesystem;
    const fs::path home = fs::current_path();
    const fs::path scratch =
        fs::temp_directory_path() / ("pimlib-scripts-" + std::to_string(::getpid()));
    fs::create_directories(scratch);
    fs::current_path(scratch);
    for (const std::string& text : scripts) {
        testing::internal::CaptureStdout();
        bool held = false;
        EXPECT_NO_THROW(held = run_script(text)) << text.substr(0, 200);
        EXPECT_TRUE(held) << text.substr(0, 200);
        EXPECT_NE(testing::internal::GetCapturedStdout().find("--- delivery report ---"),
                  std::string::npos);
    }
    fs::current_path(home);
    fs::remove_all(scratch);
}

// --- crash-router under every protocol -----------------------------------

/// The walkthrough pentagon under `protocol`: two bursts to A's receiver,
/// with A crashed between them and restarted before the second.
std::string pentagon_crash_script(std::string_view protocol) {
    using pimlib::scenario::parse_script;
    return "topology\n" + parse_script(pimlib::check::scenario_script("walkthrough")).topology +
           "end\n"
           "protocol " + std::string(protocol) + "\n"
           "rp 224.1.1.1 C\n"
           "at 120ms join receiver 224.1.1.1\n"
           "at 250ms send source 224.1.1.1 count=30 interval=10ms\n"
           "at 500ms dump-state\n"
           "at 600ms snapshot\n"
           "at 650ms crash-router A\n"
           "at 660ms snapshot\n"
           "at 700ms restart-router A\n"
           "at 1200ms send source 224.1.1.1 count=30 interval=10ms\n"
           "run 2000ms\n";
}

/// The report section that starts with `header`, up to the next one.
std::string section(const std::string& report, const std::string& header) {
    const std::size_t at = report.find(header);
    if (at == std::string::npos) return {};
    return report.substr(at, report.find("\n---", at) - at);
}

TEST(PimsimScripts, CrashRouterRebootsEveryProtocol) {
    using pimlib::scenario::World;
    for (const auto& [protocol, make] : pimlib::scenario::kStackProtocols) {
        SCOPED_TRACE(protocol);
        const pimlib::scenario::Blueprint plan(
            pimlib::scenario::parse_script(pentagon_crash_script(protocol)));
        World world(plan, World::Observers::kScript);
        world.start_workloads();
        world.schedule_actions();
        testing::internal::CaptureStdout();
        world.run_and_report();
        const std::string report = testing::internal::GetCapturedStdout();

        EXPECT_NE(section(report, "--- state at t=500.0ms").find("\n  A "), std::string::npos)
            << report;
        // The crash drops A's protocol state with it.
        EXPECT_NE(section(report, "--- mrib snapshot at t=660.0ms").find("\n- A "),
                  std::string::npos)
            << report;
        // Rebooted, A rebuilds its tree and the second burst gets through.
        std::size_t after_restart = 0;
        for (const auto& rec : world.host("receiver").received()) {
            if (rec.at > 700 * pimlib::sim::kMillisecond) ++after_restart;
        }
        EXPECT_GT(after_restart, 0u);
    }
}

} // namespace
