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
    options.scenario = pimlib::check::scenario_for_mutation(options.mutation);
    options.max_runs = 5;
    options.stop_at_first_violation = true;
    const auto report = pimlib::check::explore(options);
    ASSERT_FALSE(report.counterexamples.empty());
    expect_round_trip(report.counterexamples.front());
}

TEST(CounterexampleRoundTrip, BackwardFaultDependentMutation) {
    pimlib::check::BackwardOptions options;
    options.mutation = "stale-rp-set-after-bsr-failover";
    options.target = pimlib::check::target_for_mutation(options.mutation);
    options.scenario =
        pimlib::check::scenario_for_mutation(options.mutation);
    options.max_replays = 50;
    const auto report = pimlib::check::backward_search(options);
    ASSERT_TRUE(report.found());
    expect_round_trip(report.counterexamples.front());
}

TEST(CounterexampleRoundTrip, BackwardLossDependentMutation) {
    pimlib::check::BackwardOptions options;
    options.mutation = "one-shot-assert";
    options.target = pimlib::check::target_for_mutation(options.mutation);
    options.scenario =
        pimlib::check::scenario_for_mutation(options.mutation);
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
    options.target = pimlib::check::target_for_mutation(options.mutation);
    options.scenario =
        pimlib::check::scenario_for_mutation(options.mutation);
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

} // namespace
