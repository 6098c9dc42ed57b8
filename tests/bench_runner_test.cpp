// The bench-regression harness (bench/runner_util.hpp): pimbench/1 line
// parsing, baseline files, the noise-aware min-of-N gate — including the
// acceptance case: a planted 2x slowdown fails, a clean re-run passes —
// the paired A/B cost ratio and its variant gate, and the history
// appender.
#include "runner_util.hpp"

#include <gtest/gtest.h>

namespace runner = pimlib::bench::runner;

namespace {

runner::BenchResult result_with(const std::string& bench,
                                std::initializer_list<std::pair<std::string, double>> values) {
    runner::BenchResult r;
    r.bench = bench;
    for (const auto& [name, v] : values) {
        runner::Metric m;
        m.value = v;
        m.better = "lower";
        r.metrics.emplace_back(name, m);
    }
    return r;
}

const char* kBaselineText = R"({
  "bench": "churn_scale",
  "metrics": {
    "joins_per_sec": {"value": 1000.0, "better": "higher", "tolerance": 0.2},
    "join_to_data_p99_s": {"value": 0.5, "better": "lower", "tolerance": 0.25}
  }
})";

} // namespace

TEST(RunnerParse, NormalizedLineRoundTrips) {
    const std::string line =
        R"({"schema":"pimbench/1","bench":"timer_scale","metrics":{)"
        R"("top_speedup":{"value":12.4,"unit":"x","better":"higher"},)"
        R"("wheel_refresh_ns":{"value":85.2,"unit":"ns","better":"info"}}})";
    auto r = runner::parse_normalized_line(line);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->bench, "timer_scale");
    ASSERT_EQ(r->metrics.size(), 2u);
    const runner::Metric* speedup = r->find("top_speedup");
    ASSERT_NE(speedup, nullptr);
    EXPECT_DOUBLE_EQ(speedup->value, 12.4);
    EXPECT_EQ(speedup->unit, "x");
    EXPECT_EQ(speedup->better, "higher");
}

TEST(RunnerParse, RejectsWrongSchemaAndGarbage) {
    EXPECT_FALSE(runner::parse_normalized_line(
        R"({"schema":"pimbench/2","bench":"x","metrics":{}})"));
    EXPECT_FALSE(runner::parse_normalized_line("not json at all"));
    EXPECT_FALSE(runner::parse_normalized_line(
        R"({"schema":"pimbench/1","bench":"x"})"));
    EXPECT_FALSE(runner::parse_normalized_line(
        R"({"schema":"pimbench/1","bench":"x","metrics":{"m":{"unit":"s"}}})"));
}

TEST(RunnerParse, ExtractFindsLastNormalizedLineInNoisyStdout) {
    const std::string stdout_text =
        "churn_scale: warming up\n"
        "| receivers | joins/s |\n"
        "{\"full\":\"bespoke json\",\"points\":[1,2,3]}\n"
        R"({"schema":"pimbench/1","bench":"churn_scale","metrics":{)"
        R"("joins_per_sec":{"value":900,"unit":"1/s","better":"higher"}}})"
        "\n";
    auto r = runner::extract_result(stdout_text);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->bench, "churn_scale");
    ASSERT_NE(r->find("joins_per_sec"), nullptr);
    EXPECT_DOUBLE_EQ(r->find("joins_per_sec")->value, 900.0);

    EXPECT_FALSE(runner::extract_result("no normalized line here\n"));
}

TEST(RunnerBaseline, ParsesAndRejectsInfoMetrics) {
    auto b = runner::parse_baseline(kBaselineText);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->bench, "churn_scale");
    ASSERT_EQ(b->metrics.size(), 2u);
    EXPECT_EQ(b->metrics[0].first, "joins_per_sec");
    EXPECT_DOUBLE_EQ(b->metrics[0].second.tolerance, 0.2);

    // "info" metrics are never gated; a baseline carrying one is a
    // configuration error, not something to silently skip.
    EXPECT_FALSE(runner::parse_baseline(
        R"({"bench":"x","metrics":{"m":{"value":1,"better":"info"}}})"));
}

TEST(RunnerGate, PlantedTwoTimesSlowdownFailsCleanRunPasses) {
    auto baseline = runner::parse_baseline(kBaselineText);
    ASSERT_TRUE(baseline.has_value());

    // Clean run: values at baseline (within tolerance).
    runner::BenchResult clean = result_with("churn_scale", {});
    runner::Metric joins;
    joins.value = 1020.0;
    joins.better = "higher";
    clean.metrics.emplace_back("joins_per_sec", joins);
    runner::Metric p99;
    p99.value = 0.52;
    p99.better = "lower";
    clean.metrics.emplace_back("join_to_data_p99_s", p99);
    EXPECT_TRUE(runner::gate(*baseline, {clean}).pass);

    // Planted regression: p99 doubles (0.5 -> 1.0, limit 0.625).
    runner::BenchResult slow = clean;
    slow.metrics[1].second.value = 1.0;
    const runner::GateReport report = runner::gate(*baseline, {slow});
    EXPECT_FALSE(report.pass);
    bool flagged = false;
    for (const auto& f : report.findings) {
        if (f.metric == "join_to_data_p99_s") {
            EXPECT_TRUE(f.regressed);
            EXPECT_DOUBLE_EQ(f.best, 1.0);
            EXPECT_DOUBLE_EQ(f.limit, 0.625);
            flagged = true;
        }
    }
    EXPECT_TRUE(flagged);
}

TEST(RunnerGate, MinOfNToleratesOneNoisyRun) {
    auto baseline = runner::parse_baseline(kBaselineText);
    ASSERT_TRUE(baseline.has_value());

    auto run_at = [](double joins, double p99) {
        runner::BenchResult r;
        r.bench = "churn_scale";
        runner::Metric j;
        j.value = joins;
        j.better = "higher";
        r.metrics.emplace_back("joins_per_sec", j);
        runner::Metric p;
        p.value = p99;
        p.better = "lower";
        r.metrics.emplace_back("join_to_data_p99_s", p);
        return r;
    };
    // Run 1 hit a noisy neighbour (p99 3x, joins halved); run 2 is clean.
    // The direction-aware best-of-N (min for lower, max for higher) must
    // pass: transient noise only ever makes numbers worse.
    const runner::GateReport noisy = runner::gate(
        *baseline, {run_at(480.0, 1.5), run_at(1010.0, 0.49)});
    EXPECT_TRUE(noisy.pass);

    // A genuine regression is bad in EVERY run and still fails.
    const runner::GateReport real = runner::gate(
        *baseline, {run_at(480.0, 1.5), run_at(495.0, 1.4)});
    EXPECT_FALSE(real.pass);
}

TEST(RunnerGate, MissingGatedMetricFails) {
    auto baseline = runner::parse_baseline(kBaselineText);
    ASSERT_TRUE(baseline.has_value());
    // The run dropped join_to_data_p99_s entirely (e.g. a refactor renamed
    // it). That must fail, not vacuously pass.
    runner::BenchResult r;
    r.bench = "churn_scale";
    runner::Metric j;
    j.value = 1000.0;
    j.better = "higher";
    r.metrics.emplace_back("joins_per_sec", j);
    const runner::GateReport report = runner::gate(*baseline, {r});
    EXPECT_FALSE(report.pass);
    bool missing_flagged = false;
    for (const auto& f : report.findings) {
        if (f.metric == "join_to_data_p99_s" && f.missing) missing_flagged = true;
    }
    EXPECT_TRUE(missing_flagged);
}

TEST(RunnerGate, HigherDirectionGatesDownward) {
    auto baseline = runner::parse_baseline(
        R"({"bench":"b","metrics":{)"
        R"("throughput":{"value":100.0,"better":"higher","tolerance":0.1}}})");
    ASSERT_TRUE(baseline.has_value());
    runner::BenchResult ok = result_with("b", {});
    runner::Metric m;
    m.better = "higher";
    m.value = 95.0; // above the 90.0 limit
    ok.metrics.emplace_back("throughput", m);
    EXPECT_TRUE(runner::gate(*baseline, {ok}).pass);
    ok.metrics[0].second.value = 85.0; // below the limit
    EXPECT_FALSE(runner::gate(*baseline, {ok}).pass);
    ok.metrics[0].second.value = 250.0; // improvements never fail
    EXPECT_TRUE(runner::gate(*baseline, {ok}).pass);
}

namespace {

// A variant's baseline entry: ratio 1.0, the observer's budget as tolerance.
const char* kVariantBaseline = R"({"bench":"b","metrics":{)"
                               R"("observers_cpu_ratio":)"
                               R"({"value":1.0,"better":"lower","tolerance":0.05}}})";

/// 13 A/A pairs: both sides drift together over ~1.5x (host frequency
/// swings) with a few percent of one-sided jitter on either side.
std::vector<runner::CostPair> aa_pairs() {
    const double jitter[13] = {0.00, 0.03, 0.01, 0.00, 0.04, 0.02, 0.00,
                               0.01, 0.03, 0.00, 0.02, 0.01, 0.04};
    std::vector<runner::CostPair> pairs;
    for (int i = 0; i < 13; ++i) {
        const double base = 0.20 + 0.01 * i;
        pairs.push_back({base * (1.0 + jitter[i]),
                         base * (1.0 + jitter[(i + 5) % 13])});
    }
    return pairs;
}

runner::GateReport gate_variant(const std::vector<runner::CostPair>& pairs) {
    runner::BenchResult r = result_with("b", {});
    runner::add_cost_ratio(r, "observers", pairs);
    return runner::gate(*runner::parse_baseline(kVariantBaseline), {r});
}

} // namespace

TEST(RunnerAb, AaPairsPass) {
    const auto ratio = runner::paired_cost_ratio(aa_pairs());
    ASSERT_TRUE(ratio.has_value());
    EXPECT_NEAR(*ratio, 1.0, 0.03);
    EXPECT_TRUE(gate_variant(aa_pairs()).pass);
}

TEST(RunnerAb, PlantedCostOnEveryBSideFails) {
    std::vector<runner::CostPair> pairs = aa_pairs();
    for (runner::CostPair& p : pairs) p.b_cpu_s *= 1.3;
    const runner::GateReport report = gate_variant(pairs);
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].metric, "observers_cpu_ratio");
    EXPECT_GT(report.findings[0].best, 1.25);
}

TEST(RunnerAb, SingleOutlierAmongThirteenPairsPasses) {
    std::vector<runner::CostPair> pairs = aa_pairs();
    pairs[6].b_cpu_s = pairs[6].a_cpu_s * 1.25;
    EXPECT_TRUE(gate_variant(pairs).pass);
}

TEST(RunnerAb, VariantWhoseRunsAllFailIsAMissingGatedMetric) {
    // Every pair had a side exit nonzero, so the runner kept none.
    EXPECT_FALSE(runner::paired_cost_ratio({}).has_value());
    const runner::GateReport report = gate_variant({});
    EXPECT_FALSE(report.pass);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_TRUE(report.findings[0].missing);
}

TEST(RunnerHistory, AppendsAndStaysValidJson) {
    runner::RunMeta meta;
    meta.commit = "abc1234";
    meta.host = "ci-runner";
    meta.flags = "--receivers 4000";
    meta.timestamp = 1754524800;

    const auto run = result_with("churn_scale", {{"joins_per_sec", 987.5}});
    const std::string entry = runner::history_entry_json(meta, {run});

    std::string file = runner::history_append("", entry);
    auto parsed = runner::parse_json(file);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->kind, runner::JsonValue::Kind::kArray);
    EXPECT_EQ(parsed->items.size(), 1u);

    // Second append extends the array in place.
    meta.commit = "def5678";
    file = runner::history_append(file, runner::history_entry_json(meta, {run}));
    parsed = runner::parse_json(file);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->items.size(), 2u);
    EXPECT_EQ(parsed->items[0].find("commit")->str, "abc1234");
    EXPECT_EQ(parsed->items[1].find("commit")->str, "def5678");
    const runner::JsonValue* runs = parsed->items[1].find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->items.size(), 1u);
    EXPECT_DOUBLE_EQ(runs->items[0].find("joins_per_sec")->number, 987.5);

    // Corrupt existing content is quarantined, not lost silently.
    const std::string recovered =
        runner::history_append("{{{ not json", entry);
    auto reparsed = runner::parse_json(recovered);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->kind, runner::JsonValue::Kind::kArray);
}
