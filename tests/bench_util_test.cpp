// Guards on the bench helpers that every figure-reproduction harness and
// the CI overhead gate share: percentile() must be total (no UB indexing on
// empty samples or out-of-range quantiles), summarize() must handle empty and
// single samples, and distribution_json() must emit parseable JSON even for an
// empty sample.
#include <gtest/gtest.h>

#include <cmath>

#include "bench_util.hpp"

namespace pimlib {
namespace {

TEST(BenchPercentile, EmptySampleIsNaN) {
    EXPECT_TRUE(std::isnan(bench::percentile({}, 0.5)));
    EXPECT_TRUE(std::isnan(bench::percentile({}, 0.0)));
}

TEST(BenchPercentile, SingleSampleReturnsTheValue) {
    EXPECT_DOUBLE_EQ(bench::percentile({42.0}, 0.0), 42.0);
    EXPECT_DOUBLE_EQ(bench::percentile({42.0}, 0.5), 42.0);
    EXPECT_DOUBLE_EQ(bench::percentile({42.0}, 1.0), 42.0);
}

TEST(BenchPercentile, QuantileIsClampedToUnitRange) {
    const std::vector<double> v{3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(bench::percentile(v, -0.5), 1.0);
    EXPECT_DOUBLE_EQ(bench::percentile(v, 1.5), 3.0);  // no past-the-end read
    EXPECT_DOUBLE_EQ(bench::percentile(v, 1e9), 3.0);
}

TEST(BenchPercentile, NearestRankOnSortedCopy) {
    const std::vector<double> v{9.0, 1.0, 5.0, 7.0, 3.0}; // unsorted input
    EXPECT_DOUBLE_EQ(bench::percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(bench::percentile(v, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(bench::percentile(v, 1.0), 9.0);
}

TEST(StatsSummary, EdgeCases) {
    EXPECT_EQ(bench::summarize({}).count, 0u);
    auto one = bench::summarize({5.0});
    EXPECT_DOUBLE_EQ(one.mean, 5.0);
    EXPECT_DOUBLE_EQ(one.stddev, 0.0);
    EXPECT_DOUBLE_EQ(one.min, 5.0);
    EXPECT_DOUBLE_EQ(one.max, 5.0);
    auto two = bench::summarize({1.0, 3.0});
    EXPECT_DOUBLE_EQ(two.mean, 2.0);
    EXPECT_NEAR(two.stddev, std::sqrt(2.0), 1e-12);
}

TEST(BenchDistributionJson, EmptySampleStaysValidJson) {
    const std::string json = bench::distribution_json(std::vector<double>{});
    EXPECT_NE(json.find("\"count\":0"), std::string::npos) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
    EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(BenchDistributionJson, PopulatedSampleCarriesPercentiles) {
    const std::string json =
        bench::distribution_json(std::vector<double>{1.0, 2.0, 3.0, 4.0});
    EXPECT_NE(json.find("\"count\":4"), std::string::npos) << json;
    EXPECT_NE(json.find("\"p50\":2.000000"), std::string::npos) << json;
    // Index truncation: 0.99 * (4 - 1) = 2.97 -> rank 2 -> the value 3.
    EXPECT_NE(json.find("\"p99\":3.000000"), std::string::npos) << json;
}

} // namespace
} // namespace pimlib
