// Shared helpers for the figure-reproduction benchmarks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "graph/center_tree.hpp"
#include "graph/random_graph.hpp"
#include "graph/tree_metrics.hpp"
#include "graph/shortest_path.hpp"
#include "telemetry/profiler/profiler.hpp"

namespace pimlib::bench {

/// The normalized result record every bench emits as its LAST stdout line,
/// consumed by bench/runner (history + baseline gate). One line of JSON:
///
///   {"schema":"pimbench/1","bench":"timer_scale","metrics":{
///     "top_speedup":{"value":12.4,"unit":"x","better":"higher"}, ...}}
///
/// `better` tells the regression gate which direction is bad: "lower"
/// (times), "higher" (throughput/speedups), or "info" (recorded in history
/// but never gated — wall-clock-noisy or purely descriptive values).
/// Metric values must be finite; insertion order is preserved so the line
/// is byte-stable for deterministic benches.
class Report {
public:
    explicit Report(std::string bench) : bench_(std::move(bench)) {}

    Report& metric(const std::string& name, double value, const std::string& unit,
                   const std::string& better) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"%s\":{\"value\":%.9g,\"unit\":\"%s\",\"better\":\"%s\"}",
                      name.c_str(), value, unit.c_str(), better.c_str());
        entries_.emplace_back(buf);
        return *this;
    }

    [[nodiscard]] std::string line() const {
        std::string out = "{\"schema\":\"pimbench/1\",\"bench\":\"" + bench_ +
                          "\",\"metrics\":{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (i > 0) out += ',';
            out += entries_[i];
        }
        out += "}}";
        return out;
    }

    /// Prints the normalized line to stdout (with trailing newline).
    void emit() const { std::printf("%s\n", line().c_str()); }

private:
    std::string bench_;
    std::vector<std::string> entries_;
};

/// Parses "--trials N" / "--groups N" style integer flags; returns
/// `fallback` when absent.
inline int flag_value(int argc, char** argv, const char* name, int fallback) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
    }
    return fallback;
}

/// Parses "--rate X" style floating-point flags; returns `fallback` when
/// absent.
inline double flag_double(int argc, char** argv, const char* name,
                          double fallback) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) return std::atof(argv[i + 1]);
    }
    return fallback;
}

/// True when the bare flag (e.g. "--check") is present.
inline bool flag_present(int argc, char** argv, const char* name) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) return true;
    }
    return false;
}

/// Parses "--metrics prom" style string flags; returns `fallback` when
/// absent.
inline std::string flag_string(int argc, char** argv, const char* name,
                               const char* fallback) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
    }
    return fallback;
}

/// Arms the CPU profiler when --profile is present; call before the
/// workload. Pair with profile_end after it.
inline bool profile_begin(int argc, char** argv) {
    if (!flag_present(argc, argv, "--profile")) return false;
    prof::set_enabled(true);
    return true;
}

/// When --profile is armed: stops the profiler, writes collapsed stacks
/// (FlameGraph / speedscope input) to --profile-out (default
/// "<bench>.collapsed") and prints the zone table to stderr — stdout stays
/// reserved for the bench's own JSON.
inline void profile_end(int argc, char** argv, const char* bench) {
    if (!flag_present(argc, argv, "--profile")) return;
    prof::set_enabled(false);
    const prof::Report report = prof::snapshot();
    const std::string fallback = std::string(bench) + ".collapsed";
    const std::string path =
        flag_string(argc, argv, "--profile-out", fallback.c_str());
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        const std::string collapsed = prof::to_collapsed(report);
        std::fwrite(collapsed.data(), 1, collapsed.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "profile: wrote %s\n", path.c_str());
    } else {
        std::fprintf(stderr, "profile: cannot write %s\n", path.c_str());
    }
    std::fprintf(stderr, "%s", prof::to_table(report).c_str());
}

/// Mean / min / max / stddev over a sample set.
struct Summary {
    double mean = 0;
    double stddev = 0;
    double min = 0;
    double max = 0;
    std::size_t count = 0;
};

/// Summary of `samples`; stddev is the sample (n - 1) deviation, 0 below
/// two samples, and an empty sample gives all zeros.
inline Summary summarize(const std::vector<double>& samples) {
    Summary s;
    s.count = samples.size();
    if (samples.empty()) return s;
    double sum = 0;
    s.min = samples.front();
    s.max = samples.front();
    for (double v : samples) {
        sum += v;
        s.min = std::min(s.min, v);
        s.max = std::max(s.max, v);
    }
    s.mean = sum / static_cast<double>(samples.size());
    double var = 0;
    for (double v : samples) var += (v - s.mean) * (v - s.mean);
    s.stddev = samples.size() > 1
                   ? std::sqrt(var / static_cast<double>(samples.size() - 1))
                   : 0.0;
    return s;
}

/// Nearest-rank percentile over an unsorted sample. NaN when the sample is
/// empty (there is no such statistic), the lone value for a single-sample
/// vector, and `q` is clamped to [0, 1] so a bad quantile can't index past
/// the end.
inline double percentile(std::vector<double> values, double q) {
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    if (values.size() == 1) return values.front();
    q = std::clamp(q, 0.0, 1.0);
    std::sort(values.begin(), values.end());
    const auto i = static_cast<std::size_t>(
        q * (static_cast<double>(values.size()) - 1.0));
    return values[i];
}

/// The JSON object every bench emits for a sample distribution. The
/// percentiles are parameters so callers can source them either from the
/// sorted sample (see the overload below) or from a telemetry histogram
/// (bucket-interpolated, the series a metrics scraper would see).
inline std::string distribution_json(const Summary& s, double p50,
                                     double p90, double p99) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"mean\":%.6f,\"min\":%.6f,\"max\":%.6f,\"stddev\":%.6f,"
                  "\"p50\":%.6f,\"p90\":%.6f,\"p99\":%.6f,\"count\":%zu}",
                  s.mean, s.min, s.max, s.stddev, p50, p90, p99, s.count);
    return buf;
}

/// distribution_json with percentiles taken from the sample itself. An
/// empty sample emits all-zero fields with "count":0 (percentile() returns
/// NaN there, which %.6f would render as non-JSON "nan").
inline std::string distribution_json(const std::vector<double>& values) {
    if (values.empty()) return distribution_json(Summary{}, 0.0, 0.0, 0.0);
    return distribution_json(summarize(values), percentile(values, 0.50),
                             percentile(values, 0.90), percentile(values, 0.99));
}

/// Dense per-edge flow counter over a fixed graph: resolves (u,v) pairs to
/// compact edge ids once, then counts through the same graph::FlowLoad the
/// live TreeMonitor concentrates on segment ids. Fast enough for the
/// paper-scale sweeps (Fig. 2(b): 500 graphs × 300 groups).
class EdgeFlowCounter {
public:
    explicit EdgeFlowCounter(const graph::Graph& g) : n_(g.node_count()) {
        edge_id_.assign(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), -1);
        int next = 0;
        for (int u = 0; u < n_; ++u) {
            for (const auto& e : g.neighbors(u)) {
                if (e.to < u) continue;
                edge_id_[static_cast<std::size_t>(u) * n_ + e.to] = next;
                edge_id_[static_cast<std::size_t>(e.to) * n_ + u] = next;
                ++next;
            }
        }
    }

    void add(int u, int v, std::size_t count = 1) {
        load_.add(edge_id_[static_cast<std::size_t>(u) * n_ + v], count);
    }

    [[nodiscard]] std::size_t max_flows() const { return load_.max_flows(); }
    [[nodiscard]] const graph::FlowLoad& load() const { return load_; }

private:
    int n_;
    std::vector<int> edge_id_;
    graph::FlowLoad load_;
};

/// Unique edges on the union of parent-walks from `targets` up to the tree
/// root of `spt` (each edge reported once). Linear in path lengths.
inline std::vector<std::pair<int, int>> tree_edges(const graph::ShortestPathTree& spt,
                                                   const std::vector<int>& targets,
                                                   std::vector<int>& visit_stamp,
                                                   int stamp) {
    std::vector<std::pair<int, int>> edges;
    for (int t : targets) {
        int walk = t;
        while (walk != spt.source && visit_stamp[static_cast<std::size_t>(walk)] != stamp) {
            visit_stamp[static_cast<std::size_t>(walk)] = stamp;
            const int parent = spt.parent[static_cast<std::size_t>(walk)];
            if (parent < 0) break; // unreachable
            edges.emplace_back(walk, parent);
            walk = parent;
        }
    }
    return edges;
}

} // namespace pimlib::bench
