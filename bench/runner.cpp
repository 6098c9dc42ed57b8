// bench_runner: one entry point for the whole bench suite.
//
// Runs a subset of the plain bench harnesses (each prints a final
// normalized pimbench/1 JSON line — see bench_util.hpp), collects the
// normalized results into one schema with run metadata (commit, flags,
// host), appends them to a per-bench history file, and — with --check —
// gates each bench against its committed baseline using the noise-aware
// comparator in runner_util.hpp (direction-aware best-of-N vs a per-metric
// ratio threshold). CI calls this once instead of scripting ten binaries.
//
// A bench may also list variants: a metric stem plus the one extra flag
// that turns an observer on. For each, the runner runs kAbPairs
// interleaved process pairs (base args vs base args + flag), takes each
// child's CPU time from getrusage(RUSAGE_CHILDREN), and appends
// <stem>_cpu_ratio — the lower quartile of the per-pair ratios — to the
// bench's result. It is recorded and gated like every other metric,
// against a baseline entry {value 1.0, tolerance = the observer's budget}.
//
// Usage:
//   bench_runner [--bench a,b,...] [--runs N] [--check]
//                [--bin-dir DIR] [--baselines DIR] [--history DIR]
//                [--out DIR] [--list]
//
//   --bench      comma-separated subset (default: every known bench)
//   --runs       repetitions per bench; the gate takes the direction-aware
//                best over the N runs (default 1, --check default 2)
//   --check      compare against <baselines>/<bench>.json and exit nonzero
//                on any regression or missing gated metric
//   --bin-dir    where the bench executables live (default: the directory
//                bench_runner itself was started from)
//   --baselines  committed baseline directory (default <source>/baselines
//                is not knowable here, so default "bench/baselines")
//   --history    where <bench>.BENCH_HISTORY.json files accumulate
//                (default "bench-history")
//   --out        also write each bench's normalized line to
//                <out>/<bench>.json for artifact upload
//   --list       print the known benches with their default args and exit
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runner_util.hpp"

namespace runner = pimlib::bench::runner;
namespace bench = pimlib::bench;

namespace {

struct Variant {
    const char* name = nullptr; // metric stem: <name>_cpu_ratio
    const char* flag = nullptr; // added to the bench's args on the B side
};

struct BenchSpec {
    const char* name;
    // Default args sized for CI: minutes for the whole suite, not per bench.
    // With variants, they also size each A/B process (>= ~0.2 s of CPU).
    const char* args;
    Variant variants[2] = {};
};

// Process pairs per variant. Thirteen pairs put the lower quartile at the
// fourth-smallest ratio, so up to nine noisy pairs cannot fail a gate.
constexpr int kAbPairs = 13;

// Every plain harness with a normalized line. Args pin the workload so the
// committed baselines describe a reproducible configuration.
constexpr BenchSpec kBenches[] = {
    {"fig2a_delay_ratio", "--trials 20"},
    {"fig2b_traffic_concentration", "--trials 8 --groups 40"},
    {"fig1_overhead", "--packets 20"},
    {"scaling_overhead", "--packets 20",
     {{"tracing", "--telemetry on"}, {"observers", "--observers on"}}},
    {"ablation_refresh", ""},
    {"ablation_spt_policy", ""},
    {"fault_convergence", "--trials 2"},
    {"churn_scale", "--receivers 4000 --rate 400"},
    {"provenance_overhead", "--packets 5000",
     {{"recorder_on", "--recorder on"}}},
    {"timer_scale", "--max-entries 100000"},
};

std::vector<std::string> split_csv(const std::string& csv) {
    std::vector<std::string> out;
    std::string cur;
    for (char c : csv) {
        if (c == ',') {
            if (!cur.empty()) out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
}

std::string dirname_of(const std::string& path) {
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos) return ".";
    if (slash == 0) return "/";
    return path.substr(0, slash);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    if (!out) return false;
    out << content;
    return static_cast<bool>(out);
}

/// Runs `cmd`, captures its stdout, returns the exit status (-1 on spawn
/// failure). Child stderr passes through to ours so bench diagnostics stay
/// visible in CI logs.
int run_capture(const std::string& cmd, std::string* stdout_text) {
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return -1;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
        stdout_text->append(buf, n);
    }
    const int status = pclose(pipe);
    if (status < 0) return -1;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return 128;
}

/// User + system CPU seconds of every child reaped so far.
double children_cpu_s() {
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Runs `cmd` (stdout discarded) and returns its CPU seconds, or -1 if it
/// exited nonzero.
double timed_run(const std::string& cmd) {
    std::string ignored;
    const double before = children_cpu_s();
    if (run_capture(cmd, &ignored) != 0) return -1.0;
    return children_cpu_s() - before;
}

/// The variant's interleaved A/B pairs. Which side runs first alternates:
/// drift within an invocation is monotone, so a fixed order would charge
/// it to the same side in every pair. A pair with a failed side is
/// reported and dropped; `*failed` is set.
std::vector<runner::CostPair> ab_pairs(const std::string& a_cmd,
                                       const std::string& b_cmd,
                                       bool* failed) {
    std::vector<runner::CostPair> pairs;
    for (int i = 0; i < kAbPairs; ++i) {
        runner::CostPair pair;
        const bool b_first = (i % 2) != 0;
        for (const bool b : {b_first, !b_first}) {
            (b ? pair.b_cpu_s : pair.a_cpu_s) = timed_run(b ? b_cmd : a_cmd);
        }
        if (pair.a_cpu_s < 0 || pair.b_cpu_s < 0) {
            std::fprintf(stderr,
                         "bench_runner: A/B pair %d of '%s' had a run exit "
                         "nonzero\n",
                         i + 1, b_cmd.c_str());
            *failed = true;
            continue;
        }
        pairs.push_back(pair);
    }
    return pairs;
}

std::string git_commit() {
    std::string out;
    if (run_capture("git rev-parse --short HEAD 2>/dev/null", &out) != 0) {
        return "unknown";
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
        out.pop_back();
    }
    return out.empty() ? "unknown" : out;
}

std::string host_name() {
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
    return buf;
}

} // namespace

int main(int argc, char** argv) {
    const bool check = bench::flag_present(argc, argv, "--check");
    const int runs = std::max(
        1, bench::flag_value(argc, argv, "--runs", check ? 2 : 1));
    const std::string bin_dir = bench::flag_string(
        argc, argv, "--bin-dir", dirname_of(argv[0]).c_str());
    const std::string baselines_dir =
        bench::flag_string(argc, argv, "--baselines", "bench/baselines");
    const std::string history_dir =
        bench::flag_string(argc, argv, "--history", "bench-history");
    const std::string out_dir = bench::flag_string(argc, argv, "--out", "");
    const std::string subset_csv =
        bench::flag_string(argc, argv, "--bench", "");

    if (bench::flag_present(argc, argv, "--list")) {
        for (const BenchSpec& spec : kBenches) {
            std::printf("%-28s %s\n", spec.name, spec.args);
            for (const Variant& v : spec.variants) {
                if (v.name != nullptr) {
                    std::printf("%-28s   A/B %s_cpu_ratio: + %s\n", "", v.name,
                                v.flag);
                }
            }
        }
        return 0;
    }

    std::vector<BenchSpec> selected;
    if (subset_csv.empty()) {
        selected.assign(std::begin(kBenches), std::end(kBenches));
    } else {
        for (const std::string& want : split_csv(subset_csv)) {
            bool found = false;
            for (const BenchSpec& spec : kBenches) {
                if (want == spec.name) {
                    selected.push_back(spec);
                    found = true;
                    break;
                }
            }
            if (!found) {
                std::fprintf(stderr, "bench_runner: unknown bench '%s' "
                                     "(see --list)\n",
                             want.c_str());
                return 2;
            }
        }
    }

    mkdir(history_dir.c_str(), 0755);
    if (!out_dir.empty()) mkdir(out_dir.c_str(), 0755);

    runner::RunMeta meta;
    meta.commit = git_commit();
    meta.host = host_name();
    meta.timestamp = static_cast<long long>(std::time(nullptr));

    int failures = 0;
    for (const BenchSpec& spec : selected) {
        const std::string cmd =
            bin_dir + "/" + spec.name + (spec.args[0] != '\0' ? " " : "") +
            spec.args;
        std::vector<runner::BenchResult> results;
        std::string last_line;
        bool bench_ok = true;
        for (int r = 0; r < runs; ++r) {
            std::printf("== %s (run %d/%d): %s\n", spec.name, r + 1, runs,
                        cmd.c_str());
            std::fflush(stdout);
            std::string stdout_text;
            const int status = run_capture(cmd, &stdout_text);
            if (status != 0) {
                std::fprintf(stderr,
                             "bench_runner: %s exited with status %d\n",
                             spec.name, status);
                bench_ok = false;
                break;
            }
            auto result = runner::extract_result(stdout_text);
            if (!result) {
                std::fprintf(stderr,
                             "bench_runner: %s printed no pimbench/1 line\n",
                             spec.name);
                bench_ok = false;
                break;
            }
            results.push_back(std::move(*result));
            // Keep the raw normalized line of the last run for --out.
            const std::size_t nl = stdout_text.rfind(
                "{\"schema\":\"pimbench/1\"");
            if (nl != std::string::npos) {
                last_line = stdout_text.substr(nl);
                if (const std::size_t e = last_line.find('\n');
                    e != std::string::npos) {
                    last_line.resize(e);
                }
            }
        }
        if (!bench_ok) {
            ++failures;
            continue;
        }

        bool variant_failed = false;
        for (const Variant& v : spec.variants) {
            if (v.name == nullptr) continue;
            const std::string b_cmd = cmd + " " + v.flag;
            std::printf("== %s: %d A/B pairs, B adds %s\n", spec.name,
                        kAbPairs, v.flag);
            std::fflush(stdout);
            const std::vector<runner::CostPair> pairs =
                ab_pairs(cmd, b_cmd, &variant_failed);
            if (const auto ratio =
                    runner::add_cost_ratio(results.back(), v.name, pairs)) {
                std::printf("   %s_cpu_ratio %.4f over %zu pairs\n", v.name,
                            *ratio, pairs.size());
            }
        }
        if (variant_failed) ++failures;

        meta.flags = spec.args;
        const std::string history_path =
            history_dir + "/" + spec.name + ".BENCH_HISTORY.json";
        const std::string appended = runner::history_append(
            read_file(history_path),
            runner::history_entry_json(meta, results));
        if (!write_file(history_path, appended)) {
            std::fprintf(stderr, "bench_runner: cannot write %s\n",
                         history_path.c_str());
        }
        if (!out_dir.empty() && !last_line.empty()) {
            write_file(out_dir + "/" + spec.name + ".json", last_line + "\n");
        }

        if (check) {
            const std::string baseline_path =
                baselines_dir + "/" + spec.name + ".json";
            const std::string baseline_text = read_file(baseline_path);
            if (baseline_text.empty()) {
                std::fprintf(stderr,
                             "bench_runner: no baseline at %s — gate FAILS "
                             "(a missing baseline must not read as a pass)\n",
                             baseline_path.c_str());
                ++failures;
                continue;
            }
            auto baseline = runner::parse_baseline(baseline_text);
            if (!baseline) {
                std::fprintf(stderr, "bench_runner: malformed baseline %s\n",
                             baseline_path.c_str());
                ++failures;
                continue;
            }
            const runner::GateReport report =
                runner::gate(*baseline, results);
            for (const runner::GateFinding& f : report.findings) {
                std::printf("   %s %s\n", f.regressed ? "FAIL" : "ok  ",
                            f.to_string().c_str());
            }
            if (!report.pass) {
                std::fprintf(stderr,
                             "bench_runner: %s regressed against baseline\n",
                             spec.name);
                ++failures;
            }
        }
    }

    if (failures > 0) {
        std::fprintf(stderr, "bench_runner: %d bench(es) failed\n", failures);
        return 1;
    }
    std::printf("bench_runner: %zu bench(es) ok (commit %s, host %s)\n",
                selected.size(), meta.commit.c_str(), meta.host.c_str());
    return 0;
}
