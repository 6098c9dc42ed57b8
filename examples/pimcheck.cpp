// pimcheck: systematic state-space checker for the PIM-SM stack.
//
// Explores a scripted scenario under controlled nondeterminism — every
// same-instant event ordering, single-frame loss and fault placement is a
// decision point (see src/check) — and evaluates protocol invariant
// oracles on every branch. Failing branches are shrunk to a minimal set
// of forced choices and emitted as a replayable pimsim script plus a
// decoded packet trace.
//
// Two engines share that machinery:
//
//   forward   breadth-first over the choice tree, wave-parallel
//             (--threads), bit-identical for a fixed seed at any count
//   backward  fault-oriented (--backward TARGET): start from a target
//             invariant violation, rank fault placements and message
//             losses by pre-image relevance, replay best-first
//
//   pimcheck                          explore the walkthrough scenario
//   pimcheck --scenario rp-failover   explore the §3.9 failover scenario
//   pimcheck --mutate no-rp-bit-prune expect the seeded bug to be caught
//   pimcheck --backward blackhole --mutate fragile-rp-holdtime
//                                     hunt the bug backward from its symptom
//   pimcheck --replay 17:1,42:2       re-run one branch and show verdicts
//   pimcheck --determinism-check 3    N repeats x {1,8} threads, reports
//                                     must be bit-identical
//   pimcheck --smoke                  CI gate: baselines clean + every
//                                     seeded mutation caught by both
//                                     engines + thread determinism; writes
//                                     pimcheck-smoke.json and
//                                     pimcheck-metrics.prom (exit 1 on any
//                                     failure)
//
// Exit status: 0 when the run matches expectations (no violations without
// --mutate; at least one caught violation with --mutate), 1 otherwise,
// 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/backward.hpp"
#include "check/explorer.hpp"
#include "telemetry/exporters.hpp"

namespace {

using namespace pimlib;

void usage() {
    std::printf(
        "usage: pimcheck [options]\n"
        "  --scenario NAME     walkthrough | rp-failover | lan-assert |\n"
        "                      bsr-failover (default walkthrough; with\n"
        "                      --backward, the target's default scenario)\n"
        "  --mutate NAME       enable a seeded bug: skip-spt-bit-handshake |\n"
        "                      no-rp-bit-prune | assert-loser-keeps-forwarding |\n"
        "                      stale-rp-set-after-bsr-failover |\n"
        "                      one-shot-assert | fragile-rp-holdtime\n"
        "  --backward TARGET   fault-oriented search toward a target violation:\n"
        "                      blackhole | duplicate-on-lan |\n"
        "                      assert-loser-forwarding | stale-rp-set\n"
        "  --threads N         forward worker threads per wave (default 1;\n"
        "                      run-bounded results are bit-identical at any N)\n"
        "  --time-budget SECS  wall-clock budget for the search (default 50)\n"
        "  --max-runs N        cap on explored branches / backward replays\n"
        "                      (default 100000 forward, 2000 backward)\n"
        "  --max-depth N       forced choices per branch (default 3 forward,\n"
        "                      2 backward)\n"
        "  --children N        sampled child branches per run (default 800)\n"
        "  --checkpoint-ms N   MRIB hash cadence in sim ms (default 1)\n"
        "  --seed N            frontier sampling seed (default 1)\n"
        "  --stop-at-first     end the search at the first violation\n"
        "  --replay SPEC       run the single branch SPEC (e.g. \"17:1,42:2\")\n"
        "  --forced-fault L    apply fault candidate L unconditionally (with\n"
        "                      --replay)\n"
        "  --determinism-check N  run the same bounded search N times at 1 and\n"
        "                      8 threads; fail unless all reports are identical\n"
        "  --out DIR           where counterexample files go (default .)\n"
        "  --list              print scenarios, mutations and targets\n"
        "  --smoke             CI gate (clean baselines + every mutation caught\n"
        "                      forward and backward + thread determinism)\n");
}

bool write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    if (!out) return false;
    out << content;
    return static_cast<bool>(out);
}

std::string save_counterexample(const std::string& dir, const std::string& scenario,
                                const std::string& mutation, std::size_t index,
                                const check::Counterexample& ce) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec); // best effort; write reports
    const std::string base = dir + "/pimcheck-" + scenario +
                             (mutation.empty() ? "" : "-" + mutation) + "-" +
                             std::to_string(index);
    if (!write_file(base + ".pimsim", ce.script)) {
        std::fprintf(stderr, "pimcheck: cannot write %s.pimsim\n", base.c_str());
        return {};
    }
    (void)write_file(base + ".trace", ce.trace_dump);
    if (!ce.provenance_dump.empty()) {
        (void)write_file(base + ".provenance.json", ce.provenance_dump);
    }
    return base;
}

void print_counterexamples(const std::vector<check::Counterexample>& ces,
                           const std::string& scenario, const std::string& mutation,
                           const std::string& out_dir) {
    for (std::size_t i = 0; i < ces.size(); ++i) {
        const check::Counterexample& ce = ces[i];
        std::printf("  counterexample %zu: choices [%s]\n", i,
                    check::format_choices(ce.choices).c_str());
        for (const check::Violation& v : ce.violations) {
            std::printf("    %s: %s\n", v.oracle.c_str(), v.detail.c_str());
        }
        if (!ce.provenance_summary.empty()) {
            std::printf("    drops: %s\n", ce.provenance_summary.c_str());
        }
        const std::string base =
            save_counterexample(out_dir, scenario, mutation, i, ce);
        if (!base.empty()) {
            std::printf("    replay script: %s.pimsim  trace: %s.trace\n",
                        base.c_str(), base.c_str());
            if (!ce.provenance_dump.empty()) {
                std::printf("    post-mortem: %s.provenance.json\n", base.c_str());
            }
        }
    }
}

void print_report(const check::ExploreOptions& options,
                  const check::ExploreReport& report, const std::string& out_dir) {
    std::printf("scenario %s%s%s: %zu runs, %zu distinct MRIB states, "
                "%zu violating branch(es), %.1fs%s\n",
                options.scenario.c_str(),
                options.mutation.empty() ? "" : " --mutate ",
                options.mutation.c_str(), report.runs, report.deduped_states,
                report.violating_runs, report.elapsed_seconds,
                report.frontier_exhausted ? " (frontier exhausted)" : "");
    print_counterexamples(report.counterexamples, options.scenario,
                          options.mutation, out_dir);
}

void print_backward_report(const check::BackwardOptions& options,
                           const check::BackwardReport& report,
                           const std::string& out_dir) {
    std::printf("backward %s on %s%s%s: %zu replays (%zu to first hit), "
                "%zu target hit(s), %zu candidates ranked, %.1fs%s\n",
                report.target.c_str(), report.scenario.c_str(),
                options.mutation.empty() ? "" : " --mutate ",
                options.mutation.c_str(), report.replays, report.replays_to_hit,
                report.target_hits, report.candidates_ranked,
                report.elapsed_seconds,
                report.exhausted ? " (candidates exhausted)" : "");
    print_counterexamples(report.counterexamples, report.scenario,
                          options.mutation, out_dir);
}

int run_replay(const check::ExploreOptions& options, const std::string& spec,
               const std::string& forced_fault, const std::string& out_dir) {
    const auto choices = check::parse_choices(spec);
    if (!choices) {
        std::fprintf(stderr, "pimcheck: bad --replay spec '%s'\n", spec.c_str());
        return 2;
    }
    check::RunConfig cfg;
    cfg.choices = *choices;
    cfg.mutation = options.mutation;
    cfg.forced_fault = forced_fault;
    cfg.collect_trace = true;
    cfg.collect_provenance = true;
    cfg.checkpoint_every = options.checkpoint_every;
    const check::RunResult result = check::run_scenario(options.scenario, cfg);
    // The watchdog pass runs separately: its periodic tick events join the
    // same-instant ordering batches, which renumbers every later choice
    // point — an instrumented run is NOT the branch the explorer found, so
    // the oracle verdict above must come from the uninstrumented replay.
    check::RunConfig wd_cfg = cfg;
    wd_cfg.collect_trace = false;
    wd_cfg.collect_provenance = false;
    wd_cfg.watchdog = true;
    const check::RunResult wd = check::run_scenario(options.scenario, wd_cfg);
    std::printf("replayed branch [%s]: %zu events to t=%.3fs, %zu state hashes, "
                "clean=%s, converged=%s%s\n",
                spec.c_str(), result.events,
                static_cast<double>(result.end_time) / sim::kSecond,
                result.state_hashes.size(), result.clean ? "yes" : "no",
                result.converged ? "yes" : "no",
                result.choices_applied ? "" : " (WARNING: choices not applied)");
    for (const check::Violation& v : result.violations) {
        std::printf("  violation %s: %s\n", v.oracle.c_str(), v.detail.c_str());
    }
    if (result.violations.empty()) std::printf("  all oracles passed\n");
    if (!result.provenance_summary.empty()) {
        std::printf("  drops: %s\n", result.provenance_summary.c_str());
    }
    if (wd.watchdog_count > 0) {
        std::printf("  online watchdogs (instrumented re-run) raised %zu "
                    "violation(s):\n%s",
                    wd.watchdog_count, wd.watchdog_report.c_str());
    } else {
        std::printf("  online watchdogs (instrumented re-run): quiet\n");
    }
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string trace_path = out_dir + "/pimcheck-replay.trace";
    if (write_file(trace_path, result.trace_dump)) {
        std::printf("  trace: %s\n", trace_path.c_str());
    }
    const std::string timeline_path = out_dir + "/pimcheck-replay.timeline.json";
    if (write_file(timeline_path, result.timeline_json)) {
        std::printf("  timeline: %s (chrome trace-event JSON; open in Perfetto)\n",
                    timeline_path.c_str());
    }
    if (!wd.watchdog_report.empty()) {
        const std::string wd_path = out_dir + "/pimcheck-replay.watchdog.txt";
        if (write_file(wd_path, wd.watchdog_report)) {
            std::printf("  watchdog findings: %s\n", wd_path.c_str());
        }
    }
    if (!result.provenance_dump.empty()) {
        const std::string prov_path = out_dir + "/pimcheck-replay.provenance.json";
        if (write_file(prov_path, result.provenance_dump)) {
            std::printf("  post-mortem: %s\n", prov_path.c_str());
        }
    }
    return result.violations.empty() ? 0 : 1;
}

/// One-line fingerprint of everything a report claims. Two reports with
/// the same fingerprint made the same decisions in the same order.
std::string fingerprint(const check::ExploreReport& r) {
    std::ostringstream os;
    os << r.runs << '/' << r.deduped_states << '/' << r.violating_runs << '/'
       << r.skipped_branches << '/' << r.frontier_exhausted;
    for (const check::Counterexample& ce : r.counterexamples) {
        os << '/' << check::format_choices(ce.choices);
    }
    return os.str();
}

/// Repeats a run-bounded search N times at 1 and 8 threads and fails
/// unless every report is bit-identical — the determinism contract the
/// wave-parallel explorer promises for fixed seeds.
int run_determinism_check(check::ExploreOptions base, std::size_t repeats) {
    base.time_budget_seconds = 3600; // run-bounded: the deterministic regime
    if (base.max_runs > 400) base.max_runs = 400;
    std::string want;
    bool ok = true;
    for (std::size_t rep = 0; rep < repeats && ok; ++rep) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
            check::ExploreOptions o = base;
            o.threads = threads;
            const std::string got = fingerprint(check::explore(o));
            std::printf("determinism rep %zu threads %zu: %s\n", rep, threads,
                        got.c_str());
            if (want.empty()) {
                want = got;
            } else if (got != want) {
                std::printf("DETERMINISM FAIL: report diverged from %s\n",
                            want.c_str());
                ok = false;
                break;
            }
        }
    }
    std::printf("determinism: %s (%zu repeats x {1,8} threads, %zu runs)\n",
                ok ? "PASS" : "FAIL", repeats, base.max_runs);
    return ok ? 0 : 1;
}

int run_backward(const check::BackwardOptions& options, const std::string& out_dir) {
    const check::BackwardReport report = check::backward_search(options);
    print_backward_report(options, report, out_dir);
    if (options.mutation.empty()) {
        // Healthy protocol: the search coming up dry is the pass.
        return report.violating_runs == 0 ? 0 : 1;
    }
    return report.found() ? 0 : 1;
}

struct MutationVerdict {
    std::string mutation;
    std::string target;
    std::string scenario;
    bool requires_search = false;
    std::size_t backward_replays = 0;
    std::size_t backward_replays_to_hit = 0;
    bool backward_found = false;
    std::size_t forward_runs = 0;
    bool forward_found = false;
    bool forward_capped = false; // forward_runs is a lower bound (cap hit)
    double ratio = 0.0;          // forward_runs / backward_replays_to_hit
    bool ok = false;
};

/// CI gate: every unmutated scenario must survive a bounded forward search
/// with zero violations; each seeded mutation must be caught by the
/// backward engine (and by forward where tractable) with a replayable
/// counterexample; the loss-dependent mutations must show backward's
/// replays-to-hit advantage; and a bounded forward search must be
/// bit-identical at 1 and 8 threads. Writes pimcheck-smoke.json and
/// pimcheck-metrics.prom to out_dir for CI artifact upload.
int run_smoke(check::ExploreOptions base, const std::string& out_dir) {
    bool ok = true;
    telemetry::Registry metrics;

    // --- unmutated baselines ---------------------------------------------
    base.mutation.clear();
    base.metrics = &metrics;
    std::size_t baseline_states = 0;
    struct BaselineVerdict {
        std::string scenario;
        std::size_t runs = 0;
        bool clean = false;
    };
    std::vector<BaselineVerdict> baselines;
    for (const std::string& scenario : check::scenario_names()) {
        check::ExploreOptions bo = base;
        bo.scenario = scenario;
        bo.time_budget_seconds = scenario == "walkthrough" ? 20.0 : 8.0;
        const check::ExploreReport report = check::explore(bo);
        print_report(bo, report, out_dir);
        baseline_states += report.deduped_states;
        baselines.push_back({scenario, report.runs, report.clean()});
        if (!report.clean()) {
            std::printf("SMOKE FAIL: unmutated %s has violations\n",
                        scenario.c_str());
            ok = false;
        }
    }

    // --- seeded mutations, both engines ----------------------------------
    // Loss-dependent mutations are exactly where forward search struggles
    // (the triggering loss hides among thousands of placements), so forward
    // runs under a cap and reports a lower bound when it doesn't hit;
    // backward must beat it by 5x. Everywhere else backward may not be
    // worse than forward.
    constexpr std::size_t kForwardCap = 400;
    constexpr double kRequiredAdvantage = 5.0;
    std::vector<MutationVerdict> verdicts;
    for (const std::string& mutation : check::known_mutations()) {
        MutationVerdict v;
        v.mutation = mutation;
        v.target = check::target_for_mutation(mutation);
        v.scenario = check::scenario_for_mutation(mutation);
        v.requires_search = check::mutation_requires_search(mutation);
        if (v.target.empty()) {
            std::printf("SMOKE FAIL: mutation %s has no backward target\n",
                        mutation.c_str());
            ok = false;
            verdicts.push_back(v);
            continue;
        }

        check::BackwardOptions bo;
        bo.scenario = v.scenario;
        bo.mutation = mutation;
        bo.target = v.target;
        bo.checkpoint_every = base.checkpoint_every;
        bo.metrics = &metrics;
        const check::BackwardReport back = check::backward_search(bo);
        print_backward_report(bo, back, out_dir);
        v.backward_replays = back.replays;
        v.backward_replays_to_hit = back.replays_to_hit;
        v.backward_found = back.found();

        check::ExploreOptions fo = base;
        fo.scenario = v.scenario;
        fo.mutation = mutation;
        fo.stop_at_first_violation = true;
        fo.time_budget_seconds = 60.0;
        fo.max_runs = v.requires_search ? kForwardCap : 50;
        const check::ExploreReport fwd = check::explore(fo);
        print_report(fo, fwd, out_dir);
        v.forward_found = fwd.violating_runs > 0;
        v.forward_capped = !v.forward_found;
        v.forward_runs = v.forward_found ? fwd.runs : fo.max_runs;
        if (v.backward_replays_to_hit > 0) {
            v.ratio = static_cast<double>(v.forward_runs) /
                      static_cast<double>(v.backward_replays_to_hit);
        }

        v.ok = v.backward_found && !back.counterexamples.empty();
        if (!v.ok) {
            std::printf("SMOKE FAIL: backward search missed mutation %s\n",
                        mutation.c_str());
        }
        if (v.requires_search) {
            if (v.ratio < kRequiredAdvantage) {
                std::printf("SMOKE FAIL: backward advantage on %s is %.1fx "
                            "(forward %s%zu vs %zu replays), want >= %.0fx\n",
                            mutation.c_str(), v.ratio,
                            v.forward_capped ? ">=" : "", v.forward_runs,
                            v.backward_replays_to_hit, kRequiredAdvantage);
                v.ok = false;
            }
        } else {
            if (!v.forward_found) {
                std::printf("SMOKE FAIL: forward search missed mutation %s\n",
                            mutation.c_str());
                v.ok = false;
            } else if (v.backward_replays_to_hit > v.forward_runs) {
                std::printf("SMOKE FAIL: backward took %zu replays on %s, "
                            "forward only %zu\n",
                            v.backward_replays_to_hit, mutation.c_str(),
                            v.forward_runs);
                v.ok = false;
            }
        }
        ok = ok && v.ok;
        verdicts.push_back(v);
    }

    // --- thread determinism cross-check ----------------------------------
    // Bit-identity is the contract and holds on any machine; the wall-clock
    // speedup is only physically observable with real cores, so it is
    // recorded always but enforced only where >= 4 hardware threads exist.
    // 24000 runs keep the 8-thread search near 3 s on a 4-core VM (1 thread:
    // ~10.5 s), long enough that the ratio measures the search, not host
    // load: at 2000 runs (~0.7 s) a busy neighbour alone flipped the verdict.
    check::ExploreOptions t1 = base;
    t1.scenario = "walkthrough";
    t1.max_runs = 24000;
    t1.time_budget_seconds = 3600;
    t1.threads = 1;
    check::ExploreOptions t8 = t1;
    t8.threads = 8;
    const check::ExploreReport rep1 = check::explore(t1);
    const check::ExploreReport rep8 = check::explore(t8);
    const bool identical = fingerprint(rep1) == fingerprint(rep8);
    const double speedup = rep8.elapsed_seconds > 0
                               ? rep1.elapsed_seconds / rep8.elapsed_seconds
                               : 0.0;
    const unsigned hw = std::thread::hardware_concurrency();
    const bool enforce_speedup = hw >= 4;
    std::printf("threads: 1 vs 8 on %zu runs: %s, speedup %.2fx "
                "(%u hardware threads%s)\n",
                t1.max_runs, identical ? "bit-identical" : "DIVERGED", speedup,
                hw, enforce_speedup ? "" : "; speedup not enforced");
    if (!identical) {
        std::printf("SMOKE FAIL: 1-thread and 8-thread reports diverged\n");
        ok = false;
    }
    if (enforce_speedup && speedup < 3.0) {
        std::printf("SMOKE FAIL: 8-thread speedup %.2fx < 3x on %u cores\n",
                    speedup, hw);
        ok = false;
    }

    // --- artifacts --------------------------------------------------------
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    std::ostringstream json;
    json << "{\n  \"baselines\": [";
    for (std::size_t i = 0; i < baselines.size(); ++i) {
        const BaselineVerdict& b = baselines[i];
        json << (i ? ",\n    " : "\n    ") << "{\"scenario\": \"" << b.scenario
             << "\", \"runs\": " << b.runs
             << ", \"clean\": " << (b.clean ? "true" : "false") << "}";
    }
    json << "\n  ],\n  \"mutations\": [";
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
        const MutationVerdict& v = verdicts[i];
        json << (i ? ",\n    " : "\n    ") << "{\"mutation\": \"" << v.mutation
             << "\", \"target\": \"" << v.target << "\", \"scenario\": \""
             << v.scenario << "\", \"requires_search\": "
             << (v.requires_search ? "true" : "false")
             << ", \"backward_replays\": " << v.backward_replays
             << ", \"backward_replays_to_hit\": " << v.backward_replays_to_hit
             << ", \"backward_found\": " << (v.backward_found ? "true" : "false")
             << ", \"forward_runs\": " << v.forward_runs
             << ", \"forward_found\": " << (v.forward_found ? "true" : "false")
             << ", \"forward_runs_is_lower_bound\": "
             << (v.forward_capped ? "true" : "false") << ", \"ratio\": " << v.ratio
             << ", \"ok\": " << (v.ok ? "true" : "false") << "}";
    }
    json << "\n  ],\n  \"thread_check\": {\"runs\": " << t1.max_runs
         << ", \"identical\": " << (identical ? "true" : "false")
         << ", \"t1_seconds\": " << rep1.elapsed_seconds
         << ", \"t8_seconds\": " << rep8.elapsed_seconds
         << ", \"speedup\": " << speedup << ", \"hardware_threads\": " << hw
         << ", \"speedup_enforced\": " << (enforce_speedup ? "true" : "false")
         << "},\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
    const std::string json_path = out_dir + "/pimcheck-smoke.json";
    if (write_file(json_path, json.str())) {
        std::printf("smoke report: %s\n", json_path.c_str());
    }
    const std::string prom_path = out_dir + "/pimcheck-metrics.prom";
    if (write_file(prom_path, telemetry::to_prometheus(metrics))) {
        std::printf("smoke metrics: %s\n", prom_path.c_str());
    }

    std::printf("smoke: %s (%zu baseline states explored)\n",
                ok ? "PASS" : "FAIL", baseline_states);
    return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    check::ExploreOptions options;
    std::string replay_spec;
    std::string backward_target;
    std::string forced_fault;
    std::string out_dir = ".";
    std::size_t determinism_repeats = 0;
    bool scenario_set = false;
    bool max_runs_set = false;
    bool max_depth_set = false;
    bool smoke = false;
    bool replay = false;
    bool backward = false;
    bool determinism = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "pimcheck: %s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--scenario") {
            options.scenario = next();
            scenario_set = true;
        } else if (arg == "--mutate") {
            options.mutation = next();
        } else if (arg == "--backward") {
            backward = true;
            backward_target = next();
        } else if (arg == "--threads") {
            options.threads = static_cast<std::size_t>(std::atoll(next()));
        } else if (arg == "--time-budget") {
            options.time_budget_seconds = std::atof(next());
        } else if (arg == "--max-runs") {
            options.max_runs = static_cast<std::size_t>(std::atoll(next()));
            max_runs_set = true;
        } else if (arg == "--max-depth") {
            options.max_depth = static_cast<std::size_t>(std::atoll(next()));
            max_depth_set = true;
        } else if (arg == "--children") {
            options.children_per_run = static_cast<std::size_t>(std::atoll(next()));
        } else if (arg == "--checkpoint-ms") {
            options.checkpoint_every = std::atoll(next()) * sim::kMillisecond;
        } else if (arg == "--seed") {
            options.seed = static_cast<std::uint64_t>(std::atoll(next()));
        } else if (arg == "--stop-at-first") {
            options.stop_at_first_violation = true;
        } else if (arg == "--replay") {
            replay = true;
            replay_spec = next();
        } else if (arg == "--forced-fault") {
            forced_fault = next();
        } else if (arg == "--determinism-check") {
            determinism = true;
            determinism_repeats = static_cast<std::size_t>(std::atoll(next()));
        } else if (arg == "--out") {
            out_dir = next();
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--list") {
            std::printf("scenarios:\n");
            for (const std::string& name : check::scenario_names()) {
                std::printf("  %s\n", name.c_str());
            }
            std::printf("mutations:\n");
            for (const std::string& name : check::known_mutations()) {
                std::printf("  %s%s\n", name.c_str(),
                            check::mutation_requires_search(name)
                                ? " (loss-dependent)"
                                : "");
            }
            std::printf("backward targets:\n");
            for (const std::string& name : check::backward_targets()) {
                std::printf("  %s (scenario %s)\n", name.c_str(),
                            check::default_scenario_for_target(name).c_str());
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "pimcheck: unknown option '%s'\n", arg.c_str());
            usage();
            return 2;
        }
    }

    if (backward) {
        const auto& targets = check::backward_targets();
        if (std::find(targets.begin(), targets.end(), backward_target) ==
            targets.end()) {
            std::fprintf(stderr, "pimcheck: unknown target '%s' (see --list)\n",
                         backward_target.c_str());
            return 2;
        }
        if (!scenario_set) {
            options.scenario = check::default_scenario_for_target(backward_target);
        }
    }
    const auto& scenarios = check::scenario_names();
    if (std::find(scenarios.begin(), scenarios.end(), options.scenario) ==
        scenarios.end()) {
        std::fprintf(stderr, "pimcheck: unknown scenario '%s' (see --list)\n",
                     options.scenario.c_str());
        return 2;
    }
    if (!options.mutation.empty()) {
        const auto& mutations = check::known_mutations();
        if (std::find(mutations.begin(), mutations.end(), options.mutation) ==
            mutations.end()) {
            std::fprintf(stderr, "pimcheck: unknown mutation '%s' (see --list)\n",
                         options.mutation.c_str());
            return 2;
        }
    }

    if (smoke) return run_smoke(options, out_dir);
    if (replay) return run_replay(options, replay_spec, forced_fault, out_dir);
    if (determinism) return run_determinism_check(options, determinism_repeats);
    if (backward) {
        check::BackwardOptions bo;
        bo.scenario = options.scenario;
        bo.mutation = options.mutation;
        bo.target = backward_target;
        if (max_runs_set) bo.max_replays = options.max_runs;
        if (max_depth_set) bo.max_depth = options.max_depth;
        bo.time_budget_seconds = options.time_budget_seconds;
        bo.checkpoint_every = options.checkpoint_every;
        return run_backward(bo, out_dir);
    }

    const check::ExploreReport report = check::explore(options);
    print_report(options, report, out_dir);
    if (options.mutation.empty()) {
        return report.clean() ? 0 : 1;
    }
    // With a seeded bug enabled, the search is expected to catch it.
    return report.violating_runs > 0 ? 0 : 1;
}
