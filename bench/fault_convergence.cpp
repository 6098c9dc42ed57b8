// Fault-convergence distributions (§2.7, §3.4, §3.9).
//
// The paper's robustness argument is that *one* mechanism — periodic
// refresh of all join/prune state, with holdtimes at 3x the refresh
// period — recovers the distribution trees from link failures, router
// crashes, and RP death. This bench injects each fault class mid-stream,
// several trials per class with the fault instant swept across a refresh
// period (recovery depends on where in the timer cycle the fault lands),
// and reports the recovery-time distribution plus the control-message cost
// of each recovery as JSON.
//
// The acceptance bound asserted here: link-cut and RP-failure recovery
// must complete within 3x the join/prune refresh period (the soft-state
// holdtime, §3.6). Exit status is nonzero if any such trial misses the
// bound, so CI can gate on it.
//
// Usage: fault_convergence [--trials N]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/convergence_probe.hpp"
#include "fault/fault_injector.hpp"
#include "provenance/provenance.hpp"
#include "scenario/stacks.hpp"
#include "telemetry/tree_monitor.hpp"
#include "topo/segment.hpp"
#include "unicast/oracle_routing.hpp"

using namespace pimlib;

namespace {

const net::GroupAddress kGroup{net::Ipv4Address(224, 1, 1, 1)};
constexpr double kTimeScale = 0.01; // 60s paper-scale refresh -> 0.6s

/// One assembled network under test:
///
///        receiver--rlan--A--B1--C(RP1)--D--slan--source
///                         \--B2--/      |
///                          (backup)     E(RP2)
///
/// plus a metric-10 detour B1--D so the network stays connected when C
/// (the primary RP and a cut vertex otherwise) crashes.
struct World {
    topo::Network net;
    topo::Router* a = nullptr;
    topo::Router* b1 = nullptr;
    topo::Router* b2 = nullptr;
    topo::Router* c = nullptr;
    topo::Router* d = nullptr;
    topo::Router* e = nullptr;
    topo::Segment* primary = nullptr; // the B1--C link the shared tree uses
    topo::Host* receiver = nullptr;
    topo::Host* source = nullptr;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<scenario::PimSmStack> stack;
    std::unique_ptr<fault::FaultInjector> faults;
    std::unique_ptr<fault::ConvergenceProbe> probe;
    std::unique_ptr<provenance::Recorder> recorder;
    std::unique_ptr<telemetry::TreeMonitor> monitor;

    /// `bsr`: learn the RP set dynamically through the bootstrap subsystem
    /// (C and E as candidate BSR/RP, C primary on priority) instead of the
    /// static two-RP list — the rp-crash-bsr fault class measures the full
    /// dynamic recovery chain: BSR timeout, takeover, RP-set republish,
    /// re-home.
    explicit World(bool bsr = false) {
        a = &net.add_router("A");
        b1 = &net.add_router("B1");
        b2 = &net.add_router("B2");
        c = &net.add_router("C");
        d = &net.add_router("D");
        e = &net.add_router("E");
        auto& rlan = net.add_lan({a});
        receiver = &net.add_host("receiver", rlan);
        net.add_link(*a, *b1);
        primary = &net.add_link(*b1, *c);
        net.add_link(*a, *b2, sim::kMillisecond, 2);
        net.add_link(*b2, *c, sim::kMillisecond, 2);
        net.add_link(*c, *d);
        net.add_link(*b1, *d, sim::kMillisecond, 10);
        net.add_link(*d, *e);
        auto& slan = net.add_lan({d});
        source = &net.add_host("source", slan);

        routing = std::make_unique<unicast::OracleRouting>(net);
        faults = std::make_unique<fault::FaultInjector>(net);
        probe = std::make_unique<fault::ConvergenceProbe>(net);
        // Flight recorder: a trial that misses its recovery bound dumps the
        // last packets' per-hop fate instead of just a number.
        recorder = std::make_unique<provenance::Recorder>(net.telemetry().registry());
        net.set_provenance(recorder.get());
        probe->attach_recorder(recorder.get());

        scenario::StackConfig cfg;
        cfg.igmp.query_interval = 10 * sim::kSecond;
        cfg.igmp.membership_timeout = 25 * sim::kSecond;
        cfg = cfg.scaled(kTimeScale);
        stack = std::make_unique<scenario::PimSmStack>(net, cfg);
        stack->set_spt_policy(pim::SptPolicy::never());
        if (bsr) {
            const net::Prefix all_groups{net::Ipv4Address{224, 0, 0, 0}, 4};
            stack->set_candidate_bsr(*c, 20);
            stack->set_candidate_bsr(*e, 10);
            stack->set_candidate_rp(*c, all_groups, 20);
            stack->set_candidate_rp(*e, all_groups, 10);
        } else {
            stack->set_rp(kGroup, {c->router_id(), e->router_id()});
        }

        // Bound-miss reports carry a tree-health snapshot (depth, stretch,
        // member ports) next to the per-hop drop record: the measure_group
        // walk is on-demand, so the monitor costs nothing between misses.
        monitor = std::make_unique<telemetry::TreeMonitor>(
            net, [this](const topo::Router& r) { return stack->cache_of(r); });
        probe->set_tree_health_source([this](net::GroupAddress g) {
            return monitor->measure_group(g).to_json();
        });
        stack->wire_faults(*faults);

        // Receiver joins; the source streams for the whole run (10 ms data
        // spacing bounds the measurement granularity).
        net.simulator().schedule_at(100 * sim::kMillisecond, [this] {
            stack->host_agent(*receiver).join(kGroup);
        });
        source->send_stream(kGroup, 2000, 10 * sim::kMillisecond,
                            300 * sim::kMillisecond);
    }

    [[nodiscard]] sim::Time refresh() const {
        return stack->pim_at(*a).config().join_prune_interval;
    }

    fault::ConvergenceProbe::Report run(sim::Time fault_at) {
        net.run_for(fault_at + 3 * sim::kSecond);
        return probe->measure(kGroup, {receiver}, fault_at);
    }
};

using Reports = std::vector<fault::ConvergenceProbe::Report>;

struct FaultSummary {
    std::string name;
    bool bounded = false; // recovery must respect the 3x-refresh bound
    Reports reports;
    bool within_bound = true;
    /// Flight-recorder dumps of the trials that missed the bound, captured
    /// before each trial's world was torn down.
    std::vector<std::string> postmortems;
};

/// Sweeps the fault instant across one refresh period starting at 2 s
/// (well into the steady state), one fresh deterministic world per trial.
/// `bound` is the recovery bound for post-mortem capture (0 = unbounded:
/// only an unconverged trial dumps).
void sweep(FaultSummary& fs, int trials, sim::Time bound,
           const std::function<void(World&, sim::Time)>& inject,
           bool bsr = false) {
    for (int i = 0; i < trials; ++i) {
        World world(bsr);
        const sim::Time fault_at =
            2 * sim::kSecond + i * (world.refresh() / trials);
        inject(world, fault_at);
        fs.reports.push_back(world.run(fault_at));
        std::string pm = world.probe->postmortem(fs.reports.back(), bound);
        if (!pm.empty()) fs.postmortems.push_back(std::move(pm));
    }
}

std::string json_for(const FaultSummary& fs, sim::Time bound,
                     telemetry::Registry& registry) {
    std::string out = "    {\"fault\":\"" + fs.name + "\",\"bounded\":" +
                      (fs.bounded ? "true" : "false") + ",\n     \"trials\":[\n";
    std::vector<double> recoveries;
    for (std::size_t i = 0; i < fs.reports.size(); ++i) {
        out += "       " + fs.reports[i].to_json();
        out += (i + 1 < fs.reports.size()) ? ",\n" : "\n";
        if (fs.reports[i].converged) {
            recoveries.push_back(static_cast<double>(fs.reports[i].recovery) /
                                 sim::kSecond);
        }
    }
    // Percentiles come from the shared telemetry histogram the reports were
    // folded into (bucket-interpolated, same series a scraper would see).
    const telemetry::Histogram& hist = registry.histogram(
        "pimlib_fault_recovery_seconds",
        telemetry::Buckets::exponential(0.001, 1.6, 24), {{"fault", fs.name}});
    out += "     ],\n     \"recovery_s\":" +
           bench::distribution_json(bench::summarize(recoveries),
                                    hist.quantile(0.50), hist.quantile(0.90),
                                    hist.quantile(0.99));
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\n     \"bound_s\":%.6f,\"within_bound\":%s}",
                  static_cast<double>(bound) / sim::kSecond,
                  fs.within_bound ? "true" : "false");
    return out + buf;
}

} // namespace

int main(int argc, char** argv) {
    // Clamp so `--trials 0` can't turn the bound check into a vacuous pass.
    const int trials =
        std::max(1, bench::flag_value(argc, argv, "--trials", 5));

    // One registry across all worlds: each trial's report is folded into
    // pimlib_fault_recovery_seconds{fault} so the JSON percentiles below are
    // read back out of the exact series a metrics scraper would see.
    telemetry::Registry registry;

    // The acceptance bound: soft-state holdtime = 3x join/prune refresh.
    const sim::Time refresh =
        static_cast<sim::Time>(60 * sim::kSecond * kTimeScale);
    const sim::Time bound = 3 * refresh;

    std::vector<FaultSummary> summaries;

    // Link cut: the shared tree's B1--C hop dies; unicast reroutes via B2
    // and §3.8 route-change handling re-homes the tree with a triggered
    // join (recovery should be far inside the 3x bound).
    summaries.push_back({"link-cut", true, {}, true, {}});
    sweep(summaries.back(), trials, bound, [](World& w, sim::Time at) {
        w.faults->cut_link_at(at, *w.primary);
    });

    // Transit router crash: B1 drops off the network with all its state;
    // same re-homing path as a link cut, but every segment B1 touched dies
    // at once (one batched topology recomputation).
    summaries.push_back({"transit-crash", true, {}, true, {}});
    sweep(summaries.back(), trials, bound, [](World& w, sim::Time at) {
        w.faults->crash_router_at(at, *w.b1);
    });

    // RP crash: the primary RP dies losing all its state; receivers' DRs
    // time out RP-reachability (§3.9) and re-join toward the alternate RP.
    // Worst case ~ rp_timeout + one refresh tick, still inside 3x refresh.
    summaries.push_back({"rp-crash", true, {}, true, {}});
    sweep(summaries.back(), trials, bound, [](World& w, sim::Time at) {
        w.faults->crash_router_at(at, *w.c);
    });

    // RP crash with a bootstrap-learned RP set (no static list anywhere):
    // recovery now chains the BSR timeout (2.5x the 0.6s bootstrap
    // interval = 1.5s), E's takeover and RP-set republish, and the members'
    // triggered re-join toward E — the whole dynamic path must still land
    // inside the same 3x-refresh soft-state bound.
    summaries.push_back({"rp-crash-bsr", true, {}, true, {}});
    sweep(
        summaries.back(), trials, bound,
        [](World& w, sim::Time at) { w.faults->crash_router_at(at, *w.c); },
        /*bsr=*/true);

    // Segment loss: 30% of frames on the tree's B1--C hop vanish. Not a
    // topology change — soft-state refresh simply rides it out; reported
    // for the distribution, no bound asserted (post-mortem only if a trial
    // never converges at all).
    summaries.push_back({"loss-30pct", false, {}, true, {}});
    sweep(summaries.back(), trials, /*bound=*/0, [](World& w, sim::Time at) {
        w.faults->set_loss_at(at, *w.primary, 0.3);
    });

    bool ok = true;
    for (FaultSummary& fs : summaries) {
        for (const auto& report : fs.reports) {
            fault::ConvergenceProbe::record(report, registry, fs.name);
        }
        if (!fs.bounded) continue;
        for (const auto& report : fs.reports) {
            if (!report.converged || report.recovery > bound) {
                fs.within_bound = false;
                ok = false;
            }
        }
    }

    std::printf("{\n  \"refresh_s\":%.6f,\n  \"bound_s\":%.6f,\n"
                "  \"trials_per_fault\":%d,\n  \"faults\":[\n",
                static_cast<double>(refresh) / sim::kSecond,
                static_cast<double>(bound) / sim::kSecond, trials);
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        std::printf("%s%s\n", json_for(summaries[i], bound, registry).c_str(),
                    i + 1 < summaries.size() ? "," : "");
    }
    std::printf("  ],\n  \"all_within_bound\":%s\n}\n", ok ? "true" : "false");

    bench::Report norm("fault_convergence");
    for (const FaultSummary& fs : summaries) {
        double worst = 0;
        for (const auto& report : fs.reports) {
            if (report.converged) {
                worst = std::max(
                    worst, static_cast<double>(report.recovery) / sim::kSecond);
            }
        }
        norm.metric("recovery_max_s_" + fs.name, worst, "s", "lower");
    }
    norm.metric("all_within_bound", ok ? 1.0 : 0.0, "bool", "higher");
    norm.emit();

    if (!ok) {
        // Auto-emit the flight-recorder post-mortems of the failing trials
        // so the bound miss arrives with per-hop packet fates attached.
        for (const FaultSummary& fs : summaries) {
            for (std::size_t i = 0; i < fs.postmortems.size(); ++i) {
                const std::string path = "fault-convergence-" + fs.name +
                                         "-postmortem-" + std::to_string(i) +
                                         ".json";
                std::ofstream out(path);
                if (out) {
                    out << fs.postmortems[i];
                    std::fprintf(stderr, "fault_convergence: post-mortem %s\n",
                                 path.c_str());
                }
            }
        }
        std::fprintf(stderr,
                     "fault_convergence: recovery exceeded the 3x-refresh "
                     "bound (see JSON above)\n");
        return 1;
    }
    return 0;
}
