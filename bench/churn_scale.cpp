// Membership-churn scale bench: how the sparse-mode architecture holds up
// when the receiver population is large and churning (§1.1, §2.3). Builds a
// transit-stub wide area (GT-ITM style), parks aggregated host banks on
// every stub router, prefills them to the target receiver count, then runs
// Poisson join/leave churn with Zipf group popularity on top while on/off
// senders keep data flowing on the popular groups.
//
// Because a HostBank keeps O(1) state per (bank, group), the simulated
// receiver population scales to 100k+ without 100k host objects: the
// protocol work stays proportional to *group* membership edges (first join /
// last leave per LAN), which is exactly the paper's aggregation argument.
//
// Reported per point (JSON on stdout, wall-clock numbers on stderr so two
// same-seed runs emit byte-identical JSON):
//   - joins/sec sustained by the churn engine
//   - membership high-water mark (prefill + churn)
//   - steady-state control overhead (control msgs/sim-second, second half)
//   - join-to-data latency distribution (first join on a LAN -> first data)
//
// Usage: churn_scale [--receivers N] [--rate R] [--seed S]
//   --receivers/--rate pin a single sweep point; default sweeps both.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scenario/stacks.hpp"
#include "unicast/oracle_routing.hpp"
#include "workload/churn.hpp"
#include "workload/topology.hpp"

using namespace pimlib;

namespace {

constexpr double kTimeScale = 0.01; // paper-scale timers compressed 100x
constexpr int kGroups = 32;
constexpr int kSenders = 4; // on/off senders on the top popularity ranks

struct PointResult {
    int receivers = 0;
    double rate = 0;
    double duration_s = 0;
    std::uint64_t joins = 0;
    std::uint64_t leaves = 0;
    std::uint64_t saturated = 0;
    std::size_t membership_peak = 0;
    std::size_t membership_end = 0;
    double joins_per_sec = 0;
    double steady_control_per_sec = 0;
    std::vector<double> join_to_data_s;
    std::size_t routers = 0;
    std::size_t banks = 0;
};

/// One full point: fresh network, prefill to `receivers`, churn at `rate`
/// joins/sec for `duration`. Everything is derived from `seed`.
PointResult run_point(std::uint64_t seed, int receivers, double rate,
                      sim::Time duration) {
    PointResult out;
    out.receivers = receivers;
    out.rate = rate;
    out.duration_s = static_cast<double>(duration) / sim::kSecond;

    topo::Network net;
    net.set_seed(seed);
    net.telemetry().set_tracing(false); // spans/events off at this scale

    graph::TransitStubOptions topo_opts;
    topo_opts.transit_domains = 2;
    topo_opts.transit_nodes = 3;
    topo_opts.stub_domains = 3;
    topo_opts.stub_nodes = 3;
    workload::MaterializeOptions mat;
    mat.senders = kSenders;
    std::mt19937 graph_rng(static_cast<std::mt19937::result_type>(seed));
    workload::TransitStubNetwork ts =
        workload::build_transit_stub(net, topo_opts, graph_rng, mat);
    out.routers = ts.routers.size();
    out.banks = ts.bank_hosts.size();

    unicast::OracleRouting routing(net);
    scenario::StackConfig cfg;
    cfg.igmp.query_interval = 10 * sim::kSecond;
    cfg.igmp.membership_timeout = 25 * sim::kSecond;
    cfg = cfg.scaled(kTimeScale);
    scenario::PimSmStack stack(net, cfg);
    stack.set_spt_policy(pim::SptPolicy::never()); // shared trees only

    workload::ChurnConfig churn_cfg;
    churn_cfg.seed = seed;
    churn_cfg.joins_per_sec = rate;
    churn_cfg.session.kind = workload::SessionDuration::Kind::kExponential;
    churn_cfg.session.mean = 2 * sim::kSecond;
    churn_cfg.groups = kGroups;
    churn_cfg.zipf_exponent = 1.0;

    // RPs for the whole catalog round-robin across the transit core.
    const std::vector<topo::Router*> core = ts.transit_routers();
    std::vector<std::unique_ptr<workload::HostBank>> banks;
    std::vector<workload::HostBank*> raw;
    // Per-group capacity: one group could in principle absorb a bank's whole
    // prefill share, plus headroom for the churn on top.
    const auto nbanks = static_cast<std::size_t>(out.banks);
    const int per_bank = receivers / static_cast<int>(nbanks) + 1;
    const int capacity = per_bank + 256;
    for (topo::Host* h : ts.bank_hosts) {
        banks.push_back(std::make_unique<workload::HostBank>(
            stack.host_agent(*h), capacity));
        raw.push_back(banks.back().get());
    }
    workload::ChurnEngine engine(net, raw, churn_cfg);
    for (int r = 0; r < kGroups; ++r) {
        stack.set_rp(engine.group(r),
                     {core[static_cast<std::size_t>(r) % core.size()]->router_id()});
    }

    // Prefill: distribute exactly `receivers` standing members over banks,
    // and over the *popular half* of the catalog by the same Zipf weights
    // the churn uses (renormalized). Deterministic (no RNG) — the shares
    // come straight off the sampler's CDF. These members never leave; churn
    // turns the population over on top of them. The unpopular half starts
    // empty on purpose: churn arrivals there cross real 0→1 / 1→0
    // boundaries, so join/prune protocol work scales with the churn rate
    // instead of being fully absorbed by the banks' aggregation.
    workload::ZipfSampler zipf(kGroups, churn_cfg.zipf_exponent);
    constexpr int kPrefillRanks = kGroups / 2;
    const double norm = zipf.cdf(kPrefillRanks - 1);
    std::size_t prefilled = 0;
    for (std::size_t b = 0; b < nbanks; ++b) {
        const int base = receivers / static_cast<int>(nbanks) +
                         (b < static_cast<std::size_t>(receivers) % nbanks ? 1 : 0);
        int assigned = 0;
        double prev_cdf = 0;
        for (int r = 0; r < kPrefillRanks; ++r) {
            const double w = (zipf.cdf(r) - prev_cdf) / norm;
            prev_cdf = zipf.cdf(r);
            const int want = static_cast<int>(w * base);
            if (want <= 0) continue;
            assigned += raw[b]->join(engine.group(r), want);
        }
        if (assigned < base) {
            assigned += raw[b]->join(engine.group(0), base - assigned);
        }
        prefilled += static_cast<std::size_t>(assigned);
    }
    engine.start();

    // Senders cycle half on the most popular (prefilled) ranks and half on
    // the empty tail, so join-to-data gets both steady-tree samples (t=0
    // first joins) and churn-driven ones (trees built on demand mid-run).
    std::vector<std::unique_ptr<workload::OnOffSender>> senders;
    workload::OnOffSenderConfig sender_cfg;
    sender_cfg.on = 2 * sim::kSecond;
    sender_cfg.off = 500 * sim::kMillisecond;
    sender_cfg.interval = 20 * sim::kMillisecond;
    sender_cfg.start = 200 * sim::kMillisecond;
    for (std::size_t i = 0; i < ts.senders.size(); ++i) {
        const int half = static_cast<int>(ts.senders.size()) / 2;
        const int rank = static_cast<int>(i) < half
                             ? static_cast<int>(i)
                             : kPrefillRanks + static_cast<int>(i) - half;
        senders.push_back(std::make_unique<workload::OnOffSender>(
            *ts.senders[i], engine.group(rank), sender_cfg));
        senders.back()->start();
    }

    // Steady-state overhead window: the second half of the run, well past
    // tree construction for the prefilled membership.
    std::uint64_t control_at_mid = 0;
    net.simulator().schedule_at(duration / 2, [&] {
        control_at_mid = net.stats().total_control_messages();
    });

    const auto wall_start = std::chrono::steady_clock::now();
    net.run_for(duration);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();

    out.joins = engine.joins();
    out.leaves = engine.leaves();
    out.saturated = engine.saturated_joins();
    out.membership_peak = prefilled + engine.membership_peak();
    out.membership_end = prefilled + engine.membership();
    out.joins_per_sec = static_cast<double>(out.joins) / out.duration_s;
    const double half_s = out.duration_s / 2;
    out.steady_control_per_sec =
        static_cast<double>(net.stats().total_control_messages() - control_at_mid) /
        half_s;
    out.join_to_data_s = engine.join_to_data_seconds();

    // Wall-clock goes to stderr only: stdout must be identical across
    // same-seed runs.
    std::fprintf(stderr,
                 "churn_scale: receivers=%d rate=%.0f wall=%.2fs (%.0f sim-s/s)\n",
                 receivers, rate, wall_s, out.duration_s / wall_s);
    return out;
}

std::string json_for(const PointResult& p) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"receivers\":%d,\"rate_per_sec\":%.1f,\"duration_s\":%.2f,\n"
        "     \"routers\":%zu,\"banks\":%zu,\n"
        "     \"joins\":%llu,\"leaves\":%llu,\"saturated\":%llu,\n"
        "     \"joins_per_sec\":%.1f,\"membership_peak\":%zu,"
        "\"membership_end\":%zu,\n"
        "     \"steady_control_msgs_per_sec\":%.1f,\n"
        "     \"join_to_data_s\":",
        p.receivers, p.rate, p.duration_s, p.routers, p.banks,
        static_cast<unsigned long long>(p.joins),
        static_cast<unsigned long long>(p.leaves),
        static_cast<unsigned long long>(p.saturated), p.joins_per_sec,
        p.membership_peak, p.membership_end, p.steady_control_per_sec);
    return std::string(buf) + bench::distribution_json(p.join_to_data_s) + "}";
}

/// The normalized pimbench/1 line for the last (largest) point. Only
/// sim-derived values appear — stdout must stay byte-identical across
/// same-seed runs, so wall-clock metrics are excluded by construction.
bench::Report normalized(const PointResult& p) {
    bench::Report norm("churn_scale");
    norm.metric("joins_per_sec", p.joins_per_sec, "joins/s", "higher")
        .metric("steady_control_msgs_per_sec", p.steady_control_per_sec,
                "msgs/s", "lower")
        .metric("join_to_data_p50_s", bench::percentile(p.join_to_data_s, 0.50),
                "s", "lower")
        .metric("join_to_data_p99_s", bench::percentile(p.join_to_data_s, 0.99),
                "s", "lower")
        .metric("membership_peak", static_cast<double>(p.membership_peak),
                "receivers", "info");
    return norm;
}

std::string emit(std::uint64_t seed, const std::vector<PointResult>& points) {
    std::string out = "{\n  \"bench\":\"churn_scale\",\n  \"seed\":" +
                      std::to_string(seed) + ",\n  \"groups\":" +
                      std::to_string(kGroups) + ",\n  \"points\":[\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        out += json_for(points[i]);
        out += (i + 1 < points.size()) ? ",\n" : "\n";
    }
    return out + "  ]\n}\n";
}

} // namespace

int main(int argc, char** argv) {
    const auto seed = static_cast<std::uint64_t>(
        bench::flag_value(argc, argv, "--seed", 42));

    const int pin_receivers = bench::flag_value(argc, argv, "--receivers", 0);
    const double pin_rate = bench::flag_double(argc, argv, "--rate", 0);

    struct Point {
        int receivers;
        double rate;
    };
    std::vector<Point> sweep;
    if (pin_receivers > 0 || pin_rate > 0) {
        sweep.push_back({pin_receivers > 0 ? pin_receivers : 100000,
                         pin_rate > 0 ? pin_rate : 2000});
    } else {
        // Default sweep: receiver count up to the 100k+ target, then churn
        // rate at the full population.
        sweep = {{25000, 1000}, {50000, 1000}, {100000, 1000},
                 {100000, 2000}, {100000, 4000}};
    }

    const sim::Time duration = 10 * sim::kSecond;
    bench::profile_begin(argc, argv);
    std::vector<PointResult> points;
    points.reserve(sweep.size());
    for (const Point& pt : sweep) {
        points.push_back(run_point(seed, pt.receivers, pt.rate, duration));
    }
    bench::profile_end(argc, argv, "churn_scale");
    std::printf("%s", emit(seed, points).c_str());
    normalized(points.back()).emit();
    return 0;
}
