// Host-performance benchmark for pimlib: how fast the library simulates the
// paper's wide-area workloads on this machine, end to end and layer by layer.
//
//   perfbench --workload churn|fanout|refresh|check --seed N --seconds T
//             --trace 0|1 [--plant-fault] [--print-inputs]
//
// One process, one simulation thread, closed loop: the process advances the
// simulator as fast as the host allows. Inside the simulation every join
// arrival and every send is scheduled open-loop in simulated time from the
// seed, so two builds given one seed simulate exactly the same work.
//
// A run repeats "reps" until --seconds of wall time have passed (at least
// three). Each rep builds a fresh world (set-up), simulates a fixed window
// in slices (thread CPU clock), then checks the window's operations (see
// README.md for the per-workload definitions) and fingerprints the
// simulated outcome; every rep of one run must produce the same fingerprint.
// End-to-end metrics are medians over the reps, of CPU times scaled to
// reference speed (see reference_cpu_s and README.md).
//
// --trace 1 instead runs untraced reps, then traced reps with the PROF_ZONE
// profiler enabled around the window, then layer probes on the live state of
// the last rep, and prints the per-layer metrics.
//
// The last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Earlier stdout lines carry informational JSON (simulated
// outcome, failure fraction).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "check/scenario.hpp"
#include "fault/fault_injector.hpp"
#include "mcast/forwarding_cache.hpp"
#include "pim/messages.hpp"
#include "scenario/stacks.hpp"
#include "telemetry/profiler/profiler.hpp"
#include "unicast/oracle_routing.hpp"
#include "workload/churn.hpp"
#include "workload/host_bank.hpp"
#include "workload/topology.hpp"

using namespace pimlib;

namespace {

// ---------------------------------------------------------------- clocks

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t mono_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

volatile std::uint32_t g_reference_sink = 0;

/// A fixed CPU workload shaped like the simulator's inner loop: a chain of
/// dependent loads over 4 MiB, ordered-map churn, and small heap buffers
/// filled and freed. Timed next to every rep so a run can tell how fast the
/// host core is at that moment; the benchmark's own code, so library
/// changes never move it. Returns its thread CPU time.
double reference_cpu_s() {
    constexpr std::uint32_t kRing = 1u << 20;
    static const std::vector<std::uint32_t> ring = [] {
        // Full-period LCG modulo 2^20: one cycle through every slot.
        std::vector<std::uint32_t> v(kRing);
        for (std::uint32_t i = 0; i < kRing; ++i) v[i] = (i * 1103515245u + 12345u) & (kRing - 1);
        return v;
    }();
    const double t0 = thread_cpu_s();
    std::map<std::uint32_t, std::uint32_t> table;
    std::uint32_t idx = 0, acc = 0;
    for (int i = 0; i < 200000; ++i) {
        idx = ring[idx];
        table[idx & 0xffff] += 1;
        if (table.size() > 4096) table.erase(table.begin());
        std::vector<std::uint8_t> payload(64 + (idx & 1023), static_cast<std::uint8_t>(i));
        acc += payload[idx % payload.size()];
    }
    g_reference_sink = acc + static_cast<std::uint32_t>(table.size());
    return thread_cpu_s() - t0;
}

/// reference_cpu_s() on an undisturbed core of the machine the benchmark was
/// defined on (a 4-vCPU x86-64 VM). Each rep's CPU times are multiplied by
/// kReferenceS / (the reference time measured around it): a host core that
/// is slowed for a while by other tenants slows the kernel too, and the
/// ratio cancels it. On that machine, undisturbed, the scaled times are
/// plain CPU seconds.
constexpr double kReferenceS = 0.020;

double sim_seconds(sim::Time t) { return static_cast<double>(t) / sim::kSecond; }

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------- metrics

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Must match BENCHMARK.json (run.py checks the output against it).
constexpr MetricSpec kEndToEnd[] = {
    {"sim_s_per_cpu_s", "sim-s/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Probe sample counts are fixed so the reported percentile names are too:
// 2000 samples keep 20 beyond p99 (and 2 beyond p99.9), 21 samples keep 10
// beyond the median only.
constexpr int kProbeSamples = 2000;
constexpr int kSlowProbeSamples = 21;
constexpr int kScenarioProbeSamples = 11;

constexpr MetricSpec kPerLayer[] = {
    // sim
    {"sim.dispatch.self_ns_per_event", "ns"},
    {"sim.dispatch.self_share", "ratio"},
    {"sim.events_per_sim_s", "events/sim-s"},
    {"sim.wheel.cascades", "count"},
    {"sim.wheel.cascade.self_ns", "ns"},
    {"sim.wheel.pending", "count"},
    {"sim.schedule_fire_ns.p50", "ns"},
    {"sim.schedule_fire_ns.p99", "ns"},
    {"sim.schedule_fire_ns.samples", "count"},
    {"sim.timer_rearm_ns.p50", "ns"},
    {"sim.timer_rearm_ns.p99", "ns"},
    {"sim.timer_rearm_ns.samples", "count"},
    // topo
    {"topo.transmit_deliver_64B_ns.p50", "ns"},
    {"topo.transmit_deliver_64B_ns.p99", "ns"},
    {"topo.transmit_deliver_64B_ns.samples", "count"},
    {"topo.transmit_deliver_1400B_ns.p50", "ns"},
    {"topo.transmit_deliver_1400B_ns.p99", "ns"},
    {"topo.transmit_deliver_1400B_ns.samples", "count"},
    {"topo.lan_attachments", "count"},
    {"topo.frames_per_delivery", "ratio"},
    // mcast
    {"mcast.replicate.self_ns_per_call", "ns"},
    {"mcast.replicate.self_share", "ratio"},
    {"mcast.replicate.calls_per_delivery", "ratio"},
    {"mcast.forward.self_ns_per_call", "ns"},
    {"mcast.forward.self_share", "ratio"},
    {"mcast.forward.calls_per_delivery", "ratio"},
    {"mcast.forward_1oif_64B_ns.p50", "ns"},
    {"mcast.forward_1oif_64B_ns.p99", "ns"},
    {"mcast.forward_1oif_1400B_ns.p50", "ns"},
    {"mcast.forward_1oif_1400B_ns.p99", "ns"},
    {"mcast.forward_4oif_64B_ns.p50", "ns"},
    {"mcast.forward_4oif_64B_ns.p99", "ns"},
    {"mcast.forward_4oif_1400B_ns.p50", "ns"},
    {"mcast.forward_4oif_1400B_ns.p99", "ns"},
    {"mcast.forward_16oif_64B_ns.p50", "ns"},
    {"mcast.forward_16oif_64B_ns.p99", "ns"},
    {"mcast.forward_16oif_1400B_ns.p50", "ns"},
    {"mcast.forward_16oif_1400B_ns.p99", "ns"},
    {"mcast.forward_ns.samples", "count"},
    {"mcast.cache_lookup_ns.p50", "ns"},
    {"mcast.cache_lookup_ns.p99", "ns"},
    {"mcast.cache_lookup_ns.samples", "count"},
    {"mcast.cache_entries", "count"},
    // pim
    {"pim.control.self_ns_per_call", "ns"},
    {"pim.control.self_share", "ratio"},
    {"pim.control_msgs_per_sim_s", "msgs/sim-s"},
    {"pim.bundle_codec_ns.p50", "ns"},
    {"pim.bundle_codec_ns.p99", "ns"},
    {"pim.bundle_codec_ns.samples", "count"},
    {"pim.bundle_groups", "count"},
    // igmp
    {"igmp.control.self_ns_per_call", "ns"},
    {"igmp.control.self_share", "ratio"},
    {"igmp.control_msgs_per_sim_s", "msgs/sim-s"},
    // stats
    {"stats.count_control_ns.p50", "ns"},
    {"stats.count_control_ns.p99", "ns"},
    {"stats.count_control_ns.samples", "count"},
    {"stats.note_flow_ns.p50", "ns"},
    {"stats.note_flow_ns.p99", "ns"},
    {"stats.note_flow_ns.samples", "count"},
    // unicast
    {"unicast.rib_lookup_ns.p50", "ns"},
    {"unicast.rib_lookup_ns.p99", "ns"},
    {"unicast.rib_lookup_ns.samples", "count"},
    {"unicast.rib_routes", "count"},
    {"unicast.oracle_recompute_ms.p50", "ms"},
    {"unicast.oracle_recompute_ms.samples", "count"},
    // workload
    {"workload.churn.self_ns_per_call", "ns"},
    {"workload.churn.self_share", "ratio"},
    {"workload.bank_join_leave_ns.p50", "ns"},
    {"workload.bank_join_leave_ns.p99", "ns"},
    {"workload.bank_join_leave_ns.samples", "count"},
    // scenario (set-up phases, medians over the reps)
    {"scenario.topology_ms", "ms"},
    {"scenario.routing_ms", "ms"},
    {"scenario.stack_ms", "ms"},
    {"scenario.prefill_ms", "ms"},
    {"scenario.warmup_ms", "ms"},
    // check
    {"check.run_scenario_ms.walkthrough.p50", "ms"},
    {"check.run_scenario_ms.rp-failover.p50", "ms"},
    {"check.run_scenario_ms.lan-assert.p50", "ms"},
    {"check.run_scenario_ms.bsr-failover.p50", "ms"},
    {"check.run_scenario_ms.samples", "count"},
    {"check.runs_per_cpu_s", "runs/s"},
    {"check.states_per_run", "ratio"},
    {"check.explore.self_ns_per_run", "ns"},
    {"check.explore.self_share", "ratio"},
    // tracing
    {"trace.overhead_frac", "ratio"},
};

/// Metric values keyed by name; emitted in the spec table's order, with 0
/// for any layer the workload does not exercise.
class Metrics {
public:
    void set(const std::string& name, double value) {
        values_[name] = std::isfinite(value) ? value : 0.0;
    }

    /// Sets `<name>.p50`, `<name>.p99` (when the table has it) and
    /// `<name>.samples` from per-call samples.
    void probe(const std::string& name, const std::vector<double>& samples) {
        set(name + ".p50", percentile(samples, 0.50));
        set(name + ".p99", percentile(samples, 0.99));
        set(name + ".samples", static_cast<double>(samples.size()));
    }

    template <std::size_t N>
    [[nodiscard]] std::string json(const MetricSpec (&specs)[N]) const {
        std::string out = "{";
        for (std::size_t i = 0; i < N; ++i) {
            const auto it = values_.find(specs[i].name);
            const double v = it == values_.end() ? 0.0 : it->second;
            char buf[256];
            std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i == 0 ? "" : ", ", specs[i].name, v, specs[i].unit);
            out += buf;
        }
        return out + "}";
    }

private:
    std::map<std::string, double> values_;
};

/// Times `samples` batches of `batch` calls of `fn` and returns ns per call,
/// one value per batch. Batching keeps the clock read out of cheap calls.
std::vector<double> time_batches(int samples, int batch, const std::function<void()>& fn,
                                 const std::function<void()>& between = {}) {
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(samples));
    for (int s = 0; s < samples; ++s) {
        const std::int64_t t0 = mono_ns();
        for (int i = 0; i < batch; ++i) fn();
        const std::int64_t t1 = mono_ns();
        out.push_back(static_cast<double>(t1 - t0) / batch);
        if (between) between();
    }
    return out;
}

// ---------------------------------------------------------------- options

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool plant_fault = false;
    bool print_inputs = false;
};

/// splitmix64: decorrelated per-purpose seeds from the one workload seed.
std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) { return mix(h ^ v); }

// ---------------------------------------------------------------- rep data

/// Set-up phase CPU seconds for one rep.
struct SetupTimes {
    double topology = 0, routing = 0, stack = 0, prefill = 0, warmup = 0;
    [[nodiscard]] double total() const { return topology + routing + stack + prefill + warmup; }
};

/// Everything a rep reports.
struct RepResult {
    SetupTimes setup;
    double window_cpu_s = 0;
    /// Window and set-up CPU times scaled to reference speed (kReferenceS).
    double scaled_window_cpu_s = 0;
    double setup_scale = 1;
    double simulated_s = 0;     // simulated seconds covered by the window
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> outcome; // simulated outcome; must repeat exactly
    std::vector<std::string> outcome_names;
    // Window deltas for per-layer ratios.
    double events = 0, frames = 0, deliveries = 0, pim_msgs = 0, igmp_msgs = 0;
    double cascades = 0;
    double check_runs = 0, check_states = 0;
};

/// A workload builds one world per rep, runs its window, checks it, and
/// (traced runs) probes its live state.
class Workload {
public:
    static constexpr int kSlices = 4;

    virtual ~Workload() = default;
    virtual void setup(SetupTimes& times) = 0;
    /// Runs the measured window in kSlices slices, calling `after_slice`
    /// with each slice's CPU time, outside the timed part; `trace` enables
    /// the profiler.
    using SliceDone = std::function<void(double slice_cpu_s)>;
    virtual void window(bool trace, const SliceDone& after_slice) = 0;
    /// Checks the window's operations and fills the outcome.
    virtual void verify(RepResult& out) = 0;
    virtual void probe(Metrics& metrics) = 0;
    /// A digest of the generated inputs (for the benchmark's own tests).
    [[nodiscard]] virtual std::uint64_t inputs_digest() const = 0;
};

// ---------------------------------------------------------------- sim world

constexpr double kTimeScale = 0.01; // paper-scale timers compressed 100x
constexpr unsigned kTopologySeed = 42;

/// A data source driven by the benchmark: one host, one group, a packet
/// every `interval` during the on-phase of an on/off cycle (off = 0 keeps
/// it always on), payload sizes cycling through `payloads`. Host sequence
/// numbers count per (host, group) from 1, so the k-th send carries seq k.
class Sender {
public:
    struct Plan {
        sim::Time start = 0;
        sim::Time interval = sim::kMillisecond;
        sim::Time on = 0;
        sim::Time off = 0;
        std::vector<std::size_t> payloads{64};
    };

    Sender(topo::Host& host, net::GroupAddress group, Plan plan)
        : host_(&host), group_(group), plan_(std::move(plan)) {}
    Sender(const Sender&) = delete;
    Sender& operator=(const Sender&) = delete;

    void start() {
        host_->simulator().schedule_at(plan_.start, [this] { tick(); });
    }
    [[nodiscard]] std::uint64_t sent() const { return sent_; }
    [[nodiscard]] topo::Host& host() const { return *host_; }
    [[nodiscard]] net::GroupAddress group() const { return group_; }

private:
    void tick() {
        sim::Simulator& sim = host_->simulator();
        const sim::Time phase = sim.now() - plan_.start;
        if (plan_.off == 0 || phase % (plan_.on + plan_.off) < plan_.on) {
            host_->send_data(group_, plan_.payloads[sent_ % plan_.payloads.size()]);
            ++sent_;
        }
        sim.schedule(plan_.interval, [this] { tick(); });
    }

    topo::Host* host_;
    net::GroupAddress group_;
    Plan plan_;
    std::uint64_t sent_ = 0;
};

struct BankLan {
    topo::Router* dr = nullptr; // the stub router: the LAN's only router
    int ifindex = -1;
};

/// Shared machinery of the three simulated workloads: transit-stub wide
/// area, oracle unicast, PIM-SM, host banks on every stub LAN.
class SimWorkload : public Workload {
public:
    explicit SimWorkload(const Options& options) : options_(options) {}

    void setup(SetupTimes& times) override {
        double t = thread_cpu_s();
        auto lap = [&t](double& slot) {
            const double now = thread_cpu_s();
            slot += now - t;
            t = now;
        };
        net_ = std::make_unique<topo::Network>();
        net_->set_seed(options_.seed);
        net_->telemetry().set_tracing(false);
        graph::TransitStubOptions topo_opts;
        topo_opts.transit_domains = 2;
        topo_opts.transit_nodes = 3;
        topo_opts.stub_domains = 3;
        topo_opts.stub_nodes = 3;
        workload::MaterializeOptions mat;
        mat.senders = sender_count();
        std::mt19937 graph_rng(kTopologySeed);
        ts_ = workload::build_transit_stub(*net_, topo_opts, graph_rng, mat);
        lap(times.topology);

        routing_ = std::make_unique<unicast::OracleRouting>(*net_);
        lap(times.routing);

        scenario::StackConfig cfg;
        cfg.igmp.query_interval = 10 * sim::kSecond;
        cfg.igmp.membership_timeout = 25 * sim::kSecond;
        stack_ = std::make_unique<scenario::PimSmStack>(*net_, cfg.scaled(kTimeScale));
        stack_->set_spt_policy(spt_policy());
        const std::vector<topo::Router*> core = ts_.transit_routers();
        for (int g = 0; g < group_count(); ++g) {
            stack_->set_rp(group(g), {core[static_cast<std::size_t>(g) % core.size()]->router_id()});
        }
        for (std::size_t b = 0; b < ts_.bank_hosts.size(); ++b) {
            banks_.push_back(std::make_unique<workload::HostBank>(
                stack_->host_agent(*ts_.bank_hosts[b]), bank_capacity()));
            BankLan lan;
            for (const topo::Segment::Attachment& att : ts_.lans[b]->attachments()) {
                if (auto* r = dynamic_cast<topo::Router*>(att.node)) {
                    lan.dr = r;
                    lan.ifindex = att.ifindex;
                }
            }
            lans_.push_back(lan);
        }
        lap(times.stack);

        prefill();
        lap(times.prefill);

        net_->run_for(warmup());
        lap(times.warmup);
    }

    void window(bool trace, const SliceDone& after_slice) override {
        for (topo::Host* h : ts_.bank_hosts) h->clear_received();
        for (const auto& s : senders_) window_start_sent_.push_back(s->sent());
        if (options_.plant_fault) {
            faults_ = std::make_unique<fault::FaultInjector>(*net_);
            faults_->set_loss(*ts_.lans.front(), 0.2);
        }
        sim::Simulator& sim = net_->simulator();
        const stats::NetworkStats& st = net_->stats();
        const double events0 = static_cast<double>(sim.executed());
        const double frames0 = static_cast<double>(st.total_data_packets());
        const double deliv0 = static_cast<double>(st.data_delivered());
        const double pim0 = static_cast<double>(st.control_messages("pim"));
        const double igmp0 = static_cast<double>(st.control_messages("igmp"));
        const double casc0 = static_cast<double>(sim.wheel().stats().cascades);

        if (trace) prof::set_enabled(true);
        cpu_ = 0;
        for (int i = 0; i < kSlices; ++i) {
            const double c0 = thread_cpu_s();
            net_->run_for(window_length() / kSlices);
            const double slice = thread_cpu_s() - c0;
            cpu_ += slice;
            after_slice(slice);
        }
        if (trace) prof::set_enabled(false);

        events_ = static_cast<double>(sim.executed()) - events0;
        frames_ = static_cast<double>(st.total_data_packets()) - frames0;
        deliveries_ = static_cast<double>(st.data_delivered()) - deliv0;
        pim_msgs_ = static_cast<double>(st.control_messages("pim")) - pim0;
        igmp_msgs_ = static_cast<double>(st.control_messages("igmp")) - igmp0;
        cascades_ = static_cast<double>(sim.wheel().stats().cascades) - casc0;
        for (const auto& s : senders_) window_end_sent_.push_back(s->sent());
    }

    void verify(RepResult& out) override {
        out.window_cpu_s = cpu_;
        out.simulated_s = sim_seconds(window_length());
        out.events = events_;
        out.frames = frames_;
        out.deliveries = deliveries_;
        out.pim_msgs = pim_msgs_;
        out.igmp_msgs = igmp_msgs_;
        out.cascades = cascades_;
        check_operations(out);
        auto add = [&out](const char* name, double v) {
            out.outcome_names.emplace_back(name);
            out.outcome.push_back(v);
        };
        std::vector<double> j2d;
        for (const auto& b : banks_) {
            j2d.insert(j2d.end(), b->join_to_data_seconds().begin(),
                       b->join_to_data_seconds().end());
        }
        add("events", events_);
        add("control_msgs", pim_msgs_ + igmp_msgs_);
        add("data_frames", frames_);
        add("deliveries", deliveries_);
        add("join_to_data_p50_s", percentile(j2d, 0.50));
        add("join_to_data_p99_s", percentile(j2d, 0.99));
        add("membership_peak", static_cast<double>(membership_peak()));
    }

    void probe(Metrics& m) override;

    [[nodiscard]] std::uint64_t inputs_digest() const override {
        std::uint64_t h = 0;
        for (std::size_t b = 0; b < banks_.size(); ++b) {
            for (int g = 0; g < group_count(); ++g) {
                h = hash_combine(h, static_cast<std::uint64_t>(banks_[b]->members(group(g))));
            }
        }
        return hash_combine(h, extra_digest());
    }

protected:
    virtual int sender_count() const { return 0; }
    virtual int group_count() const = 0;
    virtual int bank_capacity() const = 0;
    virtual pim::SptPolicy spt_policy() const { return pim::SptPolicy::never(); }
    virtual void prefill() = 0;
    virtual sim::Time warmup() const = 0;
    virtual sim::Time window_length() const = 0;
    virtual void check_operations(RepResult& out) = 0;
    virtual std::size_t membership_peak() const {
        std::size_t n = 0;
        for (const auto& b : banks_) n += b->total_members();
        return n;
    }
    virtual std::uint64_t extra_digest() const { return 0; }

    /// A seeded choice of exactly half the banks, in bank order: seeds move
    /// which LANs join, not how much work the membership makes.
    [[nodiscard]] std::vector<std::size_t> half_of_banks(std::mt19937_64& rng) const {
        std::vector<std::size_t> all(banks_.size());
        for (std::size_t b = 0; b < all.size(); ++b) all[b] = b;
        std::shuffle(all.begin(), all.end(), rng);
        all.resize(all.size() / 2);
        std::sort(all.begin(), all.end());
        return all;
    }

    [[nodiscard]] net::GroupAddress group(int g) const {
        return net::GroupAddress{net::Ipv4Address(group_base_.to_uint() + static_cast<std::uint32_t>(g))};
    }

    /// Exactly-once delivery check for packets sent in the window: for each
    /// sender in `checked` and each bank in `members[sender]`, every
    /// window sequence number must appear exactly once in the bank host's
    /// received records. Runs `drain` more simulated time first so packets
    /// in flight at the window's end land (later sends are ignored).
    void check_deliveries(const std::vector<std::size_t>& checked,
                          const std::vector<std::vector<std::size_t>>& members,
                          sim::Time drain, RepResult& out) {
        net_->run_for(drain);
        for (std::size_t s : checked) {
            const Sender& snd = *senders_[s];
            const std::uint64_t lo = window_start_sent_[s] + 1;
            const std::uint64_t hi = window_end_sent_[s]; // inclusive
            if (hi < lo) continue;
            const net::Ipv4Address src = snd.host().address();
            for (std::size_t b : members[s]) {
                std::vector<std::uint32_t> seen(hi - lo + 1, 0);
                for (const topo::Host::ReceivedRecord& rec : ts_.bank_hosts[b]->received()) {
                    if (rec.source == src && rec.group == snd.group() && rec.seq >= lo &&
                        rec.seq <= hi) {
                        ++seen[rec.seq - lo];
                    }
                }
                out.attempted += seen.size();
                for (std::uint32_t c : seen) {
                    if (c != 1) ++out.failed;
                }
            }
        }
    }

    Options options_;
    net::Ipv4Address group_base_{224, 9, 0, 1};
    std::unique_ptr<topo::Network> net_;
    workload::TransitStubNetwork ts_;
    std::unique_ptr<unicast::OracleRouting> routing_;
    std::unique_ptr<scenario::PimSmStack> stack_;
    std::vector<std::unique_ptr<workload::HostBank>> banks_;
    std::vector<BankLan> lans_;
    std::vector<std::unique_ptr<Sender>> senders_;
    std::unique_ptr<fault::FaultInjector> faults_;
    std::vector<std::uint64_t> window_start_sent_;
    std::vector<std::uint64_t> window_end_sent_;
    double cpu_ = 0, events_ = 0, frames_ = 0, deliveries_ = 0, pim_msgs_ = 0,
           igmp_msgs_ = 0, cascades_ = 0;
};

// ---------------------------------------------------------------- churn

/// The ROADMAP reference run (bench/churn_scale at 100k receivers, 2000
/// joins/s): prefilled standing members on the popular half of a 32-group
/// Zipf catalog, Poisson churn on top, four on/off senders on shared trees.
class ChurnWorkload final : public SimWorkload {
public:
    using SimWorkload::SimWorkload;

private:
    static constexpr int kGroups = 32;
    static constexpr int kReceivers = 100000;
    static constexpr int kPrefillRanks = kGroups / 2;

    int sender_count() const override { return 4; }
    int group_count() const override { return kGroups; }
    int bank_capacity() const override {
        return kReceivers / static_cast<int>(ts_.bank_hosts.size()) + 1 + 256;
    }
    sim::Time warmup() const override { return sim::kSecond; }
    sim::Time window_length() const override { return 30 * sim::kSecond; }

    void prefill() override {
        workload::ChurnConfig cfg;
        cfg.seed = mix(options_.seed);
        cfg.joins_per_sec = 2000;
        cfg.session.kind = workload::SessionDuration::Kind::kExponential;
        cfg.session.mean = 2 * sim::kSecond;
        cfg.groups = kGroups;
        cfg.group_base = group_base_;
        cfg.zipf_exponent = 1.0;
        std::vector<workload::HostBank*> raw;
        for (const auto& b : banks_) raw.push_back(b.get());
        engine_ = std::make_unique<workload::ChurnEngine>(*net_, raw, cfg);

        // Standing members, deterministic shares of the popular half by the
        // churn's own Zipf weights (as bench/churn_scale does). They never
        // leave: churn departures only remove churn arrivals.
        workload::ZipfSampler zipf(kGroups, cfg.zipf_exponent);
        const double norm = zipf.cdf(kPrefillRanks - 1);
        const std::size_t nbanks = raw.size();
        prefilled_ = 0;
        prefill_members_.assign(static_cast<std::size_t>(kGroups), {});
        for (std::size_t b = 0; b < nbanks; ++b) {
            const int base = kReceivers / static_cast<int>(nbanks) +
                             (b < static_cast<std::size_t>(kReceivers) % nbanks ? 1 : 0);
            int assigned = 0;
            double prev = 0;
            for (int r = 0; r < kPrefillRanks; ++r) {
                const double w = (zipf.cdf(r) - prev) / norm;
                prev = zipf.cdf(r);
                const int want = static_cast<int>(w * base);
                if (want <= 0) continue;
                assigned += raw[b]->join(group(r), want);
                prefill_members_[static_cast<std::size_t>(r)].push_back(b);
            }
            if (assigned < base) assigned += raw[b]->join(group(0), base - assigned);
            prefilled_ += static_cast<std::size_t>(assigned);
        }
        engine_->start();

        // Half the senders on the top (prefilled) ranks, half on the empty
        // tail, so trees are both steady and built on demand mid-run.
        std::mt19937_64 rng(mix(options_.seed + 1));
        const int half = static_cast<int>(ts_.senders.size()) / 2;
        for (std::size_t i = 0; i < ts_.senders.size(); ++i) {
            const int rank = static_cast<int>(i) < half ? static_cast<int>(i)
                                                        : kPrefillRanks + static_cast<int>(i) - half;
            Sender::Plan plan;
            plan.start = 200 * sim::kMillisecond +
                         static_cast<sim::Time>(rng() % static_cast<std::uint64_t>(sim::kMillisecond));
            plan.interval = 20 * sim::kMillisecond;
            plan.on = 2 * sim::kSecond;
            plan.off = 500 * sim::kMillisecond;
            senders_.push_back(std::make_unique<Sender>(*ts_.senders[i], group(rank), plan));
            senders_.back()->start();
            sender_rank_.push_back(rank);
        }
    }

    void check_operations(RepResult& out) override {
        // Operations: packets from the senders on prefilled ranks, to every
        // bank LAN holding standing members of that group.
        std::vector<std::size_t> checked;
        std::vector<std::vector<std::size_t>> members(senders_.size());
        for (std::size_t s = 0; s < senders_.size(); ++s) {
            if (sender_rank_[s] >= kPrefillRanks) continue;
            checked.push_back(s);
            members[s] = prefill_members_[static_cast<std::size_t>(sender_rank_[s])];
        }
        check_deliveries(checked, members, 300 * sim::kMillisecond, out);
    }

    std::size_t membership_peak() const override {
        return prefilled_ + engine_->membership_peak();
    }

    std::uint64_t extra_digest() const override {
        std::uint64_t h = hash_combine(engine_->joins(), engine_->leaves());
        for (double s : engine_->join_to_data_seconds()) {
            h = hash_combine(h, static_cast<std::uint64_t>(s * 1e9));
        }
        return h;
    }

    std::unique_ptr<workload::ChurnEngine> engine_;
    std::size_t prefilled_ = 0;
    std::vector<std::vector<std::size_t>> prefill_members_; // per rank
    std::vector<int> sender_rank_;
};

// ---------------------------------------------------------------- fanout

/// Steady data plane: fixed membership (each bank joins about half of 16
/// groups), 16 senders at 1 kpkt/s on shortest-path trees, payloads
/// alternating 64 B and 1400 B, no churn.
class FanoutWorkload final : public SimWorkload {
public:
    using SimWorkload::SimWorkload;

private:
    static constexpr int kGroups = 16;

    int sender_count() const override { return kGroups; }
    int group_count() const override { return kGroups; }
    int bank_capacity() const override { return 64; }
    pim::SptPolicy spt_policy() const override { return pim::SptPolicy::immediate(); }
    sim::Time warmup() const override { return 300 * sim::kMillisecond; }
    sim::Time window_length() const override { return 500 * sim::kMillisecond; }

    void prefill() override {
        std::mt19937_64 rng(mix(options_.seed));
        members_.clear();
        for (int g = 0; g < kGroups; ++g) {
            members_.push_back(half_of_banks(rng));
            for (std::size_t b : members_.back()) {
                banks_[b]->join(group(g), 1 + static_cast<int>(rng() % 64));
            }
        }
        for (int g = 0; g < kGroups; ++g) {
            Sender::Plan plan;
            plan.start = 10 * sim::kMillisecond +
                         static_cast<sim::Time>(rng() % static_cast<std::uint64_t>(sim::kMillisecond));
            plan.interval = sim::kMillisecond;
            plan.payloads = {64, 1400};
            senders_.push_back(std::make_unique<Sender>(
                *ts_.senders[static_cast<std::size_t>(g)], group(g), plan));
            senders_.back()->start();
        }
    }

    void check_operations(RepResult& out) override {
        std::vector<std::size_t> checked;
        for (std::size_t s = 0; s < senders_.size(); ++s) checked.push_back(s);
        check_deliveries(checked, members_, 100 * sim::kMillisecond, out);
    }

    std::vector<std::vector<std::size_t>> members_; // per group: bank indexes
};

// ---------------------------------------------------------------- refresh

/// Steady soft-state control: 512 groups on shared trees, about half the
/// banks joined per group, no data, timers compressed 100x.
class RefreshWorkload final : public SimWorkload {
public:
    using SimWorkload::SimWorkload;

private:
    static constexpr int kGroups = 512;

    int group_count() const override { return kGroups; }
    int bank_capacity() const override { return 8; }
    sim::Time warmup() const override { return sim::kSecond; }
    sim::Time window_length() const override { return 4 * sim::kSecond; }

    void prefill() override {
        std::mt19937_64 rng(mix(options_.seed));
        pairs_.clear();
        for (int g = 0; g < kGroups; ++g) {
            for (std::size_t b : half_of_banks(rng)) {
                banks_[b]->join(group(g), 1 + static_cast<int>(rng() % 8));
                pairs_.emplace_back(b, g);
            }
        }
    }

    void check_operations(RepResult& out) override {
        // Operations: every (bank, group) membership must still be on its
        // DR's shared tree at the end of the window.
        for (const auto& [b, g] : pairs_) {
            ++out.attempted;
            const BankLan& lan = lans_[b];
            const mcast::ForwardingEntry* wc =
                lan.dr == nullptr ? nullptr : stack_->pim_at(*lan.dr).cache().find_wc(group(g));
            if (wc == nullptr || !wc->has_oif(lan.ifindex)) ++out.failed;
        }
    }

    std::vector<std::pair<std::size_t, int>> pairs_;
};

// ---------------------------------------------------------------- probes

void SimWorkload::probe(Metrics& m) {
    std::mt19937_64 rng(mix(options_.seed + 99));
    const std::size_t pending = net_->simulator().pending();
    m.set("sim.wheel.pending", static_cast<double>(pending));

    // sim: schedule + fire of a short one-shot event, over a wheel holding
    // as many far-future events as the live simulator.
    {
        sim::Simulator probe_sim;
        for (std::size_t i = 0; i < pending; ++i) {
            probe_sim.schedule(10 * sim::kSecond + static_cast<sim::Time>(rng() % 10'000'000), [] {});
        }
        int fired = 0;
        m.probe("sim.schedule_fire_ns", time_batches(kProbeSamples, 64, [&] {
                    probe_sim.schedule(sim::kMicrosecond, [&fired] { ++fired; });
                    probe_sim.run_until(probe_sim.now() + sim::kMicrosecond);
                }));
    }
    // sim: re-arming soft-state timers, a population the size of the live
    // pending set.
    {
        sim::Simulator probe_sim;
        std::vector<std::unique_ptr<sim::OneshotTimer>> timers;
        for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) {
            timers.push_back(std::make_unique<sim::OneshotTimer>(probe_sim, [] {}));
            timers.back()->arm(sim::kSecond + static_cast<sim::Time>(rng() % 10'000'000));
        }
        m.probe("sim.timer_rearm_ns", time_batches(kProbeSamples, 64, [&] {
                    timers[rng() % timers.size()]->arm(
                        sim::kSecond + static_cast<sim::Time>(rng() % 10'000'000));
                }));
    }
    // topo: one LAN with as many attachments as the largest bank LAN, every
    // host a member; transmit from the router through delivery.
    {
        std::size_t k = 2;
        for (topo::Segment* lan : ts_.lans) k = std::max(k, lan->attachments().size());
        m.set("topo.lan_attachments", static_cast<double>(k));
        topo::Network pnet;
        pnet.telemetry().set_tracing(false);
        topo::Router& r = pnet.add_router("r");
        topo::Segment& lan = pnet.add_lan({&r});
        const net::GroupAddress g{net::Ipv4Address(224, 9, 0, 1)};
        std::vector<topo::Host*> hosts;
        for (std::size_t i = 1; i < k; ++i) {
            hosts.push_back(&pnet.add_host("h" + std::to_string(i), lan));
            hosts.back()->join_group(g);
        }
        for (std::size_t size : {std::size_t{64}, std::size_t{1400}}) {
            net::Packet p;
            p.src = net::Ipv4Address(10, 200, 0, 1);
            p.dst = g.address();
            p.ttl = 16;
            p.payload.assign(size, 0xAB);
            const net::Frame frame{std::nullopt, p};
            // One sample: 32 frames transmitted, then the clock run until
            // they are all delivered; reported per frame.
            constexpr int kFrames = 32;
            std::vector<double> s = time_batches(kProbeSamples, 1, [&] {
                for (int i = 0; i < kFrames; ++i) lan.transmit(r, frame);
                pnet.simulator().run_until(pnet.simulator().now() + lan.delay());
            }, [&] {
                for (topo::Host* h : hosts) h->clear_received();
            });
            for (double& v : s) v /= kFrames;
            m.probe("topo.transmit_deliver_" + std::to_string(size) + "B_ns", s);
        }
    }
    // mcast: DataPlane::on_multicast_data on an (S,G) entry with 1/4/16
    // live oifs, one listener per oif; deliveries drained between samples.
    {
        topo::Network pnet;
        pnet.telemetry().set_tracing(false);
        topo::Router& r = pnet.add_router("r");
        constexpr int kMaxOifs = 16;
        for (int i = 0; i <= kMaxOifs; ++i) {
            topo::Segment& lan = pnet.add_lan({&r});
            pnet.add_host("h" + std::to_string(i), lan);
        }
        mcast::ForwardingCache cache;
        mcast::DataPlane dp(r, cache);
        const net::Ipv4Address src(10, 200, 0, 1);
        std::size_t samples = 0;
        for (int oifs : {1, 4, 16}) {
            const net::GroupAddress g{net::Ipv4Address(224, 9, 1, static_cast<std::uint8_t>(oifs))};
            mcast::ForwardingEntry& e = cache.ensure_sg(src, g);
            e.set_iif(0);
            e.set_spt_bit(true);
            for (int i = 1; i <= oifs; ++i) e.pin_oif(i);
            for (std::size_t size : {std::size_t{64}, std::size_t{1400}}) {
                net::Packet p;
                p.src = src;
                p.dst = g.address();
                p.ttl = 64;
                p.payload.assign(size, 0xAB);
                const auto s = time_batches(kProbeSamples, 16, [&] { dp.on_multicast_data(0, p); },
                                            [&] { pnet.simulator().run(); });
                const std::string name = "mcast.forward_" + std::to_string(oifs) + "oif_" +
                                         std::to_string(size) + "B_ns";
                m.set(name + ".p50", percentile(s, 0.50));
                m.set(name + ".p99", percentile(s, 0.99));
                samples = s.size();
            }
        }
        m.set("mcast.forward_ns.samples", static_cast<double>(samples));
    }
    // mcast: find_sg / find_wc over every live forwarding entry.
    {
        struct Key {
            mcast::ForwardingCache* cache;
            net::Ipv4Address source;
            net::GroupAddress group;
            bool wildcard;
        };
        std::vector<Key> keys;
        std::size_t max_wc = 0;
        for (const auto& router : net_->routers()) {
            mcast::ForwardingCache& c = stack_->pim_at(*router).cache();
            max_wc = std::max(max_wc, c.wc_count());
            c.for_each_wc([&](mcast::ForwardingEntry& e) {
                keys.push_back({&c, e.source_or_rp(), e.group(), true});
            });
            c.for_each_sg([&](mcast::ForwardingEntry& e) {
                keys.push_back({&c, e.source_or_rp(), e.group(), false});
            });
        }
        m.set("mcast.cache_entries", static_cast<double>(keys.size()));
        if (!keys.empty()) {
            std::size_t found = 0;
            m.probe("mcast.cache_lookup_ns", time_batches(kProbeSamples, 64, [&] {
                        const Key& k = keys[rng() % keys.size()];
                        found += (k.wildcard ? k.cache->find_wc(k.group)
                                             : k.cache->find_sg(k.source, k.group)) != nullptr;
                    }));
        }
        // pim: a JoinPruneBundle carrying as many groups as the largest
        // (*,G) table, encoded and decoded.
        pim::JoinPruneBundle bundle;
        bundle.upstream_neighbor = net::Ipv4Address(10, 0, 0, 1);
        bundle.holdtime_ms = 1800;
        for (std::size_t i = 0; i < std::max<std::size_t>(max_wc, 1); ++i) {
            pim::JoinPruneBundle::GroupRecord rec;
            rec.group = group(static_cast<int>(i)).address();
            rec.joins.push_back({net::Ipv4Address(192, 168, 0, 1), {true, true}});
            bundle.groups.push_back(std::move(rec));
        }
        m.set("pim.bundle_groups", static_cast<double>(bundle.groups.size()));
        std::size_t decoded = 0;
        m.probe("pim.bundle_codec_ns", time_batches(kProbeSamples, 1, [&] {
                    const std::vector<std::uint8_t> wire = bundle.encode();
                    decoded += pim::JoinPruneBundle::decode(wire).has_value();
                }));
    }
    // stats: the legacy counting facade on the live network.
    {
        stats::NetworkStats& st = net_->stats();
        m.probe("stats.count_control_ns",
                time_batches(kProbeSamples, 64, [&] { st.count_control_message("pim"); }));
        const auto& segs = net_->segments();
        const net::Ipv4Address src = ts_.senders.empty() ? ts_.bank_hosts.front()->address()
                                                         : ts_.senders.front()->address();
        m.probe("stats.note_flow_ns", time_batches(kProbeSamples, 64, [&] {
                    st.note_flow(segs[rng() % segs.size()]->id(), src,
                                 group(static_cast<int>(rng() % static_cast<std::uint64_t>(group_count()))));
                }));
    }
    // unicast: longest-prefix match over every router's RIB, destinations
    // drawn from router ids and host addresses; full oracle recompute.
    {
        std::vector<unicast::Rib*> ribs;
        std::size_t routes = 0;
        for (const auto& router : net_->routers()) {
            ribs.push_back(&routing_->rib_for(*router));
            routes += ribs.back()->size();
        }
        std::vector<net::Ipv4Address> dsts;
        for (const auto& router : net_->routers()) dsts.push_back(router->router_id());
        for (const auto& host : net_->hosts()) dsts.push_back(host->address());
        m.set("unicast.rib_routes", static_cast<double>(routes));
        std::size_t hits = 0;
        m.probe("unicast.rib_lookup_ns", time_batches(kProbeSamples, 64, [&] {
                    hits += ribs[rng() % ribs.size()]->lookup(dsts[rng() % dsts.size()]).has_value();
                }));
        std::vector<double> ms;
        for (int i = 0; i < kSlowProbeSamples; ++i) {
            const std::int64_t t0 = mono_ns();
            routing_->recompute();
            ms.push_back(static_cast<double>(mono_ns() - t0) / 1e6);
        }
        m.set("unicast.oracle_recompute_ms.p50", median(ms));
        m.set("unicast.oracle_recompute_ms.samples", static_cast<double>(ms.size()));
    }
    // workload: join + leave of one receiver on a bank group that stays
    // non-empty (pure bookkeeping, no IGMP transition).
    {
        workload::HostBank* bank = nullptr;
        net::GroupAddress g;
        for (const auto& b : banks_) {
            for (int i = 0; i < group_count() && bank == nullptr; ++i) {
                if (b->members(group(i)) > 0) {
                    bank = b.get();
                    g = group(i);
                }
            }
            if (bank != nullptr) break;
        }
        if (bank != nullptr) {
            m.probe("workload.bank_join_leave_ns", time_batches(kProbeSamples, 64, [&] {
                        bank->join(g, 1);
                        bank->leave(g, 1);
                    }));
        }
    }
}

// ---------------------------------------------------------------- check

/// Bounded forward exploration of the four unmutated checker scenarios:
/// thousands of small worlds built, replayed and torn down.
class CheckWorkload final : public Workload {
public:
    explicit CheckWorkload(const Options& options) : options_(options) {}

    static constexpr std::size_t kRunsPerScenario = 40;

    void setup(SetupTimes& times) override {
        // Set-up: one baseline replay per scenario (the explorer's first
        // branch), which must be clean.
        const double t0 = thread_cpu_s();
        baseline_violations_ = 0;
        for (const std::string& name : check::scenario_names()) {
            check::RunConfig cfg;
            cfg.mutation = mutation_for(name);
            baseline_violations_ += check::run_scenario(name, cfg).violations.empty() ? 0 : 1;
        }
        times.warmup = thread_cpu_s() - t0;
    }

    void window(bool trace, const SliceDone& after_slice) override {
        // One slice per scenario (there are kSlices of them).
        reports_.clear();
        cpu_ = 0;
        if (trace) prof::set_enabled(true);
        for (const std::string& name : check::scenario_names()) {
            const double c0 = thread_cpu_s();
            check::ExploreOptions o;
            o.scenario = name;
            o.mutation = mutation_for(name);
            o.max_runs = kRunsPerScenario;
            o.time_budget_seconds = 3600; // the run cap always ends the search
            o.seed = mix(options_.seed);
            o.threads = 1;
            reports_.push_back(check::explore(o));
            const double slice = thread_cpu_s() - c0;
            cpu_ += slice;
            after_slice(slice);
        }
        if (trace) prof::set_enabled(false);
    }

    void verify(RepResult& out) override {
        out.window_cpu_s = cpu_;
        auto add = [&out](std::string name, double v) {
            out.outcome_names.push_back(std::move(name));
            out.outcome.push_back(v);
        };
        for (std::size_t i = 0; i < reports_.size(); ++i) {
            const check::ExploreReport& r = reports_[i];
            const std::string& name = check::scenario_names()[i];
            out.attempted += r.runs;
            out.failed += r.violating_runs;
            out.check_runs += static_cast<double>(r.runs);
            out.check_states += static_cast<double>(r.deduped_states);
            // Every replay simulates at least the scenario's horizon.
            out.simulated_s += static_cast<double>(r.runs) *
                               sim_seconds(check::scenario_info(name).horizon);
            add(name + ".runs", static_cast<double>(r.runs));
            add(name + ".deduped_states", static_cast<double>(r.deduped_states));
            add(name + ".violating_runs", static_cast<double>(r.violating_runs));
            add(name + ".skipped_branches", static_cast<double>(r.skipped_branches));
        }
        // A dirty baseline is a failed replay too.
        out.attempted += check::scenario_names().size();
        out.failed += baseline_violations_;
    }

    void probe(Metrics& m) override {
        std::size_t n = 0;
        for (const std::string& name : check::scenario_names()) {
            std::vector<double> ms;
            for (int i = 0; i < kScenarioProbeSamples; ++i) {
                check::RunConfig cfg;
                const double t0 = thread_cpu_s();
                const check::RunResult r = check::run_scenario(name, cfg);
                ms.push_back((thread_cpu_s() - t0) * 1e3);
                (void)r;
            }
            m.set("check.run_scenario_ms." + name + ".p50", median(ms));
            n = ms.size();
        }
        m.set("check.run_scenario_ms.samples", static_cast<double>(n));
    }

    [[nodiscard]] std::uint64_t inputs_digest() const override {
        return hash_combine(mix(options_.seed), kRunsPerScenario);
    }

private:
    /// --plant-fault seeds the walkthrough with a baseline-visible bug.
    [[nodiscard]] std::string mutation_for(const std::string& scenario) const {
        return options_.plant_fault && scenario == "walkthrough" ? "no-rp-bit-prune" : "";
    }

    Options options_;
    std::vector<check::ExploreReport> reports_;
    std::size_t baseline_violations_ = 0;
    double cpu_ = 0;
};

// ---------------------------------------------------------------- main loop

std::unique_ptr<Workload> make_workload(const Options& o) {
    if (o.workload == "churn") return std::make_unique<ChurnWorkload>(o);
    if (o.workload == "fanout") return std::make_unique<FanoutWorkload>(o);
    if (o.workload == "refresh") return std::make_unique<RefreshWorkload>(o);
    if (o.workload == "check") return std::make_unique<CheckWorkload>(o);
    return nullptr;
}

/// One rep: fresh world, window, verification. `last` keeps the world
/// alive for probing.
RepResult run_rep(const Options& o, bool trace, std::unique_ptr<Workload>* last = nullptr) {
    std::unique_ptr<Workload> w = make_workload(o);
    RepResult r;
    // The reference kernel brackets the set-up and every window slice; each
    // is scaled by the mean of the two reference times around it.
    const double ref_setup = reference_cpu_s();
    w->setup(r.setup);
    double ref_prev = reference_cpu_s();
    r.setup_scale = kReferenceS / ((ref_setup + ref_prev) / 2);
    w->window(trace, [&r, &ref_prev](double slice_cpu_s) {
        const double ref = reference_cpu_s();
        r.scaled_window_cpu_s += slice_cpu_s * kReferenceS / ((ref_prev + ref) / 2);
        ref_prev = ref;
    });
    w->verify(r);
    if (last != nullptr) *last = std::move(w);
    return r;
}

struct Totals {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatched_reps = 0;
    std::vector<double> reference;
    std::vector<std::string> reference_names;

    /// Adds a rep's operations; a rep whose simulated outcome differs from
    /// the first rep's counts all its operations as failed.
    void add(const RepResult& r) {
        attempted += r.attempted;
        failed += r.failed;
        if (reference_names.empty()) {
            reference = r.outcome;
            reference_names = r.outcome_names;
        } else if (r.outcome != reference) {
            ++mismatched_reps;
            failed += r.attempted - std::min(r.attempted, r.failed);
        }
    }
};

std::string json_list(const std::vector<double>& v) {
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.6f", i ? ", " : "", v[i]);
        out += buf;
    }
    return out + "]";
}

/// Informational line: per-rep raw window CPU and reference-kernel times,
/// the failure fraction, and the simulated outcome every rep reproduced.
std::string info_json(const Options& o, const Totals& t, const std::vector<RepResult>& reps) {
    std::vector<double> cpu, scaled;
    for (const RepResult& r : reps) {
        cpu.push_back(r.window_cpu_s);
        scaled.push_back(r.scaled_window_cpu_s);
    }
    std::string out = "{\"info\": {\"workload\": \"" + o.workload + "\", \"seed\": " +
                      std::to_string(o.seed) + ", \"reps\": " + std::to_string(reps.size()) +
                      ", \"mismatched_reps\": " + std::to_string(t.mismatched_reps) +
                      ", \"window_cpu_s\": " + json_list(cpu) +
                      ", \"scaled_window_cpu_s\": " + json_list(scaled);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted)));
    out += ", \"failed_frac\": " + std::string(buf) + ", \"outcome\": {";
    for (std::size_t i = 0; i < t.reference.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", t.reference[i]);
        out += (i ? ", \"" : "\"") + t.reference_names[i] + "\": " + buf;
    }
    return out + "}}}";
}

void print_result(const Totals& t, const std::string& metrics_json) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                t.failed == 0 && t.attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed), metrics_json.c_str());
}

/// Untraced reps until `seconds` of wall time (at least three).
int run_end_to_end(const Options& o) {
    Totals totals;
    std::vector<RepResult> reps;
    std::vector<double> setup, cpu;
    const double start = wall_s();
    while (reps.size() < 3 || wall_s() - start < o.seconds) {
        reps.push_back(run_rep(o, false));
        const RepResult& r = reps.back();
        totals.add(r);
        setup.push_back(r.setup.total() * r.setup_scale);
        cpu.push_back(r.scaled_window_cpu_s);
    }
    const double simulated_s = reps.front().simulated_s; // the same in every rep
    Metrics m;
    m.set("sim_s_per_cpu_s", ratio(simulated_s, median(cpu)));
    m.set("setup_s", median(setup));
    m.set("peak_rss_mb", peak_rss_mb());
    std::printf("%s\n", info_json(o, totals, reps).c_str());
    print_result(totals, m.json(kEndToEnd));
    return 0;
}

/// Zone rollup of the traced reps.
struct ZoneTotals {
    std::map<std::string, prof::ZoneStat> by_zone;
    double total_excl_ns = 0;

    explicit ZoneTotals(const prof::Report& report) {
        for (const prof::ZoneStat& z : report.zones) {
            by_zone[z.zone] = z;
            total_excl_ns += static_cast<double>(z.exclusive_ns);
        }
    }
    [[nodiscard]] double excl(const std::string& zone) const {
        const auto it = by_zone.find(zone);
        return it == by_zone.end() ? 0 : static_cast<double>(it->second.exclusive_ns);
    }
    [[nodiscard]] double calls(const std::string& zone) const {
        const auto it = by_zone.find(zone);
        return it == by_zone.end() ? 0 : static_cast<double>(it->second.count);
    }
    [[nodiscard]] double per_call(const std::string& zone) const {
        return ratio(excl(zone), calls(zone));
    }
    [[nodiscard]] double share(const std::string& zone) const {
        return ratio(excl(zone), total_excl_ns);
    }
};

/// Untraced reps (40% of the time), traced reps (to 80%), then probes on
/// the last traced rep's live state.
int run_traced(const Options& o) {
    Totals totals;
    std::vector<RepResult> reps;
    std::vector<double> untraced_cpu, traced_cpu;
    const double start = wall_s();
    while (untraced_cpu.size() < 2 || wall_s() - start < 0.4 * o.seconds) {
        reps.push_back(run_rep(o, false));
        totals.add(reps.back());
        untraced_cpu.push_back(reps.back().scaled_window_cpu_s);
    }
    const std::size_t untraced = reps.size();
    prof::reset();
    std::unique_ptr<Workload> live;
    RepResult sum;
    std::size_t traced = 0;
    while (traced < 2 || wall_s() - start < 0.8 * o.seconds) {
        reps.push_back(run_rep(o, true, &live));
        const RepResult& r = reps.back();
        totals.add(r);
        traced_cpu.push_back(r.scaled_window_cpu_s);
        sum.simulated_s += r.simulated_s;
        sum.events += r.events;
        sum.frames += r.frames;
        sum.deliveries += r.deliveries;
        sum.pim_msgs += r.pim_msgs;
        sum.igmp_msgs += r.igmp_msgs;
        sum.cascades += r.cascades;
        sum.check_runs += r.check_runs;
        sum.check_states += r.check_states;
        sum.scaled_window_cpu_s += r.scaled_window_cpu_s;
        ++traced;
    }
    const ZoneTotals z(prof::snapshot());
    const double n = static_cast<double>(traced);

    Metrics m;
    m.set("sim.dispatch.self_ns_per_event", z.per_call("sim.dispatch"));
    m.set("sim.dispatch.self_share", z.share("sim.dispatch"));
    m.set("sim.events_per_sim_s", o.workload == "check" ? 0 : ratio(sum.events, sum.simulated_s));
    m.set("sim.wheel.cascades", sum.cascades / n);
    m.set("sim.wheel.cascade.self_ns", z.excl("sim.wheel.cascade") / n);
    m.set("topo.frames_per_delivery", ratio(sum.frames, sum.deliveries));
    m.set("mcast.replicate.self_ns_per_call", z.per_call("dataplane.replicate"));
    m.set("mcast.replicate.self_share", z.share("dataplane.replicate"));
    m.set("mcast.replicate.calls_per_delivery", ratio(z.calls("dataplane.replicate"), sum.deliveries));
    m.set("mcast.forward.self_ns_per_call", z.per_call("dataplane.forward"));
    m.set("mcast.forward.self_share", z.share("dataplane.forward"));
    m.set("mcast.forward.calls_per_delivery", ratio(z.calls("dataplane.forward"), sum.deliveries));
    m.set("pim.control.self_ns_per_call", z.per_call("control.pim_sm"));
    m.set("pim.control.self_share", z.share("control.pim_sm"));
    m.set("igmp.control.self_ns_per_call", z.per_call("control.igmp"));
    m.set("igmp.control.self_share", z.share("control.igmp"));
    if (o.workload != "check") {
        m.set("pim.control_msgs_per_sim_s", ratio(sum.pim_msgs, sum.simulated_s));
        m.set("igmp.control_msgs_per_sim_s", ratio(sum.igmp_msgs, sum.simulated_s));
    }
    m.set("workload.churn.self_ns_per_call", z.per_call("workload.churn"));
    m.set("workload.churn.self_share", z.share("workload.churn"));
    m.set("check.explore.self_ns_per_run", ratio(z.excl("check.explore"), sum.check_runs));
    m.set("check.explore.self_share", z.share("check.explore"));
    m.set("check.states_per_run", ratio(sum.check_states, sum.check_runs));
    m.set("check.runs_per_cpu_s", ratio(sum.check_runs, sum.scaled_window_cpu_s));
    m.set("trace.overhead_frac", median(traced_cpu) / median(untraced_cpu) - 1);
    if (o.workload != "check") {
        auto phase = [&reps, untraced](double SetupTimes::*field) {
            std::vector<double> v;
            for (std::size_t i = 0; i < untraced; ++i) {
                v.push_back(reps[i].setup.*field * reps[i].setup_scale * 1e3);
            }
            return median(v);
        };
        m.set("scenario.topology_ms", phase(&SetupTimes::topology));
        m.set("scenario.routing_ms", phase(&SetupTimes::routing));
        m.set("scenario.stack_ms", phase(&SetupTimes::stack));
        m.set("scenario.prefill_ms", phase(&SetupTimes::prefill));
        m.set("scenario.warmup_ms", phase(&SetupTimes::warmup));
    }
    live->probe(m);

    std::printf("%s\n", info_json(o, totals, reps).c_str());
    print_result(totals, m.json(kPerLayer));
    return 0;
}

int usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload churn|fanout|refresh|check "
                 "--seed N --seconds T --trace 0|1 [--plant-fault] [--print-inputs]\n",
                 msg);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (a == "--plant-fault") {
            o.plant_fault = true;
        } else if (a == "--print-inputs") {
            o.print_inputs = true;
        } else if (a == "--workload" || a == "--seed" || a == "--seconds" || a == "--trace") {
            const char* v = next();
            if (v == nullptr) return usage(("missing value for " + a).c_str());
            if (a == "--workload") o.workload = v;
            if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
            if (a == "--seconds") o.seconds = std::atof(v);
            if (a == "--trace") o.trace = std::strcmp(v, "0") != 0;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (make_workload(o) == nullptr) return usage("unknown workload");
    if (o.print_inputs) {
        std::unique_ptr<Workload> w = make_workload(o);
        SetupTimes t;
        w->setup(t);
        std::printf("{\"inputs\": \"%016llx\"}\n",
                    static_cast<unsigned long long>(w->inputs_digest()));
        return 0;
    }
    return o.trace ? run_traced(o) : run_end_to_end(o);
}
