// Event-scheduler throughput at soft-state scale: the hierarchical timing
// wheel (sim/timer_wheel.hpp, the store behind sim::Simulator) against the
// ordered-map scheduler it replaced, on the workload §3.4/§3.6 implies at
// million-entry scale — every (S,G)/(*,G) entry holds a timer, and every
// refresh interval each one is cancelled and rescheduled.
//
// For each entry count N (1k → 1M) both backends run the same three-phase
// deterministic workload, timed separately:
//
//   schedule  N events at pseudorandom deadlines spread across the horizon
//   refresh   rounds of cancel + reschedule for every entry, walking the
//             entries in iteration order as a real refresh tick does
//   fire      drain every pending event in time order
//
// The headline ratio is overall events/second (all phases); the flatness
// series is wheel nanoseconds per refresh op versus N — O(1) scheduling
// means it must not grow with N, while the map's O(log n) visibly does.
// docs/TIMERS.md derives why; EXPERIMENTS.md walks the sweep.
//
// Each size runs the wheel and the map kRepeats times, interleaved, and
// keeps each backend's fastest run: noise only ever slows a run, and
// interleaving spreads any slow stretch of the host over both backends.
// bench_runner gates top_speedup and refresh_flatness against
// bench/baselines/timer_scale.json; that entry is the contract.
//
// Usage: timer_scale [--max-entries N] [--rounds N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sim/time.hpp"
#include "sim/timer_wheel.hpp"

using namespace pimlib;

namespace {

using Clock = std::chrono::steady_clock;
using Action = std::function<void()>;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The scheduler sim::Simulator used before the wheel: an ordered map keyed
/// (time, seq), one tree node (and allocation) per event. Kept verbatim here
/// as the measured baseline.
class MapScheduler {
public:
    struct Key {
        sim::Time at;
        std::uint64_t seq;
        friend bool operator<(const Key& a, const Key& b) {
            return a.at != b.at ? a.at < b.at : a.seq < b.seq;
        }
    };

    Key schedule(sim::Time at, std::uint64_t seq, Action action) {
        queue_.emplace(Key{at, seq}, std::move(action));
        return Key{at, seq};
    }

    bool cancel(Key key) { return queue_.erase(key) > 0; }

    /// Pops and runs the earliest event; false when empty.
    bool fire_next() {
        if (queue_.empty()) return false;
        auto it = queue_.begin();
        Action action = std::move(it->second);
        queue_.erase(it);
        action();
        return true;
    }

    [[nodiscard]] std::size_t size() const { return queue_.size(); }

private:
    std::map<Key, Action> queue_;
};

/// Deadlines shaped like soft-state timers: most mass at a "holdtime" scale
/// with jitter, a slice of long RP/neighbor timers, all deterministic.
std::vector<sim::Time> make_deadlines(int n, std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<sim::Time> hold(100 * sim::kMillisecond,
                                                  180 * sim::kSecond);
    std::uniform_int_distribution<sim::Time> lng(180 * sim::kSecond,
                                                 3600 * sim::kSecond);
    std::vector<sim::Time> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        out.push_back(i % 16 == 0 ? lng(rng) : hold(rng));
    }
    return out;
}

struct PhaseTimes {
    double schedule_s = 0;
    double refresh_s = 0;
    double fire_s = 0;
    std::uint64_t fired = 0;

    [[nodiscard]] double total_s() const { return schedule_s + refresh_s + fire_s; }
};

constexpr int kRepeats = 5;

PhaseTimes run_wheel(int n, int rounds) {
    PhaseTimes t;
    sim::TimerWheel wheel;
    std::uint64_t fired = 0;
    std::uint64_t seq = 1;
    const std::vector<sim::Time> deadlines = make_deadlines(n, 0xABCD1234u);
    std::vector<std::pair<sim::TimerWheel::Node*, std::uint64_t>> handles(
        static_cast<std::size_t>(n));

    auto start = Clock::now();
    for (int i = 0; i < n; ++i) {
        const std::uint64_t s = seq++;
        handles[static_cast<std::size_t>(i)] = {
            wheel.schedule(deadlines[static_cast<std::size_t>(i)], s,
                           [&fired] { ++fired; }),
            s};
    }
    t.schedule_s = seconds_since(start);

    start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
        for (int i = 0; i < n; ++i) {
            auto& [node, s] = handles[static_cast<std::size_t>(i)];
            wheel.cancel(node, s);
            const std::uint64_t ns = seq++;
            node = wheel.schedule(
                deadlines[static_cast<std::size_t>(i)] + (round + 1) * sim::kSecond,
                ns, [&fired] { ++fired; });
            s = ns;
        }
    }
    t.refresh_s = seconds_since(start);

    start = Clock::now();
    sim::Time at = 0;
    while (wheel.next_time(&at)) {
        wheel.open_batch(at);
        while (wheel.batch_live() > 0) wheel.fire(0);
    }
    t.fire_s = seconds_since(start);
    t.fired = fired;
    return t;
}

PhaseTimes run_map(int n, int rounds) {
    PhaseTimes t;
    MapScheduler sched;
    std::uint64_t fired = 0;
    std::uint64_t seq = 1;
    const std::vector<sim::Time> deadlines = make_deadlines(n, 0xABCD1234u);
    std::vector<MapScheduler::Key> handles(static_cast<std::size_t>(n));

    auto start = Clock::now();
    for (int i = 0; i < n; ++i) {
        handles[static_cast<std::size_t>(i)] = sched.schedule(
            deadlines[static_cast<std::size_t>(i)], seq++, [&fired] { ++fired; });
    }
    t.schedule_s = seconds_since(start);

    start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
        for (int i = 0; i < n; ++i) {
            sched.cancel(handles[static_cast<std::size_t>(i)]);
            handles[static_cast<std::size_t>(i)] = sched.schedule(
                deadlines[static_cast<std::size_t>(i)] + (round + 1) * sim::kSecond,
                seq++, [&fired] { ++fired; });
        }
    }
    t.refresh_s = seconds_since(start);

    start = Clock::now();
    while (sched.fire_next()) {
    }
    t.fire_s = seconds_since(start);
    t.fired = fired;
    return t;
}

struct SizeResult {
    int n = 0;
    PhaseTimes wheel;
    PhaseTimes map;

    /// Total ops = N schedules + rounds*N cancels + rounds*N reschedules +
    /// N fires.
    [[nodiscard]] static double ops(int n, int rounds) {
        return static_cast<double>(n) * (2.0 + 2.0 * rounds);
    }
    [[nodiscard]] double speedup() const {
        return wheel.total_s() > 0 ? map.total_s() / wheel.total_s() : 0.0;
    }
    [[nodiscard]] double wheel_refresh_ns(int rounds) const {
        const double refresh_ops = 2.0 * rounds * n;
        return refresh_ops > 0 ? wheel.refresh_s * 1e9 / refresh_ops : 0.0;
    }
    [[nodiscard]] double map_refresh_ns(int rounds) const {
        const double refresh_ops = 2.0 * rounds * n;
        return refresh_ops > 0 ? map.refresh_s * 1e9 / refresh_ops : 0.0;
    }
};

} // namespace

int main(int argc, char** argv) {
    const int max_entries =
        std::max(1000, bench::flag_value(argc, argv, "--max-entries", 1'000'000));
    const int rounds = std::max(1, bench::flag_value(argc, argv, "--rounds", 2));
    std::vector<int> sizes;
    for (int n = 1000; n < max_entries; n *= 10) sizes.push_back(n);
    sizes.push_back(max_entries);

    // Warm allocator/caches so the first timed size isn't paying page-ins.
    (void)run_wheel(1000, rounds);
    (void)run_map(1000, rounds);

    // --profile: capture zone attribution (the wheel's cascade zone fires
    // inside next_time/roll) across the timed sweep.
    bench::profile_begin(argc, argv);

    std::vector<SizeResult> results;
    for (int n : sizes) {
        SizeResult sr;
        sr.n = n;
        for (int k = 0; k < kRepeats; ++k) {
            const PhaseTimes wheel = run_wheel(n, rounds);
            const PhaseTimes map = run_map(n, rounds);
            if (k == 0 || wheel.total_s() < sr.wheel.total_s()) sr.wheel = wheel;
            if (k == 0 || map.total_s() < sr.map.total_s()) sr.map = map;
        }
        results.push_back(sr);
    }
    const double top_speedup = results.back().speedup();
    const double small_ns = results.front().wheel_refresh_ns(rounds);
    const double flatness =
        small_ns > 0 ? results.back().wheel_refresh_ns(rounds) / small_ns : 0.0;

    std::printf("{\"rounds\":%d,\"repeats\":%d,\n \"sizes\":[", rounds,
                kRepeats);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SizeResult& r = results[i];
        const double ops = SizeResult::ops(r.n, rounds);
        std::printf(
            "%s\n  {\"entries\":%d,"
            "\"wheel_s\":%.4f,\"map_s\":%.4f,\"speedup\":%.2f,"
            "\"wheel_events_per_s\":%.0f,\"map_events_per_s\":%.0f,"
            "\"wheel_refresh_ns\":%.1f,\"map_refresh_ns\":%.1f,"
            "\"wheel_fired\":%llu,\"map_fired\":%llu}",
            i == 0 ? "" : ",", r.n, r.wheel.total_s(), r.map.total_s(),
            r.speedup(), ops / r.wheel.total_s(), ops / r.map.total_s(),
            r.wheel_refresh_ns(rounds), r.map_refresh_ns(rounds),
            static_cast<unsigned long long>(r.wheel.fired),
            static_cast<unsigned long long>(r.map.fired));
    }
    std::printf("\n ],\n \"top_speedup\":%.2f,\"refresh_flatness\":%.2f}\n",
                top_speedup, flatness);

    bench::profile_end(argc, argv, "timer_scale");

    const SizeResult& top = results.back();
    bench::Report norm("timer_scale");
    norm.metric("top_speedup", top_speedup, "x", "higher")
        .metric("refresh_flatness", flatness, "x", "lower")
        .metric("wheel_events_per_s",
                SizeResult::ops(top.n, rounds) / top.wheel.total_s(), "events/s",
                "info")
        .metric("wheel_refresh_ns", top.wheel_refresh_ns(rounds), "ns", "info");
    norm.emit();

    // Both backends must have fired every scheduled event — a mismatch means
    // one of them lost or duplicated work and the timings are meaningless.
    for (const SizeResult& r : results) {
        if (r.wheel.fired != static_cast<std::uint64_t>(r.n) ||
            r.map.fired != static_cast<std::uint64_t>(r.n)) {
            std::fprintf(stderr,
                         "timer_scale: fired-count mismatch at n=%d (wheel %llu, "
                         "map %llu)\n",
                         r.n, static_cast<unsigned long long>(r.wheel.fired),
                         static_cast<unsigned long long>(r.map.fired));
            return 1;
        }
    }
    return 0;
}
