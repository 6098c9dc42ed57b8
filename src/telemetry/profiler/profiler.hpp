// In-sim scoped-zone CPU profiler: where the host CPU time actually goes.
//
// The telemetry hub answers "what did the protocols do"; this answers "what
// did it cost to simulate" — the question every performance PR (sharding,
// flow-level data plane, HPIM-DM head-to-head) has to open with. The design
// follows the paper's own evaluation discipline: measure first, justify the
// architecture with the measurement.
//
//   PROF_ZONE("sim.dispatch");          // RAII: enter here, exit at scope end
//
// Mechanics:
//   - Each macro site holds a statically-initialized ZoneSite (constant
//     initialization, no static-guard branch). Zone names intern to dense
//     ids on first enabled entry.
//   - Runtime toggle: a single relaxed atomic-bool load + branch when
//     disabled — the scope guard constructs no members, touches no
//     thread-locals and performs no allocation. Compile-time removal:
//     -DPIMLIB_PROFILER=0 turns the macro into a no-op statement.
//   - When enabled, entries/exits maintain a per-thread calling-context
//     tree (one node per distinct zone path, e.g. "sim.dispatch" →
//     "sim.dispatch;control.pim_sm"), accumulating exact inclusive and
//     exclusive nanoseconds per node, and append fixed-size 32-byte records
//     into a per-thread ring buffer for timeline export (the ring bounds
//     memory; wraparound overwrites the oldest records and counts drops).
//   - The clock is the calibrated monotonic clock: steady_clock, with the
//     read cost and the disabled-zone branch cost measured by calibrate()
//     so callers can price the instrumentation instead of guessing.
//
// Thread model: zones may be entered from any thread (the checker's
// parallel exploration included); each thread owns its state, registered
// globally at first use and never torn down. snapshot()/trace_slices()
// merge across threads and must be called at a quiescent point (no zone
// concurrently entering/exiting), which is how every consumer — pimsim at
// end of run, the benches between phases — already behaves. The merge is
// deterministic: nodes are keyed and sorted by path string, independent of
// thread registration order.
//
// This header is dependency-free (pure std) on purpose: it sits *below*
// pimlib_sim in the library graph so the simulator kernel and timer wheel
// can carry zones. Registry/Hub publication lives in
// telemetry/profiler/export.hpp, which depends on telemetry proper.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#ifndef PIMLIB_PROFILER
#define PIMLIB_PROFILER 1
#endif

namespace pimlib::prof {

/// One PROF_ZONE site. Constant-initialized (no guard); `id` resolves
/// lazily on the first *enabled* pass so disabled sites never take the
/// registration lock.
struct ZoneSite {
    const char* name;
    std::atomic<std::uint16_t> id{0}; // 0 = not yet interned
};

/// Global enable flag; the macro's only cost when false.
extern std::atomic<bool> g_enabled;

[[nodiscard]] inline bool enabled() {
    return g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Drops all recorded data (CCT totals, rings, drop counts) on every
/// thread; zone registrations survive. Quiescent-point only.
void reset();

/// Per-thread ring capacity in records, applied to thread states created
/// afterwards (set before the first enabled zone; default 65536).
void set_ring_capacity(std::size_t records);

/// Optional simulated-clock source stamped into ring records, so timeline
/// exports can say *which sim instant* burned the CPU. `fn(ctx)` must
/// return the current simulated time in µs; pass nullptr to detach.
void set_time_source(std::int64_t (*fn)(const void*), const void* ctx);

/// Interns `name`, returning its dense id (>= 1). Names must not contain
/// ';' (the collapsed-stack separator) or '"'.
std::uint16_t register_zone(const char* name);

/// Internal: slow-path enter/exit, called only when enabled.
void zone_enter(ZoneSite& site);
void zone_exit();

/// The RAII guard behind PROF_ZONE. Disabled cost: one relaxed load and
/// branch in the constructor, one branch in the destructor.
class ScopedZone {
public:
    explicit ScopedZone(ZoneSite& site) {
        if (enabled()) {
            armed_ = true;
            zone_enter(site);
        }
    }
    ~ScopedZone() {
        if (armed_) zone_exit();
    }
    ScopedZone(const ScopedZone&) = delete;
    ScopedZone& operator=(const ScopedZone&) = delete;

private:
    bool armed_ = false;
};

/// Measured costs of the instrumentation itself, in nanoseconds. Pure
/// measurement (timed loops against an empty-loop baseline); requires the
/// profiler to be disabled and briefly flips it off if it is not.
struct Calibration {
    double clock_read_ns = 0;    // one monotonic clock read
    double disabled_zone_ns = 0; // one compiled-in-but-disabled PROF_ZONE
};
Calibration calibrate();

/// One merged calling-context-tree node.
struct ReportNode {
    std::string path; // zone names joined by ';' root-first
    std::string leaf; // last component
    std::int64_t inclusive_ns = 0;
    std::int64_t exclusive_ns = 0;
    std::uint64_t count = 0;
};

/// Per-zone rollup across all paths. `inclusive_ns` counts each zone once
/// per outermost occurrence (a recursive path "a;b;a" contributes its inner
/// "a" to the outer one's inclusive time, not twice).
struct ZoneStat {
    std::string zone;
    std::int64_t inclusive_ns = 0;
    std::int64_t exclusive_ns = 0;
    std::uint64_t count = 0;
};

struct Report {
    std::vector<ReportNode> nodes; // sorted by path
    std::vector<ZoneStat> zones;   // sorted by zone name
    std::uint64_t total_entries = 0;
    std::uint64_t dropped_records = 0; // ring overwrites across all threads
    std::size_t threads = 0;
};

/// Deterministic cross-thread merge of the aggregation trees. Open frames
/// (zones still on some stack) are not included.
[[nodiscard]] Report snapshot();

/// One ring record, resolved for export.
struct TraceSlice {
    std::uint32_t thread = 0; // registration index, stable within a process
    std::string path;
    std::string leaf;
    std::int64_t t0_ns = 0; // host monotonic
    std::int64_t t1_ns = 0;
    std::int64_t sim_at = -1; // µs via the time source, -1 when detached
};

/// Merged ring contents across threads, ordered by (thread, t0).
[[nodiscard]] std::vector<TraceSlice> trace_slices();

/// FlameGraph/speedscope collapsed-stack text: one line per path,
/// "a;b;c <exclusive-microseconds>". Feed to flamegraph.pl or drop into
/// https://www.speedscope.app.
[[nodiscard]] std::string to_collapsed(const Report& report);

/// Human summary: zones sorted by exclusive time, with call counts and
/// inclusive/exclusive milliseconds. For pimsim and bench stderr output.
[[nodiscard]] std::string to_table(const Report& report);

} // namespace pimlib::prof

#define PIMLIB_PROF_CAT2(a, b) a##b
#define PIMLIB_PROF_CAT(a, b) PIMLIB_PROF_CAT2(a, b)

#if PIMLIB_PROFILER
/// Opens a named profiling zone for the rest of the enclosing scope.
/// `name` must be a string literal (it is kept by pointer).
#define PROF_ZONE(name)                                                        \
    static ::pimlib::prof::ZoneSite PIMLIB_PROF_CAT(prof_site_, __LINE__){     \
        name};                                                                 \
    ::pimlib::prof::ScopedZone PIMLIB_PROF_CAT(prof_scope_, __LINE__)(         \
        PIMLIB_PROF_CAT(prof_site_, __LINE__))
#else
#define PROF_ZONE(name) static_cast<void>(0)
#endif
