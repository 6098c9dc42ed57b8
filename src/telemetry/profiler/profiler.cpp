#include "telemetry/profiler/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

namespace pimlib::prof {

std::atomic<bool> g_enabled{false};

namespace {

[[nodiscard]] std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Fixed-size ring record: 32 bytes, written once per zone exit.
struct Record {
    std::uint32_t path = 0;
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
    std::int64_t sim_at = -1;
};

struct ThreadState {
    /// Calling-context-tree node. nodes[0] is the root (no zone).
    struct Node {
        std::uint32_t parent = 0;
        std::uint16_t zone = 0;
        std::int64_t inclusive_ns = 0;
        std::int64_t exclusive_ns = 0;
        std::uint64_t count = 0;
    };
    struct Frame {
        std::uint32_t path = 0;
        std::int64_t t0 = 0;
        std::int64_t child_ns = 0;
        std::int64_t sim_at = -1;
    };

    std::vector<Node> nodes{Node{}};
    std::map<std::pair<std::uint32_t, std::uint16_t>, std::uint32_t> children;
    std::vector<Frame> stack;
    std::vector<Record> ring;
    std::size_t ring_pos = 0;
    bool ring_wrapped = false;
    std::uint64_t entries = 0;
    std::uint64_t dropped = 0;
    std::uint32_t index = 0; // registration order

    std::uint32_t intern(std::uint32_t parent, std::uint16_t zone) {
        const auto [it, inserted] =
            children.emplace(std::make_pair(parent, zone),
                             static_cast<std::uint32_t>(nodes.size()));
        if (inserted) nodes.push_back(Node{parent, zone, 0, 0, 0});
        return it->second;
    }

    void clear_data() {
        for (Node& n : nodes) {
            n.inclusive_ns = 0;
            n.exclusive_ns = 0;
            n.count = 0;
        }
        // Open frames keep their interned paths; their in-flight time is
        // simply not attributed (reset is a quiescent-point operation).
        ring_pos = 0;
        ring_wrapped = false;
        entries = 0;
        dropped = 0;
    }
};

/// Global state behind a function-local static, so zone registration is
/// safe during static initialization of other translation units.
struct Global {
    std::mutex mu;
    std::vector<std::string> zone_names{""}; // id 0 reserved
    std::map<std::string, std::uint16_t> zone_ids;
    std::vector<ThreadState*> threads;
    std::size_t ring_capacity = 65536;
    std::atomic<std::int64_t (*)(const void*)> time_fn{nullptr};
    std::atomic<const void*> time_ctx{nullptr};
};

Global& global() {
    static Global g;
    return g;
}

thread_local ThreadState* t_state = nullptr;

ThreadState& state() {
    if (t_state == nullptr) {
        Global& g = global();
        const std::lock_guard<std::mutex> lock(g.mu);
        // Thread states intentionally leak: a worker thread may exit while
        // its data is still waiting to be merged into the final report.
        auto* s = new ThreadState();
        s->index = static_cast<std::uint32_t>(g.threads.size());
        s->ring.resize(g.ring_capacity);
        g.threads.push_back(s);
        t_state = s;
    }
    return *t_state;
}

/// Root-first path of a node, as zone-name components.
std::string path_of(const ThreadState& s, std::uint32_t node,
                    const std::vector<std::string>& names) {
    std::vector<std::uint16_t> zones;
    for (std::uint32_t n = node; n != 0; n = s.nodes[n].parent) {
        zones.push_back(s.nodes[n].zone);
    }
    std::string out;
    for (auto it = zones.rbegin(); it != zones.rend(); ++it) {
        if (!out.empty()) out += ';';
        out += names[*it];
    }
    return out;
}

} // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void reset() {
    Global& g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    for (ThreadState* s : g.threads) s->clear_data();
}

void set_ring_capacity(std::size_t records) {
    Global& g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    g.ring_capacity = std::max<std::size_t>(records, 16);
    // Resize any already-registered quiescent thread (the caller may set
    // the capacity after its thread has touched the profiler).
    for (ThreadState* s : g.threads) {
        if (s->entries == 0) s->ring.assign(g.ring_capacity, Record{});
    }
}

void set_time_source(std::int64_t (*fn)(const void*), const void* ctx) {
    Global& g = global();
    g.time_ctx.store(ctx, std::memory_order_relaxed);
    g.time_fn.store(fn, std::memory_order_release);
}

std::uint16_t register_zone(const char* name) {
    Global& g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    const auto it = g.zone_ids.find(name);
    if (it != g.zone_ids.end()) return it->second;
    const auto id = static_cast<std::uint16_t>(g.zone_names.size());
    g.zone_names.emplace_back(name);
    g.zone_ids.emplace(name, id);
    return id;
}

void zone_enter(ZoneSite& site) {
    std::uint16_t id = site.id.load(std::memory_order_relaxed);
    if (id == 0) {
        id = register_zone(site.name);
        site.id.store(id, std::memory_order_relaxed);
    }
    ThreadState& s = state();
    const std::uint32_t parent = s.stack.empty() ? 0 : s.stack.back().path;
    const std::uint32_t path = s.intern(parent, id);
    std::int64_t sim_at = -1;
    if (auto* fn = global().time_fn.load(std::memory_order_acquire)) {
        sim_at = fn(global().time_ctx.load(std::memory_order_relaxed));
    }
    ++s.entries;
    s.stack.push_back({path, now_ns(), 0, sim_at});
}

void zone_exit() {
    ThreadState& s = state();
    if (s.stack.empty()) return; // enabled mid-scope; nothing to close
    const std::int64_t t1 = now_ns();
    const ThreadState::Frame frame = s.stack.back();
    s.stack.pop_back();
    const std::int64_t dt = t1 - frame.t0;
    ThreadState::Node& node = s.nodes[frame.path];
    node.inclusive_ns += dt;
    node.exclusive_ns += std::max<std::int64_t>(0, dt - frame.child_ns);
    ++node.count;
    if (!s.stack.empty()) s.stack.back().child_ns += dt;

    Record& r = s.ring[s.ring_pos];
    if (s.ring_wrapped) ++s.dropped;
    r = Record{frame.path, frame.t0, t1, frame.sim_at};
    if (++s.ring_pos == s.ring.size()) {
        s.ring_pos = 0;
        s.ring_wrapped = true;
    }
}

Calibration calibrate() {
    Calibration cal;
    const bool was_enabled = enabled();
    if (was_enabled) set_enabled(false);

    // Clock read cost: a long run of dependent reads, best of 5 batches
    // (interrupt noise only ever inflates a batch).
    constexpr int kClockReads = 1 << 16;
    double best = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t start = now_ns();
        std::int64_t sink = 0;
        for (int i = 0; i < kClockReads; ++i) sink += now_ns() & 1;
        const double per =
            static_cast<double>(now_ns() - start - (sink & 0)) / kClockReads;
        if (rep == 0 || per < best) best = per;
    }
    cal.clock_read_ns = best;

    // Disabled-zone cost against an empty loop with the same induction
    // variable, so the delta is the macro's load + branch.
    constexpr int kZoneReps = 1 << 20;
    double zone_best = 0;
    double empty_best = 0;
    for (int rep = 0; rep < 5; ++rep) {
        std::int64_t start = now_ns();
        for (int i = 0; i < kZoneReps; ++i) {
            PROF_ZONE("prof.calibrate");
        }
        const double zone_s = static_cast<double>(now_ns() - start);
        start = now_ns();
        volatile int sink = 0;
        for (int i = 0; i < kZoneReps; ++i) sink = sink + 0;
        const double empty_s = static_cast<double>(now_ns() - start);
        if (rep == 0 || zone_s < zone_best) zone_best = zone_s;
        if (rep == 0 || empty_s < empty_best) empty_best = empty_s;
    }
    cal.disabled_zone_ns =
        std::max(0.0, (zone_best - empty_best) / kZoneReps);

    if (was_enabled) set_enabled(true);
    return cal;
}

Report snapshot() {
    Global& g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    Report report;
    report.threads = g.threads.size();

    // Merge keyed by path string: deterministic regardless of thread
    // registration order or per-thread interning order.
    std::map<std::string, ReportNode> merged;
    for (const ThreadState* s : g.threads) {
        report.total_entries += s->entries;
        report.dropped_records += s->dropped;
        for (std::uint32_t n = 1; n < s->nodes.size(); ++n) {
            const ThreadState::Node& node = s->nodes[n];
            if (node.count == 0) continue;
            const std::string path = path_of(*s, n, g.zone_names);
            ReportNode& out = merged[path];
            if (out.path.empty()) {
                out.path = path;
                out.leaf = g.zone_names[node.zone];
            }
            out.inclusive_ns += node.inclusive_ns;
            out.exclusive_ns += node.exclusive_ns;
            out.count += node.count;
        }
    }
    report.nodes.reserve(merged.size());
    for (auto& [path, node] : merged) report.nodes.push_back(std::move(node));

    // Per-zone rollup. Exclusive and counts sum over every node; inclusive
    // sums only nodes whose ancestors do not contain the same zone, so
    // recursion ("a;b;a") is counted once at its outermost frame.
    std::map<std::string, ZoneStat> zones;
    for (const ReportNode& node : report.nodes) {
        ZoneStat& z = zones[node.leaf];
        if (z.zone.empty()) z.zone = node.leaf;
        z.exclusive_ns += node.exclusive_ns;
        z.count += node.count;
        bool outermost = true;
        // Ancestors are the ';'-separated components before the leaf.
        std::size_t begin = 0;
        const std::size_t leaf_start = node.path.size() - node.leaf.size();
        while (begin < leaf_start) {
            std::size_t end = node.path.find(';', begin);
            if (end == std::string::npos || end >= leaf_start) break;
            if (node.path.compare(begin, end - begin, node.leaf) == 0) {
                outermost = false;
                break;
            }
            begin = end + 1;
        }
        if (outermost) z.inclusive_ns += node.inclusive_ns;
    }
    report.zones.reserve(zones.size());
    for (auto& [name, stat] : zones) report.zones.push_back(std::move(stat));
    return report;
}

std::vector<TraceSlice> trace_slices() {
    Global& g = global();
    const std::lock_guard<std::mutex> lock(g.mu);
    std::vector<TraceSlice> out;
    for (const ThreadState* s : g.threads) {
        const std::size_t n = s->ring_wrapped ? s->ring.size() : s->ring_pos;
        const std::size_t start = s->ring_wrapped ? s->ring_pos : 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Record& r = s->ring[(start + i) % s->ring.size()];
            TraceSlice slice;
            slice.thread = s->index;
            slice.path = path_of(*s, r.path, g.zone_names);
            slice.leaf = g.zone_names[s->nodes[r.path].zone];
            slice.t0_ns = r.t0_ns;
            slice.t1_ns = r.t1_ns;
            slice.sim_at = r.sim_at;
            out.push_back(std::move(slice));
        }
    }
    std::sort(out.begin(), out.end(), [](const TraceSlice& a, const TraceSlice& b) {
        return a.thread != b.thread ? a.thread < b.thread : a.t0_ns < b.t0_ns;
    });
    return out;
}

std::string to_collapsed(const Report& report) {
    std::string out;
    char buf[64];
    for (const ReportNode& node : report.nodes) {
        if (node.exclusive_ns <= 0 && node.count == 0) continue;
        // Value unit: exclusive microseconds (flamegraph.pl and speedscope
        // take any weight; µs keeps small zones above zero).
        const auto us = static_cast<long long>(node.exclusive_ns / 1000);
        std::snprintf(buf, sizeof(buf), " %lld\n", us > 0 ? us : (node.count > 0 ? 1 : 0));
        out += node.path;
        out += buf;
    }
    return out;
}

std::string to_table(const Report& report) {
    std::vector<ZoneStat> by_excl = report.zones;
    std::sort(by_excl.begin(), by_excl.end(), [](const ZoneStat& a, const ZoneStat& b) {
        return a.exclusive_ns != b.exclusive_ns ? a.exclusive_ns > b.exclusive_ns
                                                : a.zone < b.zone;
    });
    std::string out;
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%-28s %12s %12s %12s\n", "zone", "calls",
                  "excl_ms", "incl_ms");
    out += buf;
    for (const ZoneStat& z : by_excl) {
        std::snprintf(buf, sizeof(buf), "%-28s %12" PRIu64 " %12.3f %12.3f\n",
                      z.zone.c_str(), z.count,
                      static_cast<double>(z.exclusive_ns) / 1e6,
                      static_cast<double>(z.inclusive_ns) / 1e6);
        out += buf;
    }
    return out;
}

} // namespace pimlib::prof
