#include "trace/timeline.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "telemetry/events.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/profiler/profiler.hpp"

namespace pimlib::trace {

namespace {

using telemetry::Event;
using telemetry::EventType;
using telemetry::json_escape;

std::string fmt(const char* format, ...) {
    char buf[768];
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(buf, sizeof(buf), format, ap);
    va_end(ap);
    return buf;
}

struct PendingFlow {
    sim::Time ts = 0;
    int tid = 0;
};

/// Comma-separated accumulation of trace-event objects.
struct Emitter {
    std::string out;
    bool first = true;
    unsigned long long next_flow = 1;

    void add(const std::string& obj) {
        out += first ? "  " : ",\n  ";
        first = false;
        out += obj;
    }

    /// A flow arrow from `from` to the slice at (ts, tid) on pid 1: an "s"
    /// start and an "f" finish bound to the enclosing slice.
    void arrow(const char* name, const char* cat, PendingFlow from, sim::Time ts, int tid) {
        const unsigned long long id = next_flow++;
        add(fmt("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"s\",\"ts\":%lld,\"pid\":1,"
                "\"tid\":%d,\"id\":%llu}",
                name, cat, static_cast<long long>(from.ts), from.tid, id));
        add(fmt("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"f\",\"bp\":\"e\",\"ts\":%lld,"
                "\"pid\":1,\"tid\":%d,\"id\":%llu}",
                name, cat, static_cast<long long>(ts), tid, id));
    }
};

/// Which flow queue a control event participates in, if any. Queues are
/// FIFO per (kind, group): a hop-by-hop join travels DR → RP as a chain of
/// join-sent/join-received pairs, and FIFO order matches because the sim
/// delivers same-link messages in send order.
struct FlowRole {
    const char* kind = nullptr; // queue family ("join", "prune", ...)
    bool sender = false;        // true: enqueue; false: dequeue + arrow
};

FlowRole flow_role(EventType type) {
    switch (type) {
    case EventType::kJoinSent: return {"join", true};
    case EventType::kJoinReceived: return {"join", false};
    case EventType::kPruneSent: return {"prune", true};
    case EventType::kPruneReceived: return {"prune", false};
    case EventType::kRegisterSent: return {"register", true};
    case EventType::kRegisterReceived: return {"register", false};
    case EventType::kIgmpReport: return {"igmp", true};
    default: return {};
    }
}

/// Nominal width of instant decisions: wide enough to click in Perfetto,
/// narrow against protocol timescales (ms..s).
constexpr long long kSliceDuration = 10; // µs

} // namespace

std::string chrome_timeline_json(const topo::Network& net,
                                 const provenance::Recorder* recorder) {
    const telemetry::Hub& hub = net.telemetry();
    const telemetry::NodeNames names_of = net.node_names();
    const auto& events = hub.events().events();
    std::vector<provenance::HopRecord> hops;
    if (recorder != nullptr) hops = recorder->all_records();

    // Track assignment: one tid per node name, alphabetical so the Perfetto
    // track order is stable across runs.
    std::set<std::string> names;
    for (const Event& e : events) names.insert(names_of(e.node));
    for (const provenance::HopRecord& h : hops) names.insert(names_of(h.node));
    std::map<std::string, int> tids;
    for (const std::string& n : names) tids.emplace(n, static_cast<int>(tids.size()) + 1);

    Emitter em;

    // Metadata: process + per-node thread names.
    em.add(fmt("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"nodes (control + data plane)\"}}"));
    em.add(fmt("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
               "\"args\":{\"name\":\"causal transactions\"}}"));
    for (const auto& [name, tid] : tids) {
        em.add(fmt("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"name\":\"%s\"}}",
                   tid, json_escape(name).c_str()));
    }

    std::map<std::pair<std::string, net::GroupAddress>, std::deque<PendingFlow>> pending;
    const auto pop_sender = [&pending](const char* kind,
                                       net::GroupAddress group) -> std::optional<PendingFlow> {
        const auto it = pending.find({kind, group});
        if (it == pending.end() || it->second.empty()) return std::nullopt;
        const PendingFlow from = it->second.front();
        it->second.pop_front();
        return from;
    };

    // Control-plane decisions: one slice per event, flow arrows pairing
    // sends with receives (and IGMP reports with the joins they trigger).
    for (const Event& e : events) {
        const int tid = tids.at(names_of(e.node));
        const auto ts = static_cast<long long>(e.at);
        std::string args = fmt("\"protocol\":\"%s\"", telemetry::to_string(e.protocol));
        if (e.has_group()) {
            args += fmt(",\"group\":\"%s\"", e.group.to_string().c_str());
        }
        const std::string detail = telemetry::detail_text(e);
        if (!detail.empty()) {
            args += fmt(",\"detail\":\"%s\"", json_escape(detail).c_str());
        }
        if (e.span != 0) {
            args += fmt(",\"span\":%llu", static_cast<unsigned long long>(e.span));
        }
        em.add(fmt("{\"name\":\"%s\",\"cat\":\"control\",\"ph\":\"X\",\"ts\":%lld,"
                   "\"dur\":%lld,\"pid\":1,\"tid\":%d,\"args\":{%s}}",
                   telemetry::to_string(e.type), ts, kSliceDuration, tid, args.c_str()));

        const FlowRole role = flow_role(e.type);
        if (role.kind == nullptr) continue;
        if (role.sender) {
            pending[{role.kind, e.group}].push_back({e.at, tid});
        } else if (const auto from = pop_sender(role.kind, e.group)) {
            em.arrow(role.kind, "flow", *from, e.at, tid);
        }
        // An IGMP report causes the DR's next triggered join for the group:
        // the report is the sender, join-sent the receiver end of the arrow.
        if (e.type == EventType::kJoinSent) {
            if (const auto from = pop_sender("igmp", e.group)) {
                em.arrow("igmp-to-join", "flow", *from, e.at, tid);
            }
        }
    }

    // Completed causal spans (join-to-data, spt-switch, rp-failover) as
    // async bars on the transactions process, one tid per span kind.
    std::map<telemetry::SpanKind, int> span_tids;
    for (const auto& c : hub.spans().completed()) {
        auto [it, inserted] =
            span_tids.emplace(c.kind, static_cast<int>(span_tids.size()) + 1);
        const int tid = it->second;
        if (inserted) {
            em.add(fmt("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":%d,"
                       "\"args\":{\"name\":\"%s\"}}",
                       tid, telemetry::to_string(c.kind)));
        }
        em.add(fmt("{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"b\",\"ts\":%lld,"
                   "\"pid\":2,\"tid\":%d,\"id\":%llu,\"args\":{\"key\":\"%s\"}}",
                   telemetry::to_string(c.kind), static_cast<long long>(c.begin), tid,
                   static_cast<unsigned long long>(c.id),
                   json_escape(telemetry::span_key_text(c.key, names_of)).c_str()));
        em.add(fmt("{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"e\",\"ts\":%lld,"
                   "\"pid\":2,\"tid\":%d,\"id\":%llu}",
                   telemetry::to_string(c.kind), static_cast<long long>(c.end), tid,
                   static_cast<unsigned long long>(c.id)));
    }

    // Data-plane hop records: one slice per forwarding decision, flow
    // arrows chaining consecutive hops of the same packet id — the visual
    // path a packet took down the tree (or the drop that ended it).
    std::map<std::uint64_t, PendingFlow> last_hop;
    for (const provenance::HopRecord& h : hops) {
        const int tid = tids.at(names_of(h.node));
        const auto ts = static_cast<long long>(h.at);
        const bool dropped = h.drop != provenance::DropReason::kNone;
        const std::string name =
            dropped ? fmt("drop %s", provenance::drop_reason_label(h.drop))
                    : fmt("fwd %s", provenance::entry_kind_label(h.kind));
        em.add(fmt("{\"name\":\"%s\",\"cat\":\"data\",\"ph\":\"X\",\"ts\":%lld,"
                   "\"dur\":%lld,\"pid\":1,\"tid\":%d,\"args\":{"
                   "\"pid\":\"%016" PRIx64 "\",\"src\":\"%s\",\"group\":\"%s\","
                   "\"seq\":%" PRIu64 ",\"iif\":%d,\"ttl\":%u,\"oifs\":%u}}",
                   json_escape(name).c_str(), ts, kSliceDuration, tid, h.pid,
                   h.src.to_string().c_str(), h.group.to_string().c_str(), h.seq,
                   static_cast<int>(h.iif), static_cast<unsigned>(h.ttl),
                   static_cast<unsigned>(h.oif_count)));
        const auto prev = last_hop.find(h.pid);
        if (prev != last_hop.end()) em.arrow("pkt", "dataflow", prev->second, h.at, tid);
        last_hop[h.pid] = {h.at, tid};
    }

    // CPU profiler zones (pid 3, tid per host thread). The profiler clock
    // is host-monotonic nanoseconds — a different timebase from sim-time —
    // so these slices live on their own process, rebased to the earliest
    // retained record and scaled to Chrome's microsecond `ts`. Nesting is
    // well-formed per thread because the records come from a stack.
    const std::vector<prof::TraceSlice> slices = prof::trace_slices();
    if (!slices.empty()) {
        em.add(fmt("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\"tid\":0,"
                   "\"args\":{\"name\":\"cpu profile (host time)\"}}"));
        std::set<std::uint32_t> prof_tids;
        std::int64_t epoch = slices.front().t0_ns;
        for (const prof::TraceSlice& s : slices) {
            epoch = std::min(epoch, s.t0_ns);
            prof_tids.insert(s.thread);
        }
        for (const std::uint32_t t : prof_tids) {
            em.add(fmt("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,\"tid\":%u,"
                       "\"args\":{\"name\":\"sim thread %u\"}}",
                       t + 1, t));
        }
        for (const prof::TraceSlice& s : slices) {
            const double ts_us = static_cast<double>(s.t0_ns - epoch) / 1e3;
            const double dur_us = static_cast<double>(s.t1_ns - s.t0_ns) / 1e3;
            em.add(fmt("{\"name\":\"%s\",\"cat\":\"cpu\",\"ph\":\"X\",\"ts\":%.3f,"
                       "\"dur\":%.3f,\"pid\":3,\"tid\":%u,\"args\":{"
                       "\"path\":\"%s\",\"sim_at\":%lld}}",
                       json_escape(s.leaf).c_str(), ts_us, dur_us, s.thread + 1,
                       json_escape(s.path).c_str(),
                       static_cast<long long>(s.sim_at)));
        }
    }

    return "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n" + em.out +
           "\n]\n}\n";
}

} // namespace pimlib::trace
