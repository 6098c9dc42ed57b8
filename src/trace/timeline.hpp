// Causal join-transaction timelines: stitches the telemetry event log,
// completed causal spans, and the provenance flight recorder into one
// Chrome trace-event JSON file loadable in Perfetto / chrome://tracing.
//
// The rendering contract:
//   - one track (pid 1, tid per node) per router/host, named by metadata
//     "thread_name" events, carrying control-plane decisions ("X" slices)
//     and data-plane hop records from the provenance recorder
//   - flow arrows ("s"/"f" pairs) tie cause to effect across tracks:
//     igmp-report → join-sent, join-sent → join-received, prune-sent →
//     prune-received, register-sent → register-received, and consecutive
//     hops of one provenance packet id
//   - async "b"/"e" pairs on pid 2 render each completed SpanTracker span
//     (join-to-data, spt-switch, rp-failover) as a transaction bar, so the
//     IGMP report → (*,G) joins → register → SPT switchover → first
//     delivery sequence reads left-to-right as one end-to-end story
//
// Everything user-controlled (node names, groups, details) passes through
// telemetry::json_escape; sim-time is µs, which is exactly Chrome's `ts`
// unit, so timestamps are copied through unscaled.
#pragma once

#include <string>

#include "provenance/provenance.hpp"
#include "telemetry/hub.hpp"

namespace pimlib::trace {

/// Builds the Chrome trace-event JSON ({"traceEvents":[...]}) from the
/// hub's event log + spans, the data-plane hop slices of `recorder` when it
/// is not null (bounded by its ring capacity per node), and the CPU
/// profiler's zone slices (pid 3) when the profiler holds records.
/// Profiler timestamps are host nanoseconds, not sim-time, so they render
/// on their own process track with a timebase starting at the earliest
/// retained record; each slice's sim-time is in args. Pure function of its
/// inputs — call at end of run (or any checkpoint).
[[nodiscard]] std::string chrome_timeline_json(const telemetry::Hub& hub,
                                               const provenance::Recorder* recorder);

} // namespace pimlib::trace
