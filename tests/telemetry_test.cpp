// Unit tests for the telemetry layer: histogram bucket placement and
// quantiles, label-set interning, counter epochs (the NetworkStats reset
// semantics ride on these), NetworkStats' allocation-free counting calls,
// allocation-free member delivery, the structured event log, causal spans,
// allocation-free emits with tracing off, snapshot diffing, all three
// exporters, and the pentagon's rendered events and spans under every stack.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "alloc_count.hpp"
#include "check/watchdog.hpp"
#include "provenance/provenance.hpp"
#include "scenario/script.hpp"
#include "scenario/stacks.hpp"
#include "scenario/world.hpp"
#include "telemetry/events.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/tree_monitor.hpp"
#include "test_util.hpp"
#include "trace/timeline.hpp"

namespace pimlib::test {
namespace {

using telemetry::Buckets;
using telemetry::LabelSet;
using telemetry::Registry;

// --- histograms ----------------------------------------------------------

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
    // Bounds: 1, 2, 4, 8. Prometheus buckets are `le=` (inclusive upper).
    telemetry::Histogram h(Buckets::exponential(1.0, 2.0, 4));
    ASSERT_EQ(h.bounds().size(), 4u);
    EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
    EXPECT_DOUBLE_EQ(h.bounds()[3], 8.0);

    h.observe(1.0);  // exactly on a boundary -> bucket 0 (le=1)
    h.observe(1.5);  // bucket 1 (le=2)
    h.observe(8.0);  // boundary again -> bucket 3 (le=8)
    h.observe(100.0); // past the last bound -> +Inf bucket
    ASSERT_EQ(h.bucket_counts().size(), 5u);
    EXPECT_EQ(h.bucket_counts()[0], 1u);
    EXPECT_EQ(h.bucket_counts()[1], 1u);
    EXPECT_EQ(h.bucket_counts()[2], 0u);
    EXPECT_EQ(h.bucket_counts()[3], 1u);
    EXPECT_EQ(h.bucket_counts()[4], 1u); // +Inf
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 110.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Histogram, QuantilesInterpolateAndClampToObservedRange) {
    telemetry::Histogram h(Buckets::exponential(1.0, 2.0, 8));
    for (int i = 0; i < 100; ++i) h.observe(3.0); // all in bucket le=4
    // Interpolation stays within the containing bucket...
    EXPECT_GE(h.quantile(0.5), 2.0);
    EXPECT_LE(h.quantile(0.5), 4.0);
    // ...and clamps to exactly-tracked min/max at the extremes.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
    EXPECT_DOUBLE_EQ(telemetry::Histogram(Buckets::exponential(1, 2, 4)).quantile(0.5),
                     0.0); // empty -> 0
}

TEST(Histogram, ObservationsPastLastBoundUseTrackedMax) {
    telemetry::Histogram h(Buckets::exponential(1.0, 2.0, 2)); // bounds 1, 2
    h.observe(50.0);
    h.observe(70.0);
    // Both land in +Inf; the quantile cannot exceed the exact max.
    EXPECT_LE(h.quantile(0.99), 70.0);
    EXPECT_GE(h.quantile(0.99), 50.0);
}

TEST(Histogram, RejectsUnboundedOrInvalidBucketSpecs) {
    EXPECT_THROW(Buckets::exponential(0.0, 2.0, 4), std::invalid_argument);
    EXPECT_THROW(Buckets::exponential(1.0, 1.0, 4), std::invalid_argument);
    EXPECT_THROW(Buckets::exponential(1.0, 2.0, 0), std::invalid_argument);
    EXPECT_THROW(Buckets::exponential(1.0, 2.0, Buckets::kMaxBuckets + 1),
                 std::invalid_argument);
    EXPECT_NO_THROW(Buckets::exponential(1.0, 2.0, Buckets::kMaxBuckets));
}

// --- label interning ------------------------------------------------------

TEST(Registry, LabelSetsInternToOneIdRegardlessOfOrder) {
    Registry reg;
    const std::size_t a = reg.intern(LabelSet{{"proto", "pim"}, {"seg", "lan0"}});
    const std::size_t b = reg.intern(LabelSet{{"seg", "lan0"}, {"proto", "pim"}});
    const std::size_t c = reg.intern(LabelSet{{"seg", "lan1"}, {"proto", "pim"}});
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(reg.interned_count(), 2u);
    EXPECT_EQ(reg.labels_of(a).pairs().front().first, "proto");
}

TEST(Registry, SameNameAndLabelsReturnsSameInstrument) {
    Registry reg;
    telemetry::Counter& c1 = reg.counter("pimlib_x_total", {{"k", "v"}});
    telemetry::Counter& c2 = reg.counter("pimlib_x_total", {{"k", "v"}});
    telemetry::Counter& other = reg.counter("pimlib_x_total", {{"k", "w"}});
    c1.inc(3);
    EXPECT_EQ(c2.value(), 3u);
    EXPECT_EQ(other.value(), 0u);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, KindCollisionOnOneNameThrows) {
    Registry reg;
    reg.counter("pimlib_x_total");
    EXPECT_THROW(reg.gauge("pimlib_x_total"), std::logic_error);
    EXPECT_THROW(reg.histogram("pimlib_x_total", Buckets::exponential(1, 2, 4)),
                 std::logic_error);
}

// --- epochs (the reset_data_counters semantics) ---------------------------

TEST(Registry, EpochResetsCounterValuesButKeepsLifetime) {
    Registry reg;
    telemetry::Counter& c = reg.counter("pimlib_data_delivered_total");
    c.inc(10);
    reg.begin_epoch();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(c.lifetime(), 10u);
    c.inc(2);
    EXPECT_EQ(c.value(), 2u);
    EXPECT_EQ(c.lifetime(), 12u);
}

TEST(NetworkStats, ResetCoversPerSegmentControlAndLossDrops) {
    // The historical gap: reset_data_counters() used to leave per-segment
    // control counters and loss drops running, so post-warm-up measurements
    // double-counted the warm-up. All of those go through counter epochs now.
    topo::Network net;
    stats::NetworkStats& stats = net.stats();
    stats.count_control_on_segment(0);
    stats.count_data_packet(0);
    stats.count_drop(provenance::DropReason::kSegmentLoss);
    stats.count_data_delivered();
    stats.count_control_message("pim");

    telemetry::Counter& seg_control = net.telemetry().registry().counter(
        "pimlib_control_segment_messages_total", {{"segment", "0"}});
    EXPECT_EQ(seg_control.value(), 1u);

    stats.reset_data_counters();
    EXPECT_EQ(seg_control.value(), 0u);
    EXPECT_EQ(seg_control.lifetime(), 1u); // registry keeps the whole-run count
    EXPECT_EQ(stats.data_packets_on(0), 0u);
    EXPECT_EQ(stats.drops(provenance::DropReason::kSegmentLoss), 0u);
    EXPECT_EQ(stats.data_delivered(), 0u);
    // Per-protocol totals deliberately survive (whole-run control cost).
    EXPECT_EQ(stats.total_control_messages(), 1u);

    stats.count_data_packet(0);
    EXPECT_EQ(stats.data_packets_on(0), 1u);

    // Flow sets reset too. The gauge is written only when a segment sees a
    // new flow, so the same flow noted after the reset must count as new.
    const net::Ipv4Address source(10, 0, 0, 1);
    const net::GroupAddress group(net::Ipv4Address(224, 1, 1, 1));
    telemetry::Gauge& flows = net.telemetry().registry().gauge(
        "pimlib_data_segment_flows", {{"segment", "0"}});
    stats.note_flow(0, source, group);
    stats.note_flow(0, source, group);
    EXPECT_DOUBLE_EQ(flows.value(), 1.0);
    stats.reset_data_counters();
    EXPECT_EQ(stats.flows_on(0), 0u);
    EXPECT_DOUBLE_EQ(flows.value(), 0.0);
    stats.note_flow(0, source, group);
    EXPECT_EQ(stats.flows_on(0), 1u);
    EXPECT_DOUBLE_EQ(flows.value(), 1.0);
}

// Every ControlProtocol's exported name looks up back to the same enum, so
// the name table has one distinct entry per kind and none past the last.
static_assert([]() consteval {
    for (std::size_t i = 0; i < stats::kControlProtocolNames.size(); ++i) {
        const stats::ControlName name(stats::kControlProtocolNames[i].data());
        if (name.protocol != static_cast<stats::ControlProtocol>(i)) return false;
    }
    return stats::ControlName("dv").protocol == stats::ControlProtocol::kDv &&
           stats::kControlProtocolNames.size() ==
               static_cast<std::size_t>(stats::ControlProtocol::kDv) + 1;
}());

TEST(NetworkStats, CountingCallsAllocateNothingOnceResolved) {
    topo::Network net;
    stats::NetworkStats& stats = net.stats();
    const net::Ipv4Address source(10, 0, 0, 1);
    const net::GroupAddress group(net::Ipv4Address(224, 1, 1, 1));
    const auto count_everything = [&] {
        for (int seg = 0; seg < 4; ++seg) {
            stats.count_data_packet(seg);
            stats.count_control_on_segment(seg);
            stats.note_flow(seg, source, group);
        }
        stats.count_control_message("pim");
        stats.count_control_message("igmp");
        stats.count_data_delivered();
        for (std::size_t r = 1; r < provenance::kDropReasonCount; ++r) {
            stats.count_drop(static_cast<provenance::DropReason>(r));
        }
    };
    count_everything(); // first use resolves every series

    const std::uint64_t before = g_alloc_count.load();
    for (int i = 0; i < 1000; ++i) count_everything();
    EXPECT_EQ(g_alloc_count.load(), before)
        << "a counting call on a resolved series (and note_flow on a seen "
           "flow) must not allocate";
    EXPECT_EQ(stats.data_packets_on(3), 1001u);
    EXPECT_EQ(stats.control_messages("igmp"), 1001u);
    EXPECT_EQ(stats.flows_on(3), 1u);
    EXPECT_EQ(stats.drops(provenance::DropReason::kNoRoute), 1001u);
}

// --- event log ------------------------------------------------------------

TEST(EventLog, DisabledByDefaultAndBoundedWhenEnabled) {
    const std::string name = "A";
    const telemetry::NodeNames names = [&name](int) -> const std::string& { return name; };
    telemetry::EventLog log;
    log.emit({.type = telemetry::EventType::kJoinSent, .node = 0, .group = kGroup});
    EXPECT_TRUE(log.events().empty());

    log.set_enabled(true);
    log.set_capacity(3);
    for (int i = 0; i < 5; ++i) {
        log.emit({.at = i, .type = telemetry::EventType::kJoinSent, .node = 0});
    }
    EXPECT_EQ(log.events().size(), 3u);
    EXPECT_EQ(log.dropped(), 2u);
    EXPECT_NE(log.dump(names).find("join-sent"), std::string::npos);
    EXPECT_NE(log.dump(names).find("2 event(s) dropped at capacity"), std::string::npos);
}

// --- spans ----------------------------------------------------------------

TEST(SpanTracker, CompletedSpansFeedTheLatencyHistogram) {
    Registry reg;
    telemetry::SpanTracker spans(reg);
    const auto kind = telemetry::SpanKind::kJoinToData;
    const telemetry::SpanKey key{.node = 1, .group = kGroup};
    const std::uint64_t id = spans.begin(kind, key, 1 * sim::kSecond);
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(spans.is_open(kind, key));
    // Re-opening keeps the original start (first cause wins).
    EXPECT_EQ(spans.begin(kind, key, 2 * sim::kSecond), id);
    auto latency = spans.end(kind, key, 3 * sim::kSecond);
    ASSERT_TRUE(latency.has_value());
    EXPECT_EQ(*latency, 2 * sim::kSecond);
    EXPECT_FALSE(spans.is_open(kind, key));
    EXPECT_FALSE(spans.end(kind, key, 4 * sim::kSecond).has_value());

    const telemetry::Histogram& h = reg.histogram(
        "pimlib_control_span_seconds", Buckets::exponential(0.001, 2.0, 24),
        {{"span", "join-to-data"}});
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.sum(), 2.0);
}

TEST(SpanTracker, AbortDiscardsWithoutObserving) {
    Registry reg;
    telemetry::SpanTracker spans(reg);
    const telemetry::SpanKey key{.node = 1, .group = kGroup};
    spans.begin(telemetry::SpanKind::kJoinToData, key, 0);
    spans.abort(telemetry::SpanKind::kJoinToData, key);
    EXPECT_FALSE(spans.is_open(telemetry::SpanKind::kJoinToData, key));
    EXPECT_TRUE(spans.completed().empty());
}

// --- snapshot diffing -----------------------------------------------------

telemetry::EntrySnapshot entry(const std::string& src, const std::string& group,
                               bool wildcard, int iif, std::vector<int> oifs) {
    telemetry::EntrySnapshot e;
    e.source_or_rp = src;
    e.group = group;
    e.wildcard = wildcard;
    e.iif = iif;
    for (int o : oifs) e.oifs.push_back({o, 5 * sim::kSecond, false});
    return e;
}

TEST(MribSnapshot, TimerCountdownDoesNotRegisterAsChange) {
    telemetry::MribSnapshot before;
    before.at = 1 * sim::kSecond;
    before.routers.push_back({"A", {entry("10.0.0.1", "224.1.1.1", true, 0, {1})}});

    telemetry::MribSnapshot after = before;
    after.at = 2 * sim::kSecond;
    after.routers[0].entries[0].oifs[0].remaining = 1 * sim::kSecond; // ticked down
    after.routers[0].entries[0].delete_in = 7;

    EXPECT_TRUE(telemetry::diff(before, after).empty());
}

TEST(MribSnapshot, DiffReportsAddedRemovedAndChanged) {
    telemetry::MribSnapshot before;
    before.routers.push_back({"A", {entry("10.0.0.1", "224.1.1.1", true, 0, {1}),
                                    entry("10.9.9.9", "224.1.1.1", false, 0, {1})}});
    telemetry::MribSnapshot after;
    // (*,G) gains an oif (changed); the (S,G) is gone (removed); B appears
    // with a new entry (added).
    after.routers.push_back({"A", {entry("10.0.0.1", "224.1.1.1", true, 0, {1, 2})}});
    after.routers.push_back({"B", {entry("10.0.0.1", "224.2.2.2", true, 1, {})}});

    const telemetry::MribDiff d = telemetry::diff(before, after);
    ASSERT_EQ(d.changed.size(), 1u);
    ASSERT_EQ(d.removed.size(), 1u);
    ASSERT_EQ(d.added.size(), 1u);
    EXPECT_NE(d.changed[0].find("(*, 224.1.1.1)"), std::string::npos);
    EXPECT_NE(d.removed[0].find("10.9.9.9"), std::string::npos);
    EXPECT_NE(d.added[0].find("B"), std::string::npos);
    EXPECT_NE(d.to_text().find("~"), std::string::npos);
}

TEST(MribSnapshot, SptAndRpBitFlipsAreStructural) {
    telemetry::MribSnapshot before;
    before.routers.push_back({"A", {entry("10.0.0.1", "224.1.1.1", false, 0, {1})}});
    telemetry::MribSnapshot after = before;
    after.routers[0].entries[0].spt_bit = true;
    EXPECT_EQ(telemetry::diff(before, after).changed.size(), 1u);
    after.routers[0].entries[0].spt_bit = false;
    after.routers[0].entries[0].rp_bit = true;
    EXPECT_EQ(telemetry::diff(before, after).changed.size(), 1u);
}

// --- exporters ------------------------------------------------------------

TEST(Exporters, PrometheusEscapesLabelValues) {
    EXPECT_EQ(telemetry::prometheus_escape("plain"), "plain");
    EXPECT_EQ(telemetry::prometheus_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(telemetry::prometheus_escape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(telemetry::prometheus_escape("line1\nline2"), "line1\\nline2");

    Registry reg;
    reg.counter("pimlib_x_total", {{"k", "a\"b\\c\nd"}}, "help\ntext").inc();
    const std::string text = telemetry::to_prometheus(reg);
    EXPECT_NE(text.find("k=\"a\\\"b\\\\c\\nd\""), std::string::npos);
    EXPECT_EQ(text.find("help\ntext"), std::string::npos); // help newline escaped
}

TEST(Exporters, PrometheusSurvivesHostileLabelValues) {
    // Regression guard for the drop-reason labels and any future
    // user-supplied label (scenario names, interface names): values that
    // are nothing but escapes, end in a backslash, or embed the exposition
    // format's own structural characters must round-trip unambiguously.
    EXPECT_EQ(telemetry::prometheus_escape("trailing\\"), "trailing\\\\");
    EXPECT_EQ(telemetry::prometheus_escape("\\\"\n"), "\\\\\\\"\\n");
    EXPECT_EQ(telemetry::prometheus_escape(""), "");
    // Braces, equals and commas are structural in the exposition format but
    // legal inside a quoted value — they must pass through unescaped.
    EXPECT_EQ(telemetry::prometheus_escape("a{b=\"c\",d}"), "a{b=\\\"c\\\",d}");

    Registry reg;
    reg.counter("pimlib_hostile_total", {{"reason", "end\\"}}).inc();
    reg.counter("pimlib_hostile_total", {{"reason", "a{b=c},d"}}).inc();
    const std::string text = telemetry::to_prometheus(reg);
    EXPECT_NE(text.find("reason=\"end\\\\\""), std::string::npos) << text;
    EXPECT_NE(text.find("reason=\"a{b=c},d\""), std::string::npos) << text;
}

TEST(Exporters, JsonEscapesControlAndQuoteCharacters) {
    EXPECT_EQ(telemetry::json_escape("tab\there"), "tab\\there");
    EXPECT_EQ(telemetry::json_escape("q\"q"), "q\\\"q");
    EXPECT_EQ(telemetry::json_escape("b\\s"), "b\\\\s");
    EXPECT_EQ(telemetry::json_escape("nl\n"), "nl\\n");

    Registry reg;
    reg.counter("pimlib_hostile_total", {{"k", "v\"w\\x\ty"}}).inc();
    const std::string text = telemetry::to_json(reg);
    EXPECT_NE(text.find("v\\\"w\\\\x\\ty"), std::string::npos) << text;
}

TEST(Exporters, PrometheusHistogramIsCumulativeWithInfBucket) {
    Registry reg;
    telemetry::Histogram& h =
        reg.histogram("pimlib_x_seconds", Buckets::exponential(1.0, 2.0, 2));
    h.observe(1.0);
    h.observe(1.5);
    h.observe(99.0);
    const std::string text = telemetry::to_prometheus(reg);
    EXPECT_NE(text.find("# TYPE pimlib_x_seconds histogram"), std::string::npos);
    EXPECT_NE(text.find("pimlib_x_seconds_bucket{le=\"1\"} 1"), std::string::npos);
    EXPECT_NE(text.find("pimlib_x_seconds_bucket{le=\"2\"} 2"), std::string::npos);
    EXPECT_NE(text.find("pimlib_x_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
    EXPECT_NE(text.find("pimlib_x_seconds_count 3"), std::string::npos);
}

TEST(Exporters, JsonGroupsLabeledSeriesAndHistogramPercentiles) {
    Registry reg;
    reg.counter("pimlib_control_messages_total", {{"protocol", "pim"}}).inc(7);
    reg.counter("pimlib_control_messages_total", {{"protocol", "cbt"}}).inc(2);
    reg.gauge("pimlib_state_mrib_entries", {{"router", "A"}}).set(4);
    reg.histogram("pimlib_x_seconds", Buckets::exponential(1.0, 2.0, 4)).observe(2.5);
    const std::string json = telemetry::to_json(reg);
    EXPECT_NE(json.find("\"pimlib_control_messages_total\""), std::string::npos);
    EXPECT_NE(json.find("\"protocol\":\"pim\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":7"), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// --- hub + end-to-end -----------------------------------------------------

TEST(Hub, EventCountersAreLiveEvenWithTracingOff) {
    sim::Simulator simulator;
    telemetry::Hub hub(simulator);
    hub.emit({.type = telemetry::EventType::kJoinSent, .node = 0, .group = kGroup});
    hub.emit({.type = telemetry::EventType::kJoinSent, .node = 1, .group = kGroup});
    EXPECT_TRUE(hub.events().events().empty()); // tracing off: no log entries
    EXPECT_EQ(hub.registry()
                  .counter("pimlib_control_events_total",
                           {{"type", "join-sent"}, {"protocol", "pim"}})
                  .value(),
              2u);
    // Spans are no-ops while tracing is off.
    EXPECT_EQ(hub.span_begin(telemetry::SpanKind::kJoinToData, {.node = 0, .group = kGroup}),
              0u);
}

TEST(Hub, JoinToDataSpanMeasuresEndToEndLatency) {
    Fig3Topology topo;
    topo.net.telemetry().set_tracing(true);
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.c->router_id()});
    stack.set_spt_policy(pim::SptPolicy::never());

    topo.net.run_for(200 * sim::kMillisecond);
    stack.host_agent(*topo.receiver).join(kGroup);
    topo.net.run_for(300 * sim::kMillisecond);
    topo.source->send_stream(kGroup, 3, 20 * sim::kMillisecond);
    topo.net.run_for(500 * sim::kMillisecond);

    ASSERT_EQ(topo.receiver->received_count(kGroup), 3u);
    const auto& completed = topo.net.telemetry().spans().completed();
    ASSERT_EQ(completed.size(), 1u);
    EXPECT_EQ(completed[0].kind, telemetry::SpanKind::kJoinToData);
    EXPECT_EQ(telemetry::span_key_text(completed[0].key, topo.net.node_names()),
              "receiver|224.1.1.1");
    EXPECT_GT(completed[0].latency(), 0);
    // The event log saw the IGMP report and at least one join toward the RP.
    const auto& events = topo.net.telemetry().events().events();
    bool saw_report = false;
    bool saw_join = false;
    for (const auto& e : events) {
        saw_report |= e.type == telemetry::EventType::kIgmpReport;
        saw_join |= e.type == telemetry::EventType::kJoinSent;
    }
    EXPECT_TRUE(saw_report);
    EXPECT_TRUE(saw_join);
}

TEST(Hub, MemberDeliveryWithNoSpanToCloseAllocatesNothing) {
    topo::Network net;
    topo::Router& router = net.add_router("r");
    topo::Host& host = net.add_host("h", net.add_lan({&router}));
    host.join_group(kGroup);
    net::Packet data;
    data.src = net::Ipv4Address(10, 9, 9, 9);
    data.dst = kGroup.address();
    data.proto = net::IpProto::kUdp;
    data.ttl = 64;
    data.seq = 1;
    data.payload.assign(64, 0xAB);
    // Warm up: resolve the delivery counter and size received()'s buffer.
    for (int i = 0; i < 8; ++i) host.receive(0, data);

    for (const bool tracing : {false, true}) {
        net.telemetry().set_tracing(tracing);
        host.clear_received();
        const std::uint64_t before = g_alloc_count.load();
        for (int i = 0; i < 8; ++i) host.receive(0, data);
        EXPECT_EQ(g_alloc_count.load(), before)
            << "delivering with tracing " << (tracing ? "on" : "off")
            << " and no span open must not allocate";
        EXPECT_EQ(host.received_count(kGroup), 8u);
    }
}

// With tracing off the hub only counts: once an event type's counter is
// resolved, emitting it, opening/closing/aborting a span and a member
// delivery allocate nothing (no names, keys or detail text are built).
TEST(Hub, TracingOffEmitsAndSpansAllocateNothing) {
    topo::Network net;
    const topo::Router& router = net.add_router("r");
    const topo::Host& host = net.add_host("h", net.add_lan({&net.router(0)}));
    telemetry::Hub& hub = net.telemetry();
    const auto emit_every_type = [&] {
        for (std::size_t t = 0; t < telemetry::kEventTypeCount; ++t) {
            hub.emit({.type = static_cast<telemetry::EventType>(t),
                      .node = router.id(),
                      .group = kGroup,
                      .addr = router.router_id(),
                      .ifindex = 0,
                      .count = 3});
        }
    };
    emit_every_type(); // resolves each type's counter
    const telemetry::SpanKey key{.node = host.id(), .group = kGroup};

    const std::uint64_t before = g_alloc_count.load();
    emit_every_type();
    for (std::size_t k = 0; k < telemetry::kSpanKindCount; ++k) {
        const auto kind = static_cast<telemetry::SpanKind>(k);
        EXPECT_EQ(hub.span_begin(kind, key), 0u);
        EXPECT_FALSE(hub.span_end(kind, key).has_value());
        hub.span_abort(kind, key);
    }
    hub.on_data_delivered(host.id(), kGroup);
    EXPECT_EQ(g_alloc_count.load(), before) << "telemetry allocated with tracing off";
    EXPECT_TRUE(hub.events().events().empty());
    EXPECT_EQ(hub.registry()
                  .counter("pimlib_control_events_total",
                           {{"type", "watchdog-violation"}, {"protocol", "pim"}})
                  .value(),
              2u);
}

TEST(Hub, MribSnapshotsDiffAcrossJoin) {
    Fig3Topology topo;
    scenario::PimSmStack stack(topo.net, fast_config());
    stack.set_rp(kGroup, {topo.c->router_id()});

    topo.net.run_for(200 * sim::kMillisecond);
    topo.net.telemetry().store_snapshot(stack.capture_mrib());
    stack.host_agent(*topo.receiver).join(kGroup);
    topo.net.run_for(300 * sim::kMillisecond);
    topo.net.telemetry().store_snapshot(stack.capture_mrib());

    const auto& snaps = topo.net.telemetry().snapshots();
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[0].entry_count(), 0u);
    EXPECT_GT(snaps[1].entry_count(), 0u); // (*,G) state grew along A->B->C
    const telemetry::MribDiff d = telemetry::diff(snaps[0], snaps[1]);
    EXPECT_FALSE(d.added.empty());
    EXPECT_TRUE(d.removed.empty());
    // Entry-count gauges were refreshed by store_snapshot.
    EXPECT_GT(topo.net.telemetry()
                  .registry()
                  .gauge("pimlib_state_mrib_entries", {{"router", "A"}})
                  .value(),
              0.0);
}

// --- timer wheel gauges ---------------------------------------------------

TEST(Hub, RefreshTimerGaugesPublishesWheelStats) {
    sim::Simulator sim;
    telemetry::Hub hub(sim);
    int fired = 0;
    sim.schedule(10, [&fired] { ++fired; });
    sim.schedule(20, [&fired] { ++fired; });

    hub.refresh_timer_gauges();

    double pending = -1;
    double level0 = -1;
    bool saw_cascades = false;
    for (const auto* inst : hub.registry().sorted()) {
        if (inst->name == "pimlib_timer_pending_events") {
            pending = inst->gauge->value();
        } else if (inst->name == "pimlib_timer_level_events" &&
                   inst->labels == LabelSet{{"level", "0"}}) {
            level0 = inst->gauge->value();
        } else if (inst->name == "pimlib_timer_cascades_total") {
            saw_cascades = true;
        }
    }
    EXPECT_EQ(pending, 2.0);
    EXPECT_EQ(level0, 2.0);
    EXPECT_TRUE(saw_cascades);

    // Draining the wheel and refreshing again overwrites in place.
    sim.run();
    EXPECT_EQ(fired, 2);
    hub.refresh_timer_gauges();
    for (const auto* inst : hub.registry().sorted()) {
        if (inst->name == "pimlib_timer_pending_events") {
            EXPECT_EQ(inst->gauge->value(), 0.0);
        }
    }
}

// --- golden events --------------------------------------------------------

// The walkthrough pentagon (examples/scenarios/walkthrough_pentagon.pimsim)
// under every stack with tracing on: the rendered event log, the completed
// span list (kind, key, begin, end, id), the control-event and span series
// of the prom dump, and the Chrome timeline (with a provenance recorder, so
// hop tracks merge with event tracks) folded into one FNV-1a digest per
// protocol. Pinned before events and spans became typed records; a change
// to how they are stored or rendered must not move one byte.
std::string pentagon_script(const std::string& protocol) {
    return "topology\n"
           "  router A B C D E\n"
           "  link A E delay=1ms metric=1\n"
           "  link E B delay=20ms metric=1\n"
           "  link A C delay=1ms metric=1\n"
           "  link B C delay=1ms metric=2\n"
           "  link C D delay=1ms metric=1\n"
           "  lan lan0 A\n"
           "  lan lan1 B\n"
           "  lan lan2 D\n"
           "  host receiver lan0\n"
           "  host source lan1\n"
           "  host viewer lan2\n"
           "end\n"
           "protocol " + protocol + "\n" +
           "rp 224.1.1.1 C\n" +
           (protocol == "pim-sm" ? "spt-policy immediate\n" : "") +
           "watchdog on\n"
           "at 120ms join receiver 224.1.1.1\n"
           "at 130ms join viewer 224.1.1.1\n"
           "at 250ms send source 224.1.1.1 count=30 interval=10ms\n"
           "at 260ms send source 224.2.2.2 count=2 interval=10ms\n"
           "at 400ms leave viewer 224.1.1.1\n"
           "run 1200ms\n";
}

std::uint64_t fnv1a(std::uint64_t digest, const std::string& text) {
    for (const char ch : text) {
        digest ^= static_cast<unsigned char>(ch);
        digest *= 0x100000001b3ull;
    }
    return digest;
}

TEST(EventGolden, PentagonEventsAndSpansUnchanged) {
    struct Golden {
        const char* protocol;
        std::size_t events;
        std::size_t spans;
        std::uint64_t digest;
    };
    const Golden golden[] = {
        {"pim-sm", 56, 4, 16606346328794911512ull},
        {"pim-dm", 3, 2, 9333966746992050617ull},
        {"dvmrp", 3, 2, 2697696561373573762ull},
        {"cbt", 4, 2, 943946666403557010ull},
        {"mospf", 30, 2, 18065403513211636481ull},
    };
    ASSERT_EQ(std::size(golden), scenario::kStackProtocols.size());
    for (std::size_t i = 0; i < std::size(golden); ++i) {
        const std::string protocol(scenario::kStackProtocols[i].name);
        SCOPED_TRACE(protocol);
        const scenario::Blueprint plan(scenario::parse_script(pentagon_script(protocol)));
        const scenario::Script& script = plan.script();
        scenario::World world(plan, scenario::World::Observers::kScript);
        provenance::Recorder recorder;
        world.net.set_provenance(&recorder);
        world.schedule_actions();
        world.net.run_for(script.run_until);

        const telemetry::Hub& hub = world.net.telemetry();
        const telemetry::NodeNames names = world.net.node_names();
        std::string spans;
        for (const auto& c : hub.spans().completed()) {
            spans += std::string(telemetry::to_string(c.kind)) + ' ' +
                     telemetry::span_key_text(c.key, names) + ' ' + std::to_string(c.begin) + ' ' +
                     std::to_string(c.end) + ' ' + std::to_string(c.id) + '\n';
        }
        std::string series;
        const std::string prom = telemetry::to_prometheus(hub.registry());
        for (std::size_t at = 0; at < prom.size();) {
            const std::size_t eol = prom.find('\n', at);
            const std::string line = prom.substr(at, eol - at);
            if (line.find("pimlib_control_events_total") != std::string::npos ||
                line.find("pimlib_control_span_seconds") != std::string::npos) {
                series += line + '\n';
            }
            at = eol + 1;
        }
        std::uint64_t digest = 0xcbf29ce484222325ull;
        digest = fnv1a(digest, hub.events().dump(names));
        digest = fnv1a(digest, spans);
        digest = fnv1a(digest, series);
        digest = fnv1a(digest, trace::chrome_timeline_json(world.net, &recorder));
        EXPECT_EQ(golden[i].protocol, protocol);
        EXPECT_EQ(hub.events().events().size(), golden[i].events);
        EXPECT_EQ(hub.spans().completed().size(), golden[i].spans);
        EXPECT_EQ(digest, golden[i].digest);
    }
}

// --- golden observers -----------------------------------------------------

// The same pentagon under every stack with the tree monitor at 100 ms and
// the watchdog on, plus the skip-spt-bit-handshake mutation under PIM-SM:
// the monitor's last pass after every tick, the pimlib_tree_* and
// pimlib_watchdog_* series, the watchdog's violations (post-mortems
// included), its dump and its entry count, folded into one digest per run.
// Pinned before the two observers shared one MRIB walk; a change to how
// they walk, schedule or name must not move one byte.
std::string pass_text(const telemetry::TreeMonitor::PassStats& p) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%llu %lld %zu %zu %zu %zu %zu %zu %zu %zu %d %zu %.17g %zu %zu\n",
                  static_cast<unsigned long long>(p.pass),
                  static_cast<long long>(p.completed_at), p.entries, p.wildcard_entries,
                  p.sg_entries, p.groups, p.member_ports, p.walks, p.broken_walks,
                  p.skipped_walks, p.depth_max, p.fanout_max, p.stretch_max,
                  p.link_flows_max, p.links_used);
    return buf;
}

std::uint64_t observer_digest(const std::string& protocol, const std::string& mutation) {
    const scenario::Blueprint plan(scenario::parse_script(pentagon_script(protocol)));
    scenario::World world(plan, scenario::World::Observers::kNone, mutation);
    provenance::Recorder recorder;
    world.net.set_provenance(&recorder);
    check::Watchdog watchdog(world.net, world.stack().caches());
    watchdog.set_recorder(&recorder);
    watchdog.start();
    telemetry::TreeMonitor monitor(world.net, world.stack().caches(), 100 * sim::kMillisecond);
    monitor.start();
    world.schedule_actions();

    std::string passes;
    for (sim::Time t = 0; t < plan.script().run_until;) {
        t += 100 * sim::kMillisecond;
        world.net.simulator().run_until(t);
        passes += pass_text(monitor.last_pass());
    }
    std::string series;
    const std::string prom = telemetry::to_prometheus(world.net.telemetry().registry());
    for (std::size_t at = 0; at < prom.size();) {
        const std::size_t eol = prom.find('\n', at);
        const std::string line = prom.substr(at, eol - at);
        if (line.find("pimlib_tree_") != std::string::npos ||
            line.find("pimlib_watchdog_") != std::string::npos) {
            series += line + '\n';
        }
        at = eol + 1;
    }
    std::string violations;
    for (const check::WatchdogViolation& v : watchdog.violations()) {
        violations += std::to_string(v.at) + ' ' + v.watchdog + ' ' + v.node + ' ' + v.group +
                      ' ' + v.detail + '\n' + v.postmortem_summary + '\n' +
                      v.postmortem_json;
    }
    std::uint64_t digest = 0xcbf29ce484222325ull;
    digest = fnv1a(digest, passes);
    digest = fnv1a(digest, series);
    digest = fnv1a(digest, violations);
    digest = fnv1a(digest, watchdog.dump());
    digest = fnv1a(digest, std::to_string(watchdog.entries_scanned()) + ' ' +
                               std::to_string(watchdog.violations().size()));
    return digest;
}

TEST(ObserverGolden, PentagonMonitorAndWatchdogUnchanged) {
    struct Golden {
        const char* protocol;
        const char* mutation;
        std::uint64_t digest;
    };
    const Golden golden[] = {
        {"pim-sm", "", 1288985307241153463ull},
        {"pim-dm", "", 16197388204513542262ull},
        {"dvmrp", "", 16197388204513542262ull},
        {"cbt", "", 16151129751163224447ull},
        {"mospf", "", 14579858987664924111ull},
        {"pim-sm", "skip-spt-bit-handshake", 9760450973122625305ull},
    };
    for (std::size_t i = 0; i < scenario::kStackProtocols.size(); ++i) {
        EXPECT_EQ(golden[i].protocol, std::string(scenario::kStackProtocols[i].name));
    }
    for (const Golden& g : golden) {
        SCOPED_TRACE(std::string(g.protocol) + " " + g.mutation);
        EXPECT_EQ(observer_digest(g.protocol, g.mutation), g.digest);
    }
}

} // namespace
} // namespace pimlib::test
