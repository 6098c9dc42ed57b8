// Online watchdog tests. The headline scenario: the seeded
// skip-spt-bit-handshake mutation (prune the shared-tree arm before SPT
// data arrives, §3.3) must be caught by the lan-delivery watchdog during
// an ordinary simulation run — no state-space checker involved — with a
// provenance post-mortem attached to the violation. The same run without
// the mutation stays quiet, and set_loss_expected() disarms the gap
// detector for scripts that inject loss on purpose.
#include <gtest/gtest.h>

#include <memory>

#include "check/watchdog.hpp"
#include "provenance/provenance.hpp"
#include "scenario/stacks.hpp"
#include "test_util.hpp"

namespace pimlib::test {
namespace {

/// The walkthrough pentagon (test_util.hpp) with the provenance recorder
/// and the watchdogs armed. The ~20 ms switchover window is where the
/// mutation deterministically loses packets.
struct PentagonWorld : WalkthroughPentagon {
    std::unique_ptr<provenance::Recorder> recorder;
    std::unique_ptr<scenario::PimSmStack> stack;
    std::unique_ptr<check::Watchdog> watchdog;

    explicit PentagonWorld(bool mutate) {
        recorder = std::make_unique<provenance::Recorder>();
        net.set_provenance(recorder.get());

        scenario::StackConfig cfg = fast_config();
        cfg.pim.mutate_skip_spt_bit_handshake = mutate;
        stack = std::make_unique<scenario::PimSmStack>(net, cfg);
        stack->set_rp(kGroup, {builder.router("C").router_id()});
        stack->set_spt_policy(pim::SptPolicy::immediate());

        watchdog = std::make_unique<check::Watchdog>(
            net, [this](const topo::Router& r) { return stack->cache_of(r); });
        watchdog->set_recorder(recorder.get());
        watchdog->start();
    }

    /// Joins, one 12-packet burst through register + switchover, then
    /// enough quiet time for the gap grace window to expire.
    void run() {
        net.run_for(120 * sim::kMillisecond);
        stack->host_agent(builder.host("receiver")).join(kGroup);
        net.run_for(10 * sim::kMillisecond);
        stack->host_agent(builder.host("viewer")).join(kGroup);
        builder.host("source").send_stream(kGroup, 12, 10 * sim::kMillisecond,
                                           120 * sim::kMillisecond);
        net.run_for(1200 * sim::kMillisecond);
    }
};

TEST(Watchdog, CatchesSkipSptBitHandshakeInOrdinaryRun) {
    PentagonWorld world(/*mutate=*/true);
    world.run();

    const auto& violations = world.watchdog->violations();
    ASSERT_FALSE(violations.empty())
        << "the lan-delivery watchdog missed the switchover-window loss";
    const check::WatchdogViolation& v = violations.front();
    EXPECT_EQ(v.watchdog, "lan-delivery");
    EXPECT_NE(v.detail.find("never received seq(s)"), std::string::npos)
        << v.detail;
    // The provenance post-mortem rode along: the full flight-recorder JSON
    // for a first finding, so the loss is diagnosable without a rerun.
    EXPECT_FALSE(v.postmortem_json.empty());
    EXPECT_NE(v.postmortem_json.find("\"records\""), std::string::npos);

    // The violation also surfaced through the metrics registry and hub.
    EXPECT_GE(world.net.telemetry()
                  .registry()
                  .counter("pimlib_watchdog_violations_total",
                           {{"watchdog", "lan-delivery"}})
                  .value(),
              1u);
}

TEST(Watchdog, CleanRunStaysQuiet) {
    PentagonWorld world(/*mutate=*/false);
    world.run();
    EXPECT_TRUE(world.watchdog->violations().empty())
        << world.watchdog->dump();
    EXPECT_GT(world.watchdog->entries_scanned(), 0u);
}

TEST(Watchdog, LossExpectedDisarmsGapDetector) {
    PentagonWorld world(/*mutate=*/true);
    world.watchdog->set_loss_expected(true);
    world.run();
    EXPECT_TRUE(world.watchdog->violations().empty())
        << world.watchdog->dump();
}

} // namespace
} // namespace pimlib::test
