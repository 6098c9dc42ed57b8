// Direct tests of the hierarchical timing wheel (sim/timer_wheel.hpp):
// cascade boundaries, far-future overflow, cancel/reschedule storms against
// a reference model, batch ordering, and node-reuse handle safety. The
// Simulator-level semantics these support (ChoiceSource interleavings,
// EventId lifetimes) are covered in sim_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"

namespace pimlib::sim {
namespace {

/// Schedules an action that records its tag; tests patch in the fire time
/// (or track it separately) as they drain.
TimerWheel::Node* push_marker(TimerWheel& wheel, Time at, std::uint64_t seq,
                              std::vector<std::pair<Time, int>>& out, int tag) {
    return wheel.schedule(at, seq, [&out, tag] { out.push_back({-1, tag}); });
}

TEST(TimerWheel, FiresAcrossEveryCascadeBoundary) {
    // One event just below and one just above each level boundary: 256^1,
    // 256^2, 256^3, 256^4. All must fire, in time order, at exact times.
    TimerWheel wheel;
    std::vector<std::pair<Time, int>> fired;
    std::vector<Time> times;
    std::uint64_t seq = 1;
    int tag = 0;
    for (int level = 1; level < TimerWheel::kLevels; ++level) {
        const Time boundary = Time{1} << (TimerWheel::kSlotBits * level);
        for (Time t : {boundary - 1, boundary, boundary + 1}) {
            times.push_back(t);
            push_marker(wheel, t, seq++, fired, tag++);
        }
    }
    EXPECT_EQ(wheel.size(), times.size());

    Time at = 0;
    std::vector<Time> fire_times;
    while (wheel.next_time(&at)) {
        wheel.open_batch(at);
        while (wheel.batch_live() > 0) {
            wheel.fire(0);
            fire_times.push_back(at);
        }
    }
    EXPECT_EQ(fire_times, times); // already ascending by construction
    EXPECT_EQ(fired.size(), times.size());
    EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, FarFutureOverflowBeyondHorizonFires) {
    // The wheel horizon is 256^kLevels ticks (~2^40 us). Deadlines beyond it
    // live in the overflow map and must still fire exactly, in order, after
    // migrating in as the base advances.
    constexpr Time kHorizon = Time{1} << (TimerWheel::kSlotBits * TimerWheel::kLevels);
    TimerWheel wheel;
    std::vector<std::pair<Time, int>> fired;
    const std::vector<Time> times = {
        5,                // inside level 0
        kHorizon - 1,     // last representable wheel instant
        kHorizon,         // first overflow instant
        kHorizon + 12345, // deep overflow
        3 * kHorizon + 7, // several horizons out
    };
    std::uint64_t seq = 1;
    for (Time t : times) {
        push_marker(wheel, t, seq, fired, static_cast<int>(seq + 1));
        ++seq;
    }
    EXPECT_EQ(wheel.size(), times.size());

    Time at = 0;
    std::vector<Time> fire_times;
    while (wheel.next_time(&at)) {
        wheel.open_batch(at);
        while (wheel.batch_live() > 0) {
            wheel.fire(0);
            fire_times.push_back(at);
        }
    }
    EXPECT_EQ(fire_times, times);
    EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, CancelFromWheelOverflowAndBatch) {
    constexpr Time kHorizon = Time{1} << (TimerWheel::kSlotBits * TimerWheel::kLevels);
    TimerWheel wheel;
    std::vector<std::pair<Time, int>> fired;

    auto* near = push_marker(wheel, 10, 1, fired, 1);
    auto* far = push_marker(wheel, kHorizon + 99, 2, fired, 2);
    EXPECT_TRUE(wheel.cancel(near, 1));
    EXPECT_FALSE(wheel.cancel(near, 1)); // second cancel is a no-op
    EXPECT_TRUE(wheel.cancel(far, 2));
    EXPECT_EQ(wheel.size(), 0u);
    Time at = 0;
    EXPECT_FALSE(wheel.next_time(&at));

    // Cancelling an event that is already in the open batch (scheduled for
    // the draining instant) must also work and must shrink batch_live.
    push_marker(wheel, 20, 3, fired, 3);
    ASSERT_TRUE(wheel.next_time(&at));
    EXPECT_EQ(at, 20);
    wheel.open_batch(at);
    auto* late = push_marker(wheel, 20, 4, fired, 4); // joins the open batch
    EXPECT_EQ(wheel.batch_live(), 2u);
    EXPECT_TRUE(wheel.cancel(late, 4));
    EXPECT_EQ(wheel.batch_live(), 1u);
    wheel.fire(0);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].second, 3);
    EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, StaleHandleNeverCancelsReusedNode) {
    TimerWheel wheel;
    std::vector<std::pair<Time, int>> fired;
    auto* node = push_marker(wheel, 1, 1, fired, 1);
    ASSERT_TRUE(wheel.cancel(node, 1));
    // The pool reuses the node for the next schedule; the stale (node, seq=1)
    // pair must not touch the new event.
    auto* reused = push_marker(wheel, 2, 2, fired, 2);
    EXPECT_EQ(reused, node) << "pool should recycle the freed node";
    EXPECT_FALSE(wheel.cancel(node, 1));
    EXPECT_EQ(wheel.size(), 1u);
    Time at = 0;
    ASSERT_TRUE(wheel.next_time(&at));
    wheel.open_batch(at);
    wheel.fire(0);
    EXPECT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].second, 2);
}

TEST(TimerWheel, SameInstantBatchSurfacesInSeqOrderAndTakesByIndex) {
    // One instant reached, in increasing seq, from every place a node can
    // come from: two overflow filings, then level 2, level 1, a direct
    // level-0 filing and a join while the batch drains. Helper events move
    // the wheel position between the filings. Each slot list must stay
    // seq-ascending on its own: a top-down cascade, an ascending overflow
    // migration or a filing pushed at the head of its slot breaks the order.
    constexpr Time kHorizon = Time{1} << (TimerWheel::kSlotBits * TimerWheel::kLevels);
    constexpr Time kT = kHorizon + 5; // a multiple of 256^2 plus 5
    TimerWheel wheel;
    std::vector<std::pair<Time, int>> fired;
    std::uint64_t seq = 1;
    auto drain_to = [&](Time helper) {
        push_marker(wheel, helper, seq++, fired, -1);
        Time at = 0;
        ASSERT_TRUE(wheel.next_time(&at));
        ASSERT_EQ(at, helper);
        wheel.open_batch(at);
        ASSERT_EQ(wheel.batch_live(), 1u);
        wheel.fire(0);
    };

    push_marker(wheel, kT, seq++, fired, 1); // overflow
    push_marker(wheel, kT, seq++, fired, 2); // overflow
    drain_to(kT - (Time{1} << 20));          // both migrate, to level 4
    push_marker(wheel, kT, seq++, fired, 3); // level 2
    drain_to(kT - 1000);
    push_marker(wheel, kT, seq++, fired, 4); // level 1
    drain_to(kT - 4); // one roll cascades levels 1, 2 and 4 into one slot
    push_marker(wheel, kT, seq++, fired, 5); // level 0
    EXPECT_EQ(wheel.stats().overflow_migrations, 2u);

    Time at = 0;
    ASSERT_TRUE(wheel.next_time(&at));
    EXPECT_EQ(at, kT);
    wheel.open_batch(at);
    ASSERT_EQ(wheel.batch_live(), 5u);
    push_marker(wheel, kT, seq++, fired, 6); // joins the open batch
    ASSERT_EQ(wheel.batch_live(), 6u);
    // fire(1) of live {1..6} is 2; fire(1) of {1,3,4,5,6} is 3; then the
    // rest in order.
    wheel.fire(1);
    wheel.fire(1);
    while (wheel.batch_live() > 0) wheel.fire(0);
    std::vector<int> tags;
    for (auto& [t, tag] : fired) {
        if (tag > 0) tags.push_back(tag);
    }
    EXPECT_EQ(tags, (std::vector<int>{2, 3, 1, 4, 5, 6}));
    EXPECT_EQ(wheel.size(), 0u);
}

// Randomized storm against a reference model: thousands of interleaved
// schedule/cancel/reschedule operations with deadlines spanning all levels
// and the overflow map must fire exactly the surviving events, in (time,
// seq) order. This is the workload shape the soft-state protocols generate
// (every refresh is a cancel + reschedule). A quarter of the schedules reuse
// the deadline of a pending event, so instants gather nodes filed from
// different levels and the overflow map; while a batch drains, events join
// it and batch members are cancelled. Every opened batch must hold exactly
// the instant's surviving events and fire them in seq order.
TEST(TimerWheel, CancelRescheduleStormMatchesReferenceModel) {
    TimerWheel wheel;
    std::mt19937 rng(20260807);
    constexpr Time kHorizon = Time{1} << (TimerWheel::kSlotBits * TimerWheel::kLevels);
    std::uniform_int_distribution<int> op(0, 99);
    // Mixed magnitudes so every level (and overflow) sees traffic.
    auto rand_delay = [&]() -> Time {
        switch (op(rng) % 5) {
        case 0: return std::uniform_int_distribution<Time>(0, 255)(rng);
        case 1: return std::uniform_int_distribution<Time>(256, 65535)(rng);
        case 2: return std::uniform_int_distribution<Time>(65536, 1 << 24)(rng);
        case 3: return std::uniform_int_distribution<Time>(1 << 24, kHorizon - 1)(rng);
        default:
            return std::uniform_int_distribution<Time>(kHorizon, 2 * kHorizon)(rng);
        }
    };

    struct Live {
        TimerWheel::Node* node;
        std::uint64_t seq;
    };
    std::vector<Live> live;
    std::map<std::uint64_t, Time> expected; // seq -> time, for surviving events
    std::vector<std::pair<Time, std::uint64_t>> fired;
    std::uint64_t next_seq = 1;
    Time now = 0;

    std::uniform_int_distribution<int> quarter(0, 3);
    auto schedule_at = [&](Time at) {
        const std::uint64_t seq = next_seq++;
        TimerWheel::Node* node =
            wheel.schedule(at, seq, [&fired, seq] { fired.push_back({0, seq}); });
        live.push_back(Live{node, seq});
        expected[seq] = at;
    };
    auto schedule_one = [&] {
        if (!live.empty() && quarter(rng) == 0) {
            const std::size_t k =
                std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng);
            schedule_at(expected[live[k].seq]);
        } else {
            schedule_at(now + rand_delay());
        }
    };
    auto cancel_live = [&](std::size_t k) {
        const Live victim = live[k];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        EXPECT_TRUE(wheel.cancel(victim.node, victim.seq));
        EXPECT_FALSE(wheel.cancel(victim.node, victim.seq));
        expected.erase(victim.seq);
    };
    // Drains the open batch at `at` with fire(0), checking it against the
    // model and mixing in joins and cancellations of batch members.
    auto drain_batch = [&](Time at) {
        const auto due = static_cast<std::size_t>(std::count_if(
            expected.begin(), expected.end(), [at](const auto& e) { return e.second == at; }));
        EXPECT_EQ(wheel.batch_live(), due) << "batch at " << at << " is not the whole instant";
        std::uint64_t last = 0;
        while (wheel.batch_live() > 0) {
            wheel.fire(0);
            ASSERT_FALSE(fired.empty());
            fired.back().first = at;
            const std::uint64_t seq = fired.back().second;
            EXPECT_GT(seq, last) << "batch at " << at << " out of seq order";
            last = seq;
            ASSERT_TRUE(expected.contains(seq));
            EXPECT_EQ(expected[seq], at) << "event fired at the wrong time";
            expected.erase(seq);
            std::erase_if(live, [seq](const Live& l) { return l.seq == seq; });
            switch (op(rng) % 8) {
            case 0: schedule_at(at); break; // joins the batch
            case 1: {
                const auto it = std::find_if(live.begin(), live.end(), [&](const Live& l) {
                    return expected[l.seq] == at;
                });
                if (it != live.end()) cancel_live(static_cast<std::size_t>(it - live.begin()));
                break;
            }
            default: break;
            }
        }
    };

    for (int round = 0; round < 200; ++round) {
        // A burst of operations...
        for (int i = 0; i < 50; ++i) {
            const int r = op(rng);
            if (r < 60 || live.empty()) {
                schedule_one();
            } else {
                // Cancel a random live event; half the time reschedule it
                // (the soft-state refresh pattern).
                cancel_live(
                    std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng));
                if (r < 80) schedule_one();
            }
        }
        EXPECT_EQ(wheel.size(), expected.size());
        // ...then drain a bounded slice of time, exactly as run_until does:
        // the limit keeps the wheel position from overshooting slice_end, so
        // the next round's schedules (at >= slice_end) file correctly.
        const Time slice_end = now + rand_delay();
        Time at = 0;
        while (wheel.next_time(&at, slice_end)) {
            wheel.open_batch(at);
            now = at;
            drain_batch(at);
        }
        now = std::max(now, slice_end);
    }

    // Drain the remainder; every surviving event must fire at its exact
    // deadline, in nondecreasing time order with seq as tiebreak.
    Time at = 0;
    while (wheel.next_time(&at)) {
        wheel.open_batch(at);
        now = at;
        drain_batch(at);
    }
    EXPECT_TRUE(expected.empty()) << expected.size() << " events never fired";
    EXPECT_EQ(wheel.size(), 0u);
    for (std::size_t i = 1; i < fired.size(); ++i) {
        EXPECT_LE(fired[i - 1].first, fired[i].first) << "time order violated at " << i;
        if (fired[i - 1].first == fired[i].first) {
            EXPECT_LT(fired[i - 1].second, fired[i].second)
                << "seq order violated within instant";
        }
    }
}

// Same-tick ordering through the full Simulator + ChoiceSource stack: with
// many events at one instant spread across wheel levels beforehand, the
// choice source must still see the complete batch and drive the order.
TEST(TimerWheelSimulator, ChoiceSourceOrdersCrossLevelSameInstantBatch) {
    class ReverseChoice final : public ChoiceSource {
    public:
        std::size_t choose(std::size_t n, ChoicePoint) override {
            ++consults;
            return n - 1; // always pick the newest (highest seq)
        }
        int consults = 0;
    };

    Simulator sim;
    ReverseChoice choice;
    sim.set_choice_source(&choice);
    std::string log;
    // Same deadline reached via different current levels: scheduled at
    // different times (so they home into different wheels) but due together.
    sim.schedule_at(70000, [&] { log += 'a'; }); // level 1 from t=0
    sim.run_until(69000);
    sim.schedule_at(70000, [&] { log += 'b'; }); // level 1, later rotation
    sim.run_until(69999);
    sim.schedule_at(70000, [&] { log += 'c'; }); // level 0
    sim.run_until(80000);
    // ReverseChoice pops highest-seq first: c, then b, then a (the final
    // pop of a 1-element batch consults nothing).
    EXPECT_EQ(log, "cba");
    EXPECT_EQ(choice.consults, 2);
    EXPECT_EQ(sim.pending(), 0u);
}

// Regression: a bounded run whose next pending event lies far in the future
// must not advance the wheel position past the deadline — otherwise an event
// scheduled afterwards, between the deadline and that far event, would be
// misfiled and fire at the wrong time.
TEST(TimerWheelSimulator, ScheduleAfterBoundedRunWithFarPendingEventFiresOnTime) {
    Simulator sim;
    std::vector<std::pair<Time, int>> fired;
    sim.schedule_at(600'000, [&] { fired.push_back({sim.now(), 1}); });
    sim.run_until(300'000); // wheel must stay at or below 300'000
    EXPECT_EQ(sim.now(), 300'000);
    sim.schedule_at(310'000, [&] { fired.push_back({sim.now(), 2}); });
    sim.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], (std::pair<Time, int>{310'000, 2}));
    EXPECT_EQ(fired[1], (std::pair<Time, int>{600'000, 1}));
}

TEST(TimerWheelSimulator, MillionEntryRefreshChurnStaysConsistent) {
    // A compact end-to-end smoke of the scale story: 100k entries (CI-sized
    // stand-in for 1M; the bench covers the full sweep) each rescheduled
    // once, then everything drains.
    Simulator sim;
    constexpr int kEntries = 100'000;
    std::vector<EventId> ids;
    ids.reserve(kEntries);
    int fired = 0;
    for (int i = 0; i < kEntries; ++i) {
        ids.push_back(sim.schedule(1000 + (i % 977) * 13, [&fired] { ++fired; }));
    }
    // Refresh: cancel + reschedule later, the soft-state pattern.
    for (int i = 0; i < kEntries; ++i) {
        ASSERT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
        ids[static_cast<std::size_t>(i)] =
            sim.schedule(20'000 + (i % 977) * 13, [&fired] { ++fired; });
    }
    EXPECT_EQ(sim.pending(), static_cast<std::size_t>(kEntries));
    sim.run();
    EXPECT_EQ(fired, kEntries);
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(TimerWheelStats, TracksOccupancyCascadesAndOverflow) {
    TimerWheel wheel;
    std::vector<std::pair<Time, int>> fired;
    std::uint64_t seq = 1;

    // Empty wheel: everything zero.
    TimerWheel::Stats s = wheel.stats();
    EXPECT_EQ(s.pending, 0u);
    EXPECT_EQ(s.cascades, 0u);
    EXPECT_EQ(s.overflow_events, 0u);

    // Three level-0 events in distinct slots, one level-1, one beyond the
    // 2^40 horizon.
    push_marker(wheel, 1, seq++, fired, 0);
    push_marker(wheel, 2, seq++, fired, 1);
    push_marker(wheel, 3, seq++, fired, 2);
    const Time level1 = TimerWheel::kSlots + 5; // one cascade away
    push_marker(wheel, level1, seq++, fired, 3);
    // A full horizon past the drain point, so it stays in overflow even
    // after the wheel's base advances below.
    const Time beyond = Time{2} << (TimerWheel::kSlotBits * TimerWheel::kLevels);
    push_marker(wheel, beyond + 7, seq++, fired, 4);

    s = wheel.stats();
    EXPECT_EQ(s.pending, 5u);
    EXPECT_EQ(s.pending, wheel.size());
    EXPECT_EQ(s.level_events[0], 3u);
    EXPECT_EQ(s.occupied_slots[0], 3);
    EXPECT_EQ(s.level_events[1], 1u);
    EXPECT_EQ(s.occupied_slots[1], 1);
    EXPECT_EQ(s.overflow_events, 1u);
    EXPECT_EQ(s.cascades, 0u);

    // Drain up to the level-1 event: its slot must cascade down, and the
    // cumulative counters must record exactly that one re-homing.
    Time at = 0;
    while (wheel.next_time(&at, level1)) {
        wheel.open_batch(at);
        while (wheel.batch_live() > 0) wheel.fire(0);
    }
    s = wheel.stats();
    EXPECT_EQ(s.pending, 1u);
    EXPECT_EQ(s.cascades, 1u);
    EXPECT_EQ(s.cascaded_nodes, 1u);
    EXPECT_EQ(s.level_events[0], 0u);
    EXPECT_EQ(s.level_events[1], 0u);
    EXPECT_EQ(s.overflow_events, 1u) << "far event still beyond the horizon";
    EXPECT_EQ(s.overflow_migrations, 0u);
    EXPECT_EQ(fired.size(), 4u);
}

} // namespace
} // namespace pimlib::sim
