// Unit tests for the discrete-event simulation kernel, including the
// lifetime and allocation rules of the in-place event action.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "sim/simulator.hpp"

namespace pimlib::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&] { order.push_back(3); });
    sim.schedule(10, [&] { order.push_back(1); });
    sim.schedule(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, EqualTimesFireInSchedulingOrder) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule(5, [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CancelRemovesEvent) {
    Simulator sim;
    bool fired = false;
    EventId id = sim.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.cancel(id)); // second cancel is a no-op
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, CancelNullIdIsNoop) {
    Simulator sim;
    EXPECT_FALSE(sim.cancel(EventId{}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
    Simulator sim;
    int count = 0;
    sim.schedule(10, [&] { ++count; });
    sim.schedule(20, [&] { ++count; });
    sim.schedule(30, [&] { ++count; });
    EXPECT_EQ(sim.run_until(20), 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(sim.now(), 20);
    EXPECT_EQ(sim.pending(), 1u);
    sim.run_until(100);
    EXPECT_EQ(count, 3);
    EXPECT_EQ(sim.now(), 100); // clock advances to the deadline
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
    Simulator sim;
    std::vector<Time> fire_times;
    sim.schedule(10, [&] {
        fire_times.push_back(sim.now());
        sim.schedule(5, [&] { fire_times.push_back(sim.now()); });
    });
    sim.run();
    EXPECT_EQ(fire_times, (std::vector<Time>{10, 15}));
}

TEST(Simulator, NegativeDelayClampsToNow) {
    Simulator sim;
    sim.schedule(10, [&] {
        sim.schedule(-5, [&] { EXPECT_EQ(sim.now(), 10); });
    });
    sim.run();
}

TEST(PeriodicTimer, FiresEveryPeriod) {
    Simulator sim;
    std::vector<Time> fires;
    PeriodicTimer timer(sim, [&] { fires.push_back(sim.now()); });
    timer.start(10);
    sim.run_until(35);
    EXPECT_EQ(fires, (std::vector<Time>{10, 20, 30}));
}

TEST(PeriodicTimer, StopPreventsFurtherFires) {
    Simulator sim;
    int count = 0;
    PeriodicTimer timer(sim, [&] { ++count; });
    timer.start(10);
    sim.schedule(25, [&] { timer.stop(); });
    sim.run_until(100);
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, CallbackCanStopItself) {
    Simulator sim;
    int count = 0;
    PeriodicTimer timer(sim, [&] {
        if (++count == 3) timer.stop();
    });
    timer.start(5);
    sim.run_until(1000);
    EXPECT_EQ(count, 3);
}

TEST(PeriodicTimer, RestartResetsPhase) {
    Simulator sim;
    std::vector<Time> fires;
    PeriodicTimer timer(sim, [&] { fires.push_back(sim.now()); });
    timer.start(10);
    sim.schedule(15, [&] { timer.start(10); });
    sim.run_until(40);
    EXPECT_EQ(fires, (std::vector<Time>{10, 25, 35}));
}

TEST(OneshotTimer, FiresOnce) {
    Simulator sim;
    int count = 0;
    OneshotTimer timer(sim, [&] { ++count; });
    timer.arm(10);
    EXPECT_TRUE(timer.armed());
    EXPECT_EQ(timer.deadline(), 10);
    sim.run_until(100);
    EXPECT_EQ(count, 1);
    EXPECT_FALSE(timer.armed());
}

TEST(OneshotTimer, RearmReplacesDeadline) {
    Simulator sim;
    std::vector<Time> fires;
    OneshotTimer timer(sim, [&] { fires.push_back(sim.now()); });
    timer.arm(10);
    sim.schedule(5, [&] { timer.arm(20); }); // push deadline to 25
    sim.run_until(100);
    EXPECT_EQ(fires, (std::vector<Time>{25}));
}

TEST(OneshotTimer, CancelPreventsFire) {
    Simulator sim;
    bool fired = false;
    OneshotTimer timer(sim, [&] { fired = true; });
    timer.arm(10);
    timer.cancel();
    sim.run_until(100);
    EXPECT_FALSE(fired);
}

TEST(Simulator, DestructorOfTimerCancels) {
    Simulator sim;
    bool fired = false;
    {
        OneshotTimer timer(sim, [&] { fired = true; });
        timer.arm(10);
    }
    sim.run_until(100);
    EXPECT_FALSE(fired);
}

// --- EventId identity semantics ---
//
// Cancellation is keyed on (time, seq), so an id stays bound to exactly the
// event it named: it goes dead once that event fires, and can never alias a
// later event — even one scheduled for the same instant.

TEST(Simulator, CancelAfterFireReturnsFalse) {
    Simulator sim;
    int fires = 0;
    const EventId id = sim.schedule(10, [&] { ++fires; });
    sim.run_until(50);
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(sim.cancel(id));
    sim.run_until(100);
    EXPECT_EQ(fires, 1);
}

TEST(Simulator, StaleIdDoesNotCancelRescheduledEvent) {
    Simulator sim;
    bool first = false;
    bool second = false;
    const EventId id = sim.schedule_at(10, [&] { first = true; });
    EXPECT_TRUE(sim.cancel(id));
    // Re-schedule a replacement at the very same instant; the dead id must
    // not reach it (fresh seq), and double-cancel stays a no-op.
    sim.schedule_at(10, [&] { second = true; });
    EXPECT_FALSE(sim.cancel(id));
    sim.run_until(50);
    EXPECT_FALSE(first);
    EXPECT_TRUE(second);
}

TEST(Simulator, CancelAcrossRescheduleOnlyRemovesNamedEvent) {
    Simulator sim;
    std::string log;
    sim.schedule_at(10, [&] { log += 'a'; });
    const EventId b = sim.schedule_at(10, [&] { log += 'b'; });
    sim.schedule_at(10, [&] { log += 'c'; });
    EXPECT_TRUE(sim.cancel(b));
    sim.run_until(50);
    EXPECT_EQ(log, "ac");
}

// --- ChoicePoint hooks ---

/// Always picks the last alternative; records every consultation.
class LastPicker final : public ChoiceSource {
public:
    std::size_t choose(std::size_t n, ChoicePoint point) override {
        consulted.push_back({point.kind, n});
        return n - 1;
    }
    std::vector<std::pair<ChoicePoint::Kind, std::size_t>> consulted;
};

TEST(Simulator, ChoiceSourcePermutesSameTimeEvents) {
    Simulator sim;
    LastPicker picker;
    sim.set_choice_source(&picker);
    std::string log;
    sim.schedule_at(10, [&] { log += 'a'; });
    sim.schedule_at(10, [&] { log += 'b'; });
    sim.schedule_at(10, [&] { log += 'c'; });
    sim.schedule_at(20, [&] { log += 'd'; });
    sim.run_until(50);
    // Picking "last" each round reverses the batch; the lone event at t=20
    // never consults the source.
    EXPECT_EQ(log, "cbad");
    ASSERT_EQ(picker.consulted.size(), 2u);
    EXPECT_EQ(picker.consulted[0], std::make_pair(ChoicePoint::Kind::kEventOrder,
                                                  std::size_t{3}));
    EXPECT_EQ(picker.consulted[1], std::make_pair(ChoicePoint::Kind::kEventOrder,
                                                  std::size_t{2}));
    sim.set_choice_source(nullptr);
}

TEST(Simulator, OutOfRangeChoiceFallsBackToFirst) {
    class Wild final : public ChoiceSource {
    public:
        std::size_t choose(std::size_t n, ChoicePoint) override { return n + 7; }
    };
    Simulator sim;
    Wild wild;
    sim.set_choice_source(&wild);
    std::string log;
    sim.schedule_at(10, [&] { log += 'a'; });
    sim.schedule_at(10, [&] { log += 'b'; });
    sim.run_until(50);
    EXPECT_EQ(log, "ab");
}

TEST(Simulator, ClearingChoiceSourceRestoresSchedulingOrder) {
    Simulator sim;
    LastPicker picker;
    sim.set_choice_source(&picker);
    sim.set_choice_source(nullptr);
    std::string log;
    sim.schedule_at(10, [&] { log += 'a'; });
    sim.schedule_at(10, [&] { log += 'b'; });
    sim.run_until(50);
    EXPECT_EQ(log, "ab");
    EXPECT_TRUE(picker.consulted.empty());
}

// --- the in-place action --------------------------------------------------

/// A capture that counts its own destruction. Moved-from copies are not
/// counted, so `destroyed` tells how often the live capture died.
struct DropCounter {
    int* destroyed;
    bool live = true;
    explicit DropCounter(int* d) : destroyed(d) {}
    DropCounter(DropCounter&& other) noexcept : destroyed(other.destroyed), live(other.live) {
        other.live = false;
    }
    DropCounter(const DropCounter& other) = default;
    ~DropCounter() {
        if (live) ++*destroyed;
    }
};

TEST(InplaceAction, CaptureIsDestroyedOnceWhenItFires) {
    Simulator sim;
    int destroyed = 0;
    int destroyed_while_running = -1;
    sim.schedule(10, [counter = DropCounter{&destroyed}, &destroyed, &destroyed_while_running] {
        destroyed_while_running = destroyed;
    });
    EXPECT_EQ(destroyed, 0);
    sim.run();
    EXPECT_EQ(destroyed_while_running, 0); // alive while it runs
    EXPECT_EQ(destroyed, 1);
}

TEST(InplaceAction, CaptureIsDestroyedWhenCancelled) {
    Simulator sim;
    int destroyed = 0;
    const EventId id = sim.schedule(10, [counter = DropCounter{&destroyed}] {});
    EXPECT_EQ(destroyed, 0);
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_EQ(destroyed, 1); // at the cancel, not when the slot is swept
    sim.run();
    EXPECT_EQ(destroyed, 1);
}

TEST(InplaceAction, CaptureCancelledInsideItsBatchIsDestroyedAtTheCancel) {
    Simulator sim;
    int destroyed = 0;
    EventId victim;
    sim.schedule_at(10, [&] {
        EXPECT_TRUE(sim.cancel(victim));
        EXPECT_EQ(destroyed, 1);
    });
    victim = sim.schedule_at(10, [counter = DropCounter{&destroyed}] { ADD_FAILURE(); });
    sim.run();
    EXPECT_EQ(destroyed, 1);
}

TEST(InplaceAction, PendingCaptureIsDestroyedWithTheSimulator) {
    int destroyed = 0;
    {
        Simulator sim;
        sim.schedule(10, [counter = DropCounter{&destroyed}] {});
        sim.schedule(sim::kSecond * 86400 * 30, [counter = DropCounter{&destroyed}] {});
        sim.run_until(5);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 2);
}

TEST(InplaceAction, LargeCaptureFiresAndIsFreed) {
    Simulator sim;
    int destroyed = 0;
    std::array<int, 16> big{};
    big[15] = 42;
    int seen = 0;
    auto action = [big, counter = DropCounter{&destroyed}, &seen] { seen = big[15]; };
    static_assert(!InplaceAction::kStoredInline<decltype(action)>);
    sim.schedule(10, std::move(action));
    sim.run();
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(destroyed, 1);

    // Cancelled before it runs, a heap-held capture is freed too.
    sim.cancel(sim.schedule(10, [big, counter = DropCounter{&destroyed}] {}));
    EXPECT_EQ(destroyed, 2);
}

TEST(InplaceAction, SmallCaptureSchedulesWithoutAllocating) {
    struct Owner {
        Simulator sim;
        int hits = 0;
        void hit(const int* p) { hits += *p; }
    } owner;
    const int one = 1;
    const int* ptr = &one;
    const auto action = [self = &owner, ptr] { self->hit(ptr); };
    static_assert(InplaceAction::kStoredInline<decltype(action)>);
    auto schedule = [&] { owner.sim.schedule(10, action); };
    schedule(); // grows the node pool and the batch vector once
    owner.sim.run();

    const std::uint64_t before = pimlib::test::g_alloc_count.load();
    for (int i = 0; i < 100; ++i) {
        schedule();
        owner.sim.run();
    }
    EXPECT_EQ(pimlib::test::g_alloc_count.load() - before, 0u);
    EXPECT_EQ(owner.hits, 101);
}

TEST(InplaceAction, RunningEventCannotCancelItself) {
    Simulator sim;
    EventId self;
    bool cancelled = true;
    self = sim.schedule(10, [&] { cancelled = sim.cancel(self); });
    sim.run();
    EXPECT_FALSE(cancelled);
    EXPECT_EQ(sim.executed(), 1u);
}

TEST(InplaceAction, SameInstantEventFromRunningActionJoinsTheBatchInSeqOrder) {
    Simulator sim;
    std::string log;
    sim.schedule_at(10, [&] {
        log += 'a';
        sim.schedule(0, [&] { log += 'c'; });
    });
    sim.schedule_at(10, [&] { log += 'b'; });
    sim.run();
    EXPECT_EQ(log, "abc"); // c's seq is after b's

    // With a choice source, the new event is one more contender, last in
    // seq order.
    class FirstPicker final : public ChoiceSource {
    public:
        std::size_t choose(std::size_t n, ChoicePoint) override {
            consulted.push_back(n);
            return 0;
        }
        std::vector<std::size_t> consulted;
    } picker;
    sim.set_choice_source(&picker);
    log.clear();
    sim.schedule_at(20, [&] {
        log += 'a';
        sim.schedule(0, [&] { log += 'c'; });
    });
    sim.schedule_at(20, [&] { log += 'b'; });
    sim.schedule_at(20, [&] { log += 'd'; });
    sim.run();
    EXPECT_EQ(log, "abdc");
    EXPECT_EQ(picker.consulted, (std::vector<std::size_t>{3, 3, 2}));
    sim.set_choice_source(nullptr);
}

} // namespace
} // namespace pimlib::sim
