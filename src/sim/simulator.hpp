// Discrete-event simulation kernel: a virtual clock, a hierarchical
// timing-wheel event store, and cancellable timers. Deterministic: events at
// equal times fire in scheduling order. See docs/TIMERS.md for the wheel's
// performance model and the determinism contract.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "sim/time.hpp"
#include "sim/timer_wheel.hpp"

namespace pimlib::sim {

/// A labeled nondeterministic decision point. The kernel exposes the places
/// where a real network is free to behave differently from run to run —
/// which of several simultaneous events fires first, whether a frame
/// survives the wire — and src/check enumerates them. `detail` identifies
/// the site (the segment id for kFrameLoss, a scenario-defined tag for
/// kFault).
struct ChoicePoint {
    enum class Kind : std::uint8_t {
        kEventOrder, // which same-time event runs next
        kFrameLoss,  // 0 = deliver, 1 = the wire loses the frame
        kFault,      // scenario-defined fault placement (driven by src/check)
    };
    Kind kind = Kind::kEventOrder;
    int detail = 0;
    /// kFrameLoss only: true when the frame at stake carries a control
    /// message (PIM/IGMP/routing) rather than multicast data. Backward
    /// fault search keys on this — losing data cannot corrupt protocol
    /// state, losing control messages is exactly how soft state decays.
    bool control = false;
};

/// Supplies decisions at choice points. Installed by the model checker via
/// Simulator::set_choice_source; when none is installed every choice takes
/// alternative 0, which is exactly the historical deterministic behavior
/// (same-time events fire in scheduling order, no frame is dropped).
class ChoiceSource {
public:
    virtual ~ChoiceSource() = default;
    /// Picks one of `n` alternatives (n >= 2); must return a value in [0, n).
    virtual std::size_t choose(std::size_t n, ChoicePoint point) = 0;
};

/// Identifies a scheduled event so it can be cancelled. Default-constructed
/// ids are "null" and safe to cancel (no-op). An id names exactly one event
/// forever: once that event fires or is cancelled the id goes dead, and it
/// can never alias a later event — the (time, seq) pair is globally unique
/// and the wheel validates the embedded node handle against it.
class EventId {
public:
    constexpr EventId() = default;
    [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
    /// Identity is the (time, seq) pair; the node handle is a cache and
    /// deliberately excluded so comparisons stay run-to-run deterministic.
    friend constexpr bool operator==(EventId a, EventId b) {
        return a.at_ == b.at_ && a.seq_ == b.seq_;
    }

private:
    friend class Simulator;
    constexpr EventId(Time at, std::uint64_t seq, TimerWheel::Node* node)
        : at_(at), seq_(seq), node_(node) {}
    Time at_ = 0;
    std::uint64_t seq_ = 0;
    TimerWheel::Node* node_ = nullptr;
};

/// The simulation kernel. Not thread-safe; one simulator per scenario.
class Simulator {
public:
    /// Schedules `action` (any callable taking no arguments) to run `delay`
    /// after the current time. Negative delays clamp to zero (run "now",
    /// after currently queued same-time events). The action is built in its
    /// wheel node (sim::InplaceAction) and runs there.
    template <typename F>
    EventId schedule(Time delay, F&& action) {
        if (delay < 0) delay = 0;
        return schedule_at(now_ + delay, std::forward<F>(action));
    }

    /// Schedules at an absolute simulated time (must be >= now()).
    template <typename F>
    EventId schedule_at(Time when, F&& action) {
        assert(when >= now_ && "cannot schedule into the past");
        if (when < now_) when = now_;
        const std::uint64_t seq = next_seq_++;
        TimerWheel::Node* node = wheel_.schedule(when, seq, std::forward<F>(action));
        return EventId{when, seq, node};
    }

    /// Cancels a previously scheduled event; no-op if it already ran or the
    /// id is null. Returns true if an event was actually removed.
    bool cancel(EventId id);

    /// Runs events until the queue is empty or `deadline` is passed; the
    /// clock ends at min(deadline, last event time). Returns the number of
    /// events executed.
    std::size_t run_until(Time deadline);

    /// Runs until the queue drains completely.
    std::size_t run();

    /// The earliest pending event's time if it is at or before `limit`,
    /// else nullopt. Runs nothing and leaves the clock alone; the wheel
    /// position moves no further than run_until(limit) would move it before
    /// its first event.
    [[nodiscard]] std::optional<Time> next_pending(Time limit) {
        Time at = 0;
        if (!wheel_.next_time(&at, limit)) return std::nullopt;
        return at;
    }

    [[nodiscard]] Time now() const { return now_; }
    [[nodiscard]] std::size_t pending() const { return wheel_.size(); }
    [[nodiscard]] std::uint64_t executed() const { return executed_; }

    /// Read-only view of the event store, for occupancy/cascade telemetry
    /// (Hub::refresh_timer_gauges) and diagnostics.
    [[nodiscard]] const TimerWheel& wheel() const { return wheel_; }

    /// Installs (or, with nullptr, removes) the decision source consulted at
    /// choice points. The source is borrowed, not owned; it must outlive its
    /// installation.
    void set_choice_source(ChoiceSource* source) { choices_ = source; }
    [[nodiscard]] ChoiceSource* choice_source() const { return choices_; }

private:
    /// Shared body of run()/run_until(): drains same-instant batches off the
    /// wheel, letting the choice source pick among >= 2 events tied for an
    /// instant (otherwise they fire in scheduling order).
    std::size_t run_loop(Time deadline, bool bounded);

    Time now_ = 0;
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
    TimerWheel wheel_;
    ChoiceSource* choices_ = nullptr;
};

/// A periodic timer bound to a simulator. Start/stop are idempotent. The
/// callback runs every `period` until stop() or destruction (RAII: a Timer
/// cancels itself when destroyed, so protocol objects can own timers safely).
class PeriodicTimer {
public:
    PeriodicTimer(Simulator& sim, std::function<void()> on_fire)
        : sim_(&sim), on_fire_(std::move(on_fire)) {}
    ~PeriodicTimer() { stop(); }

    PeriodicTimer(const PeriodicTimer&) = delete;
    PeriodicTimer& operator=(const PeriodicTimer&) = delete;

    /// (Re)starts with the given period; the first firing is one period out.
    void start(Time period);
    void stop();
    [[nodiscard]] bool running() const { return running_; }
    [[nodiscard]] Time period() const { return period_; }

private:
    void arm();
    Simulator* sim_;
    std::function<void()> on_fire_;
    Time period_ = 0;
    EventId pending_{};
    bool running_ = false;
};

/// A one-shot timer that can be re-armed; re-arming replaces the previous
/// deadline (used for soft-state expiry timers that are refreshed by
/// periodic control messages).
class OneshotTimer {
public:
    OneshotTimer(Simulator& sim, std::function<void()> on_fire)
        : sim_(&sim), on_fire_(std::move(on_fire)) {}
    ~OneshotTimer() { cancel(); }

    OneshotTimer(const OneshotTimer&) = delete;
    OneshotTimer& operator=(const OneshotTimer&) = delete;

    /// Arms (or re-arms) the timer `delay` from now.
    void arm(Time delay);
    void cancel();
    [[nodiscard]] bool armed() const { return pending_.valid(); }
    /// Absolute time at which the timer will fire; meaningful when armed().
    [[nodiscard]] Time deadline() const { return deadline_; }

private:
    Simulator* sim_;
    std::function<void()> on_fire_;
    EventId pending_{};
    Time deadline_ = 0;
};

} // namespace pimlib::sim
