#include "sim/simulator.hpp"

namespace pimlib::sim {

bool Simulator::cancel(EventId id) {
    if (!id.valid()) return false;
    return wheel_.cancel(id.node_, id.seq_);
}

std::size_t Simulator::run_loop(Time deadline, bool bounded) {
    std::size_t count = 0;
    Time at = 0;
    const Time limit = bounded ? deadline : TimerWheel::kNoLimit;
    // The limit keeps the wheel position at or below the deadline even when
    // the next pending event is far beyond it, so events scheduled after a
    // bounded run (at times the wheel has not yet reached) file correctly.
    while (wheel_.next_time(&at, limit)) {
        wheel_.open_batch(at);
        now_ = at;
        // Drain the whole instant before looking at the clock again. Events
        // scheduled *for this instant* by actions below join the batch, so
        // the choice source sees every same-time contender each round —
        // exactly the semantics the ordered-map queue had.
        while (wheel_.batch_live() > 0) {
            std::size_t pick = 0;
            const std::size_t n = wheel_.batch_live();
            if (choices_ != nullptr && n >= 2) {
                pick = choices_->choose(
                    n, ChoicePoint{ChoicePoint::Kind::kEventOrder, 0});
                if (pick >= n) pick = 0;
            }
            wheel_.fire(pick);
            ++executed_;
            ++count;
        }
    }
    return count;
}

std::size_t Simulator::run_until(Time deadline) {
    const std::size_t count = run_loop(deadline, /*bounded=*/true);
    if (now_ < deadline) now_ = deadline;
    return count;
}

std::size_t Simulator::run() {
    return run_loop(/*deadline=*/0, /*bounded=*/false);
}

void PeriodicTimer::start(Time period) {
    stop();
    period_ = period;
    running_ = true;
    arm();
}

void PeriodicTimer::stop() {
    if (pending_.valid()) {
        sim_->cancel(pending_);
        pending_ = EventId{};
    }
    running_ = false;
}

void PeriodicTimer::arm() {
    pending_ = sim_->schedule(period_, [this] {
        pending_ = EventId{};
        // Re-arm before invoking so the callback can stop() us.
        arm();
        on_fire_();
    });
}

void OneshotTimer::arm(Time delay) {
    cancel();
    deadline_ = sim_->now() + delay;
    pending_ = sim_->schedule(delay, [this] {
        pending_ = EventId{};
        on_fire_();
    });
}

void OneshotTimer::cancel() {
    if (pending_.valid()) {
        sim_->cancel(pending_);
        pending_ = EventId{};
    }
}

} // namespace pimlib::sim
