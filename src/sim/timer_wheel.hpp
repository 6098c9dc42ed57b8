// Hierarchical timing wheel: the event store behind sim::Simulator.
//
// The soft-state design of the paper means every (S,G)/(*,G) entry carries
// refresh and expiry timers, so at million-entry scale the scheduler *is*
// the hot path. A balanced-tree queue (the original std::map implementation)
// costs O(log n) pointer-chasing plus a node allocation per schedule/cancel;
// the wheel costs O(1) for both, with events stored in pooled, reusable
// nodes. docs/TIMERS.md is the written performance model for this file:
// data layout, tick/cascade math, overflow handling and the determinism
// contract are all specified there.
//
// Shape: kLevels wheels of kSlots slots each. Level L slots are 256^L ticks
// wide (one tick = one microsecond — times are exact, never quantized), so
// level 0 resolves single instants and the hierarchy spans 256^kLevels
// ticks (~2^40 us ~ 12.7 days at kLevels = 5). Deadlines beyond the horizon
// sit in a sorted overflow map and migrate into the wheels as the base
// advances. Each slot is an intrusive doubly-linked list with a 256-bit
// occupancy bitmap per level, so "find next event" is a handful of word
// scans and the discrete-event clock can jump over empty regions without
// walking them tick by tick. Every slot list is kept in seq order as it is
// filed (docs/TIMERS.md, "Slot order"), so an instant's level-0 list is its
// batch as it stands: opening it sorts nothing.
//
// Determinism contract (relied on by src/check):
//   - all events due at one instant are surfaced as a single batch, ordered
//     by schedule sequence number, so the simulator's ChoiceSource can
//     enumerate every interleaving exactly as it did over the map queue;
//   - cancellation is keyed on (node, seq): an id goes dead the moment its
//     event fires or is cancelled and can never alias a later event, even
//     one scheduled for the same instant into a reused node.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "sim/inplace_action.hpp"
#include "sim/time.hpp"

namespace pimlib::sim {

class TimerWheel {
public:
    static constexpr int kSlotBits = 8;
    static constexpr int kSlots = 1 << kSlotBits; // 256 slots per level
    static constexpr int kLevels = 5;             // horizon: 2^40 ticks

    /// Where a node currently lives; values >= 0 are wheel levels. A node
    /// in the open batch keeps level 0: it is the one level-0 node due at
    /// the batch instant while the batch is open.
    static constexpr std::int16_t kFree = -1;     // on the free list
    static constexpr std::int16_t kOverflow = -3; // beyond the wheel horizon

    /// One scheduled event. Nodes are pool-allocated and reused; `seq == 0`
    /// marks a node that holds no live event (free, cancelled or running),
    /// which is what makes stale handles safe to probe. The action is built
    /// in the node by schedule() and runs there (fire()); it never moves.
    /// In a list (a wheel slot or the open batch) `next` runs head to tail
    /// and ends in null, and the head's `prev` is the tail, so both ends are
    /// O(1) without a tail array.
    struct Node {
        Node* prev = nullptr;
        Node* next = nullptr;
        Time at = 0;
        std::uint64_t seq = 0;
        std::int16_t level = kFree;
        std::uint16_t slot = 0;
        InplaceAction action;
    };
    // 40 bytes of links and keys plus the 32-byte action: the pool's
    // footprint is what the refresh workload's peak RSS measures.
    static_assert(sizeof(Node) == 72);

    TimerWheel() = default;
    TimerWheel(const TimerWheel&) = delete;
    TimerWheel& operator=(const TimerWheel&) = delete;

    /// Files an event whose action is built from `action` in the node; `at`
    /// must be >= the time of the last opened batch. `seq` must be unique
    /// and increasing (the simulator's event counter; debug builds assert
    /// it), since slot order relies on it. The returned node stays owned by
    /// the wheel.
    template <typename F>
    Node* schedule(Time at, std::uint64_t seq, F&& action) {
        Node* node = acquire();
        node->action.emplace(std::forward<F>(action));
        file(node, at, seq);
        return node;
    }

    /// Cancels the event iff `node` still holds exactly sequence `seq`.
    /// Returns true when an event was actually removed — false for null,
    /// already-fired, already-cancelled, or reused nodes.
    bool cancel(Node* node, std::uint64_t seq);

    /// Live events (pending, including any still in the open batch).
    [[nodiscard]] std::size_t size() const { return size_; }

    /// Sentinel limit for next_time: seek with no time bound.
    static constexpr Time kNoLimit = std::numeric_limits<Time>::max();

    /// Finds the earliest pending instant, cascading/advancing the wheel
    /// position as needed, but never past `limit`: when every pending event
    /// is later than `limit`, returns false with the wheel position <=
    /// `limit`. The cap is what makes bounded drains (run_until) safe — the
    /// caller may schedule between its deadline and the next event
    /// afterwards, which requires the position not to have jumped ahead.
    /// Returns false when no event is pending at or before `limit`.
    [[nodiscard]] bool next_time(Time* at, Time limit = kNoLimit);

    /// Makes the level-0 slot list of `at` (which must be the value just
    /// returned by next_time) the execution batch, in O(1): the list is
    /// already in seq order (debug builds assert it) and its length is
    /// counted as it is filed.
    void open_batch(Time at);

    /// Live events in the open batch. Events scheduled *for the batch
    /// instant while it drains* join it; cancellations leave it.
    [[nodiscard]] std::size_t batch_live() const { return batch_live_; }
    [[nodiscard]] Time batch_time() const { return batch_time_; }

    /// Runs the k-th live batch event in seq order (k < batch_live()) in
    /// its node, under the `sim.dispatch` profiler zone. The event leaves
    /// the batch and its id goes dead before the action runs (cancelling it
    /// from inside returns false); the node returns to the pool only after
    /// the action has returned and its captures are destroyed.
    void fire(std::size_t k);

    /// Occupancy and cascade statistics, cheap enough to read on demand
    /// (one pass over the occupancy bitmaps). Published as pimlib_timer_*
    /// gauges by telemetry::Hub::refresh_timer_gauges, so wheel health —
    /// where the entries sit, how often drains shatter higher slots, how
    /// much lives beyond the horizon — is visible without a profiler run.
    struct Stats {
        std::array<std::size_t, kLevels> level_events{}; // live nodes per level
        std::array<int, kLevels> occupied_slots{};       // non-empty slots
        std::size_t overflow_events = 0; // beyond the 2^40-us horizon
        std::size_t pending = 0;         // == size()
        std::uint64_t cascades = 0;       // cascade_current invocations
        std::uint64_t cascaded_nodes = 0; // nodes re-homed downward
        std::uint64_t overflow_migrations = 0; // nodes pulled into the wheels
    };
    [[nodiscard]] Stats stats() const;

private:
    struct Level {
        std::array<Node*, kSlots> head{}; // seq-ascending lists; prev of head = tail
        std::array<std::uint64_t, kSlots / 64> bitmap{};
        std::size_t count = 0;
    };

    /// Width of one slot at `level`, in ticks.
    [[nodiscard]] static constexpr Time span(int level) {
        return Time{1} << (kSlotBits * level);
    }
    [[nodiscard]] int index_at(int level) const {
        return static_cast<int>((base_ >> (kSlotBits * level)) & (kSlots - 1));
    }
    /// First occupied slot >= `from` in this level's current rotation, or -1.
    [[nodiscard]] static int scan_from(const Level& level, int from);

    /// The end of a list a node is linked at. A fresh filing carries the
    /// largest seq so far and goes to the back; a cascaded or migrated node
    /// is older than every node already in its target slot for the same
    /// instant and goes to the front.
    enum class End : bool { kBack, kFront };
    static void link(Node*& head, Node* node, End end);
    static void unlink(Node*& head, Node* node);

    /// Stamps `node` with (at, seq) and links it into the open batch or the
    /// wheel: the non-template half of schedule().
    void file(Node* node, Time at, std::uint64_t seq);
    /// Detaches the k-th live batch event (see fire) and returns its node.
    Node* detach(std::size_t k);
    /// Links `node` into the slot (or overflow) its delta from base_ names.
    void place(Node* node, End end);
    /// Takes `node` out of its wheel slot.
    void remove(Node* node);
    /// While a batch is open, the level-0 nodes due at its instant are
    /// exactly its members (filing routes them there, and nothing cascades
    /// until it drains).
    [[nodiscard]] bool in_batch(const Node* node) const {
        return node->level == 0 && batch_live_ > 0 && node->at == batch_time_;
    }
    void release(Node* node);
    Node* acquire();

    /// Re-homes every node in the current slot of levels >= 1 after base_
    /// moved to an aligned boundary. Bottom-up, each slot walked from tail
    /// to head with every node pushed at the front of its new slot, which
    /// is what keeps every slot seq-ascending (docs/TIMERS.md, "Slot
    /// order").
    void cascade_current();
    /// Moves overflow events whose deadline now falls inside the horizon
    /// into the wheels, latest (at, seq) first, each at the front of its
    /// slot; called after the cascade.
    void migrate_overflow();
    /// Advances base_ to the next multiple of span(level) and re-homes.
    void roll(int level);

    [[nodiscard]] std::size_t wheel_count() const {
        std::size_t n = 0;
        for (const Level& level : levels_) n += level.count;
        return n;
    }

    Time base_ = 0; // wheel position; all wheel/overflow nodes have at >= base_
    std::array<Level, kLevels> levels_{};
    std::array<std::uint32_t, kSlots> instant_count_{}; // nodes per level-0 slot
    std::map<std::pair<Time, std::uint64_t>, Node*> overflow_;
    std::size_t size_ = 0;
    std::uint64_t cascades_ = 0;
    std::uint64_t cascaded_nodes_ = 0;
    std::uint64_t overflow_migrations_ = 0;

    std::uint64_t last_seq_ = 0; // largest seq filed, for the order assert

    Node* batch_ = nullptr; // the open batch: the detached level-0 slot list
    std::size_t batch_live_ = 0;
    Time batch_time_ = 0;

    std::deque<Node> pool_; // stable addresses; nodes live for the wheel's life
    std::vector<Node*> free_;
};

} // namespace pimlib::sim
