#include "sim/timer_wheel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "telemetry/profiler/profiler.hpp"

namespace pimlib::sim {

TimerWheel::Node* TimerWheel::acquire() {
    if (!free_.empty()) {
        Node* node = free_.back();
        free_.pop_back();
        return node;
    }
    pool_.emplace_back();
    return &pool_.back();
}

void TimerWheel::release(Node* node) {
    node->seq = 0;
    node->level = kFree;
    node->prev = nullptr;
    node->next = nullptr;
    node->action.reset();
    free_.push_back(node);
}

void TimerWheel::place(Node* node) {
    const Time delta = node->at - base_;
    assert(delta >= 0 && "wheel position passed a pending event");
    if (delta >= span(kLevels)) {
        node->level = kOverflow;
        overflow_.emplace(std::pair{node->at, node->seq}, node);
        return;
    }
    int level = 0;
    while (delta >= span(level + 1)) ++level;
    const int slot = static_cast<int>((node->at >> (kSlotBits * level)) & (kSlots - 1));
    Level& l = levels_[level];
    node->level = static_cast<std::int16_t>(level);
    node->slot = static_cast<std::uint16_t>(slot);
    node->prev = nullptr;
    node->next = l.head[slot];
    if (node->next != nullptr) node->next->prev = node;
    l.head[slot] = node;
    l.bitmap[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++l.count;
}

void TimerWheel::unlink(Node* node) {
    Level& l = levels_[node->level];
    if (node->prev != nullptr) {
        node->prev->next = node->next;
    } else {
        l.head[node->slot] = node->next;
    }
    if (node->next != nullptr) node->next->prev = node->prev;
    if (l.head[node->slot] == nullptr) {
        l.bitmap[node->slot >> 6] &= ~(std::uint64_t{1} << (node->slot & 63));
    }
    --l.count;
    node->prev = nullptr;
    node->next = nullptr;
}

void TimerWheel::file(Node* node, Time at, std::uint64_t seq) {
    assert(seq != 0);
    node->at = at;
    node->seq = seq;
    ++size_;
    if (batch_live_ > 0 && at == batch_time_) {
        // Joins the instant currently draining; seqs only grow, so appending
        // keeps the batch sorted in scheduling order.
        node->level = kBatch;
        batch_.push_back(node);
        ++batch_live_;
    } else {
        place(node);
    }
}

bool TimerWheel::cancel(Node* node, std::uint64_t seq) {
    if (node == nullptr || seq == 0 || node->seq != seq) return false;
    --size_;
    if (node->level == kBatch) {
        // Tombstone in place: the batch vector still points at the node, so
        // it returns to the pool when the batch sweeps past it. Dropping the
        // action now keeps cancellation's resource semantics eager.
        node->seq = 0;
        node->action.reset();
        --batch_live_;
        return true;
    }
    if (node->level == kOverflow) {
        overflow_.erase({node->at, node->seq});
    } else {
        unlink(node);
    }
    release(node);
    return true;
}

int TimerWheel::scan_from(const Level& level, int from) {
    int word = from >> 6;
    std::uint64_t bits = level.bitmap[word] & (~std::uint64_t{0} << (from & 63));
    for (;;) {
        if (bits != 0) return word * 64 + std::countr_zero(bits);
        if (++word >= kSlots / 64) return -1;
        bits = level.bitmap[word];
    }
}

void TimerWheel::cascade_current() {
    PROF_ZONE("sim.wheel.cascade");
    ++cascades_;
    for (int levelno = kLevels - 1; levelno >= 1; --levelno) {
        const int slot = index_at(levelno);
        Level& level = levels_[levelno];
        Node* node = level.head[slot];
        if (node == nullptr) continue;
        level.head[slot] = nullptr;
        level.bitmap[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
        // Every node re-homes strictly below this level: its slot contains
        // base_, so its delta is under span(levelno), and a node whose delta
        // puts it back at level K always lands in a slot != index_at(K).
        while (node != nullptr) {
            Node* next = node->next;
            --level.count;
            ++cascaded_nodes_;
            node->prev = nullptr;
            node->next = nullptr;
            place(node);
            node = next;
        }
    }
}

void TimerWheel::migrate_overflow() {
    while (!overflow_.empty()) {
        auto it = overflow_.begin();
        if (it->first.first - base_ >= span(kLevels)) break;
        Node* node = it->second;
        overflow_.erase(it);
        ++overflow_migrations_;
        node->prev = nullptr;
        node->next = nullptr;
        place(node);
    }
}

void TimerWheel::roll(int level) {
    base_ = (base_ | (span(level) - 1)) + 1;
    cascade_current();
    migrate_overflow();
}

bool TimerWheel::next_time(Time* at, Time limit) {
    if (batch_live_ > 0) {
        *at = batch_time_;
        return true;
    }
    sweep_batch();
    if (size_ == 0) return false;
    for (;;) {
        if (wheel_count() == 0) {
            // Only far-future events remain: jump the wheel straight to the
            // first one and pull every overflow event inside the new horizon.
            const Time first = overflow_.begin()->first.first;
            if (first > limit) return false;
            base_ = first;
            migrate_overflow();
            continue;
        }
        // Act on the lowest populated level. A scan hit at level 0 is the
        // exact earliest instant. A hit higher up names the slot holding the
        // earliest events: jump there and shatter it downward. A miss with
        // the level still populated means every remaining node wrapped into
        // the next rotation — i.e. the next level-(L+1) slot window — so
        // advance one boundary and re-home. Emptiness of all lower levels
        // guarantees none of these moves can skip a pending event — and
        // each move's target lower-bounds every pending event, so refusing
        // a move past `limit` proves nothing is due by `limit`.
        for (int levelno = 0; levelno < kLevels; ++levelno) {
            Level& level = levels_[levelno];
            if (level.count == 0) continue;
            const int hit = scan_from(level, index_at(levelno));
            if (hit < 0) {
                const Time rolled = (base_ | (span(levelno + 1) - 1)) + 1;
                if (rolled > limit) return false;
                roll(levelno + 1);
            } else if (levelno == 0) {
                const Time found = (base_ & ~(span(1) - 1)) + hit;
                if (found > limit) return false;
                *at = found;
                return true;
            } else {
                const Time jumped =
                    (base_ & ~(span(levelno + 1) - 1)) + span(levelno) * hit;
                if (jumped > limit) return false;
                base_ = jumped;
                cascade_current();
                migrate_overflow();
            }
            break;
        }
    }
}

void TimerWheel::open_batch(Time at) {
    assert(batch_live_ == 0 && "previous batch must drain first");
    sweep_batch();
    base_ = at;
    Level& level = levels_[0];
    const int slot = static_cast<int>(at & (kSlots - 1));
    Node* node = level.head[slot];
    assert(node != nullptr && "open_batch requires next_time's result");
    level.head[slot] = nullptr;
    level.bitmap[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    while (node != nullptr) {
        // Level-0 nodes all sit inside the current 256-tick window, so one
        // slot holds exactly one instant.
        assert(node->at == at);
        Node* next = node->next;
        --level.count;
        node->prev = nullptr;
        node->next = nullptr;
        node->level = kBatch;
        batch_.push_back(node);
        node = next;
    }
    std::sort(batch_.begin(), batch_.end(),
              [](const Node* a, const Node* b) { return a->seq < b->seq; });
    batch_time_ = at;
    batch_live_ = batch_.size();
}

TimerWheel::Node* TimerWheel::detach(std::size_t k) {
    // Sweep consumed/cancelled entries off the front so the common case —
    // no choice source, k == 0 — stays O(1) amortized.
    while (batch_cursor_ < batch_.size()) {
        Node* node = batch_[batch_cursor_];
        if (node != nullptr && node->seq != 0) break;
        if (node != nullptr) release(node);
        ++batch_cursor_;
    }
    std::size_t live = 0;
    for (std::size_t i = batch_cursor_; i < batch_.size(); ++i) {
        Node* node = batch_[i];
        if (node == nullptr || node->seq == 0) continue;
        if (live++ < k) continue;
        node->seq = 0;
        batch_[i] = nullptr;
        --batch_live_;
        --size_;
        return node;
    }
    assert(false && "fire(k) out of range");
    return nullptr;
}

void TimerWheel::fire(std::size_t k) {
    Node* node = detach(k);
    // The node is off the batch and off the free list while its action
    // runs, so events the action schedules take other nodes. (If the
    // action throws, the node is simply never recycled; the pool still
    // owns it.)
    {
        PROF_ZONE("sim.dispatch");
        node->action.run();
    }
    release(node);
}

TimerWheel::Stats TimerWheel::stats() const {
    Stats s;
    for (int levelno = 0; levelno < kLevels; ++levelno) {
        const Level& level = levels_[levelno];
        s.level_events[levelno] = level.count;
        int occupied = 0;
        for (std::uint64_t word : level.bitmap) occupied += std::popcount(word);
        s.occupied_slots[levelno] = occupied;
    }
    s.overflow_events = overflow_.size();
    s.pending = size_;
    s.cascades = cascades_;
    s.cascaded_nodes = cascaded_nodes_;
    s.overflow_migrations = overflow_migrations_;
    return s;
}

void TimerWheel::sweep_batch() {
    // Only tombstones (or already-nulled slots) can remain once live == 0.
    for (std::size_t i = batch_cursor_; i < batch_.size(); ++i) {
        if (batch_[i] != nullptr) release(batch_[i]);
    }
    batch_.clear();
    batch_cursor_ = 0;
}

} // namespace pimlib::sim
