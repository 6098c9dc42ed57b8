#include "sim/timer_wheel.hpp"

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
    node->action.reset();
    free_.push_back(node);
}

void TimerWheel::link(Node*& head, Node* node, End end) {
    if (head == nullptr) {
        node->prev = node;
        node->next = nullptr;
        head = node;
        return;
    }
    Node* tail = head->prev;
    node->prev = tail;
    head->prev = node;
    if (end == End::kBack) {
        node->next = nullptr;
        tail->next = node;
    } else {
        node->next = head;
        head = node;
    }
}

void TimerWheel::unlink(Node*& head, Node* node) {
    Node* next = node->next;
    if (node == head) {
        head = next;
        if (next != nullptr) next->prev = node->prev;
    } else {
        node->prev->next = next;
        (next != nullptr ? next : head)->prev = node->prev;
    }
}

void TimerWheel::place(Node* node, End end) {
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
    link(l.head[slot], node, end);
    l.bitmap[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++l.count;
    if (level == 0) ++instant_count_[slot];
}

void TimerWheel::remove(Node* node) {
    Level& l = levels_[node->level];
    Node*& head = l.head[node->slot];
    unlink(head, node);
    if (head == nullptr) {
        l.bitmap[node->slot >> 6] &= ~(std::uint64_t{1} << (node->slot & 63));
    }
    --l.count;
    if (node->level == 0) --instant_count_[node->slot];
}

void TimerWheel::file(Node* node, Time at, std::uint64_t seq) {
    assert(seq > last_seq_ && "seq must be unique and increasing");
    last_seq_ = seq;
    node->at = at;
    node->seq = seq;
    ++size_;
    // The largest seq so far: the back of its list keeps the list ascending.
    if (batch_live_ > 0 && at == batch_time_) {
        node->level = 0;
        node->slot = static_cast<std::uint16_t>(at & (kSlots - 1));
        link(batch_, node, End::kBack);
        ++batch_live_;
    } else {
        place(node, End::kBack);
    }
}

bool TimerWheel::cancel(Node* node, std::uint64_t seq) {
    if (node == nullptr || seq == 0 || node->seq != seq) return false;
    --size_;
    if (in_batch(node)) {
        unlink(batch_, node);
        --batch_live_;
    } else if (node->level == kOverflow) {
        overflow_.erase({node->at, node->seq});
    } else {
        remove(node);
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
    // Bottom-up: a same-instant node at a higher level was filed earlier,
    // so it must end up ahead of those cascaded from lower levels, and
    // pushing it at the front after them puts it there. A node due in this
    // rotation of the slot re-homes strictly below this level (its delta is
    // under span(levelno)); one due in the slot's next rotation lands back
    // in the same slot.
    for (int levelno = 1; levelno < kLevels; ++levelno) {
        const int slot = index_at(levelno);
        Level& level = levels_[levelno];
        Node* head = level.head[slot];
        if (head == nullptr) continue;
        level.head[slot] = nullptr;
        level.bitmap[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
        // Tail to head, each to the front of its new slot: every run that
        // shares a target slot keeps its order there.
        for (Node* node = head->prev;;) {
            Node* prev = node->prev;
            --level.count;
            ++cascaded_nodes_;
            place(node, End::kFront);
            if (node == head) break;
            node = prev;
        }
    }
}

void TimerWheel::migrate_overflow() {
    const auto end = overflow_.lower_bound({base_ + span(kLevels), 0});
    // Overflow nodes are the oldest of their instants: descending, each to
    // the front, lands them ahead of the wheel's in ascending order.
    for (auto it = end; it != overflow_.begin();) {
        --it;
        ++overflow_migrations_;
        place(it->second, End::kFront);
    }
    overflow_.erase(overflow_.begin(), end);
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
    base_ = at;
    Level& level = levels_[0];
    const int slot = static_cast<int>(at & (kSlots - 1));
    Node* head = level.head[slot];
    assert(head != nullptr && "open_batch requires next_time's result");
    level.head[slot] = nullptr;
    level.bitmap[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    const std::size_t n = instant_count_[slot];
    instant_count_[slot] = 0;
    level.count -= n;
#ifndef NDEBUG
    std::size_t walked = 0;
    for (Node* node = head; node != nullptr; node = node->next, ++walked) {
        // Level-0 nodes all sit inside the current 256-tick window, so one
        // slot holds exactly one instant.
        assert(node->at == at);
        assert((node == head || node->prev->seq < node->seq) && "batch out of seq order");
    }
    assert(walked == n);
#endif
    batch_ = head;
    batch_time_ = at;
    batch_live_ = n;
}

TimerWheel::Node* TimerWheel::detach(std::size_t k) {
    assert(k < batch_live_ && "fire(k) out of range");
    Node* node = batch_;
    for (; k > 0; --k) node = node->next;
    unlink(batch_, node);
    node->seq = 0;
    --batch_live_;
    --size_;
    return node;
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

} // namespace pimlib::sim
