// The forward explorer's global dedup set of timed state keys.
//
// Open addressing with linear probing over a flat power-of-two array of
// 64-bit keys. The keys are splitmix64 outputs (scenario.cpp's
// timed_state_key), so their low bits index the table directly; 0 marks an
// empty slot, and a key that is itself 0 is held by a flag beside the
// table. Reads may run on many threads at once while nothing writes (the
// explorer's workers probe it during a wave); insert() is single-threaded
// (the serial merge between waves).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pimlib::check {

class StateSet {
public:
    [[nodiscard]] bool contains(std::uint64_t key) const {
        if (key == 0) return has_zero_;
        if (slots_.empty()) return false;
        for (std::size_t i = key & mask_;; i = (i + 1) & mask_) {
            if (slots_[i] == key) return true;
            if (slots_[i] == 0) return false;
        }
    }

    /// True when `key` was not yet present.
    bool insert(std::uint64_t key) {
        if (key == 0) {
            if (has_zero_) return false;
            has_zero_ = true;
            return true;
        }
        // Grow before the table passes half full: probes stay short.
        if (2 * (stored_ + 1) > slots_.size()) grow();
        if (!place(key)) return false;
        ++stored_;
        return true;
    }

    [[nodiscard]] std::size_t size() const { return stored_ + (has_zero_ ? 1 : 0); }
    /// Table slots currently allocated (a power of two, or 0).
    [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

private:
    /// Puts a nonzero key in its probe run; false if it was already there.
    bool place(std::uint64_t key) {
        for (std::size_t i = key & mask_;; i = (i + 1) & mask_) {
            if (slots_[i] == key) return false;
            if (slots_[i] == 0) {
                slots_[i] = key;
                return true;
            }
        }
    }

    void grow() {
        std::vector<std::uint64_t> old(slots_.empty() ? 1024 : 2 * slots_.size(), 0);
        old.swap(slots_);
        mask_ = slots_.size() - 1;
        for (const std::uint64_t key : old) {
            if (key != 0) place(key);
        }
    }

    std::vector<std::uint64_t> slots_;
    std::size_t mask_ = 0;
    std::size_t stored_ = 0; // nonzero keys in slots_
    bool has_zero_ = false;
};

} // namespace pimlib::check
