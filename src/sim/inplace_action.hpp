// A one-shot callable built in place: what a TimerWheel node runs.
//
// Every simulated hop schedules at least one event, so the event's action
// is on the hottest path in the repo. `std::function` costs a temporary, a
// move per layer it passes through and a manager call to destroy it. This
// type is built once, straight from the caller's lambda, in the storage of
// the wheel node that will run it, and it never moves: the node runs it in
// place and then drops it.
//
// Captures of up to kInlineBytes (24) are stored inline, which covers the
// hot closures: `[this, slot]`, `[this, group, hint]` and the timers'
// `[this]`. Larger captures (or over-aligned ones) go on the heap, as
// `std::function` puts them. One function pointer either runs the action
// and then destroys its captures, or only destroys them; for trivially
// destructible inline captures the destroy half is empty.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace pimlib::sim {

class InplaceAction {
public:
    static constexpr std::size_t kInlineBytes = 24;

    /// True when a callable of type F is stored inside the action itself.
    template <typename F>
    static constexpr bool kStoredInline =
        sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*);

    InplaceAction() = default;
    ~InplaceAction() { reset(); }
    InplaceAction(const InplaceAction&) = delete;
    InplaceAction& operator=(const InplaceAction&) = delete;

    /// Builds the action from `f`. The action must be empty.
    template <typename F>
    void emplace(F&& f) {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn&>, "an action is called with no arguments");
        if constexpr (kStoredInline<Fn>) {
            ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
            thunk_ = &run_inline<Fn>;
        } else {
            ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
            thunk_ = &run_heap<Fn>;
        }
    }

    /// Runs the action once and destroys its captures, leaving it empty.
    /// The action is already empty while it runs, so nothing it does can
    /// destroy it a second time.
    void run() {
        Thunk thunk = thunk_;
        thunk_ = nullptr;
        thunk(storage_, /*run=*/true);
    }

    /// Destroys the captures without running; a no-op when empty.
    void reset() {
        if (thunk_ == nullptr) return;
        Thunk thunk = thunk_;
        thunk_ = nullptr;
        thunk(storage_, /*run=*/false);
    }

private:
    using Thunk = void (*)(void* storage, bool run);

    template <typename Fn>
    static void run_inline(void* storage, bool run) {
        Fn* fn = std::launder(static_cast<Fn*>(storage));
        if constexpr (std::is_trivially_destructible_v<Fn>) {
            if (run) (*fn)();
        } else {
            // Destroys the captures even if the action throws.
            struct Drop {
                Fn* fn;
                ~Drop() { fn->~Fn(); }
            } drop{fn};
            if (run) (*fn)();
        }
    }

    template <typename Fn>
    static void run_heap(void* storage, bool run) {
        const std::unique_ptr<Fn> fn(*std::launder(static_cast<Fn**>(storage)));
        if (run) (*fn)();
    }

    Thunk thunk_ = nullptr;
    alignas(void*) std::byte storage_[kInlineBytes];
};

static_assert(sizeof(InplaceAction) == 32);

} // namespace pimlib::sim
