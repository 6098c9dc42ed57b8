// Global operator-new interposition for allocation-count assertions.
// Replacement allocation functions must be defined once per program, so
// include this header from exactly one source file of a test binary.
// Counting (not failing) keeps the hook harmless for every other test in
// the binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace pimlib::test {
/// Calls to the global operator new so far, in this process.
inline std::atomic<std::uint64_t> g_alloc_count{0};
} // namespace pimlib::test

void* operator new(std::size_t size) {
    pimlib::test::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

// The nothrow form too (std::stable_sort's temporary buffer uses it): left
// to the runtime, a sanitizer's own allocator would hand out blocks that the
// free()-based delete below then releases.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    pimlib::test::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

// The replaced operator new above is malloc-based, so free() here is the
// matched deallocator — the compiler cannot see through the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop
