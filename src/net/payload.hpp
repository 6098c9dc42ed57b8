// Packet payloads: immutable wire bytes shared between packet copies.
//
// A multicast router replicates one packet onto every outgoing interface and
// every segment delivers it to each attached station, so one data packet is
// copied many times on its way down a tree. Like a Linux sk_buff clone, a
// copy here shares the bytes and bumps a count; only the per-copy header
// fields (ttl, seq, pid, addresses) live inline in net::Packet. The count and
// the bytes sit in one heap block, so a payload costs one allocation when it
// is written and none when it is copied.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace pimlib::net {

/// Immutable, reference-counted payload bytes. Copies share one block; the
/// empty payload is a null handle and allocates nothing. There is no mutable
/// byte access: code that edits bytes builds a vector and assigns it. The
/// count is atomic because the checker runs worlds on several threads.
class Payload {
public:
    Payload() = default;
    /// Implicit, so `packet.payload = msg.encode();` reads as it did when
    /// payloads were vectors.
    Payload(const std::vector<std::uint8_t>& bytes) : block_(make(bytes)) {}
    Payload(std::initializer_list<std::uint8_t> bytes)
        : block_(make({bytes.begin(), bytes.size()})) {}

    Payload(const Payload& other) noexcept : block_(other.block_) { retain(); }
    Payload(Payload&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
    /// Copy and move assignment in one: `other` is built by the caller
    /// (a count bump, a steal, or a new block from a vector).
    Payload& operator=(Payload other) noexcept {
        std::swap(block_, other.block_);
        return *this;
    }
    ~Payload() { release(); }

    /// Replaces the bytes with `n` copies of `byte`, as vector::assign.
    void assign(std::size_t n, std::uint8_t byte);

    [[nodiscard]] std::size_t size() const { return block_ == nullptr ? 0 : block_->size; }
    [[nodiscard]] bool empty() const { return block_ == nullptr; }
    [[nodiscard]] const std::uint8_t* data() const {
        return block_ == nullptr ? nullptr : block_->bytes();
    }
    [[nodiscard]] const std::uint8_t* begin() const { return data(); }
    [[nodiscard]] const std::uint8_t* end() const {
        return block_ == nullptr ? nullptr : block_->bytes() + block_->size;
    }
    [[nodiscard]] std::uint8_t front() const { return *data(); }
    [[nodiscard]] std::uint8_t operator[](std::size_t i) const { return data()[i]; }

    [[nodiscard]] std::span<const std::uint8_t> span() const { return {data(), size()}; }
    /// Every codec decodes from a span; this lets them take a payload as is.
    operator std::span<const std::uint8_t>() const { return span(); }

    friend bool operator==(const Payload& a, const Payload& b);

private:
    /// Header of the one heap block; the bytes follow it.
    struct Block {
        std::atomic<std::uint32_t> refs;
        std::uint32_t size;
        [[nodiscard]] std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
    };

    /// A block holding a copy of `bytes` with one reference, or nullptr
    /// when `bytes` is empty.
    static Block* make(std::span<const std::uint8_t> bytes);
    /// A block of `n` uninitialized bytes with one reference (n > 0).
    static Block* allocate(std::size_t n);

    void retain() const {
        if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    void release() noexcept {
        if (block_ != nullptr && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            block_->~Block();
            ::operator delete(block_);
        }
    }

    Block* block_ = nullptr;
};

static_assert(sizeof(Payload) == sizeof(void*), "a payload is one pointer-sized handle");

} // namespace pimlib::net
