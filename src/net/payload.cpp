#include "net/payload.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pimlib::net {

Payload::Block* Payload::allocate(std::size_t n) {
    if (n > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("net::Payload: more than 4 GiB of bytes");
    }
    void* raw = ::operator new(sizeof(Block) + n);
    return ::new (raw) Block{{1}, static_cast<std::uint32_t>(n)};
}

Payload::Block* Payload::make(std::span<const std::uint8_t> bytes) {
    if (bytes.empty()) return nullptr;
    Block* block = allocate(bytes.size());
    std::copy(bytes.begin(), bytes.end(), block->bytes());
    return block;
}

void Payload::assign(std::size_t n, std::uint8_t byte) {
    Block* block = nullptr;
    if (n != 0) {
        block = allocate(n);
        std::fill_n(block->bytes(), n, byte);
    }
    release();
    block_ = block;
}

bool operator==(const Payload& a, const Payload& b) {
    return std::ranges::equal(a.span(), b.span());
}

} // namespace pimlib::net
