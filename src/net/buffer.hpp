// Bounds-checked wire-format buffers.
//
// Every control message in the library serializes through BufWriter and
// parses through BufReader; both are fully bounds-checked so a malformed or
// truncated message can never read or write out of range. Multi-byte fields
// are big-endian (network byte order) on the wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/ipv4.hpp"

namespace pimlib::net {

/// Appends big-endian fields to a growable byte vector.
class BufWriter {
public:
    BufWriter() = default;
    explicit BufWriter(std::size_t reserve) { bytes_.reserve(reserve); }

    void put_u8(std::uint8_t v) { bytes_.push_back(v); }
    void put_u16(std::uint16_t v) {
        bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
        bytes_.push_back(static_cast<std::uint8_t>(v));
    }
    void put_u32(std::uint32_t v) {
        put_u16(static_cast<std::uint16_t>(v >> 16));
        put_u16(static_cast<std::uint16_t>(v));
    }
    void put_u64(std::uint64_t v) {
        put_u32(static_cast<std::uint32_t>(v >> 32));
        put_u32(static_cast<std::uint32_t>(v));
    }
    void put_addr(Ipv4Address a) { put_u32(a.to_uint()); }
    void put_bytes(std::span<const std::uint8_t> data) {
        bytes_.insert(bytes_.end(), data.begin(), data.end());
    }

    [[nodiscard]] std::size_t size() const { return bytes_.size(); }
    /// Takes the accumulated bytes; the writer is empty afterwards.
    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }
    [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }

private:
    std::vector<std::uint8_t> bytes_;
};

/// Reads big-endian fields from a byte span. All getters return nullopt on
/// underrun instead of reading past the end; once an underrun happens the
/// reader stays failed (ok() == false).
class BufReader {
public:
    explicit BufReader(std::span<const std::uint8_t> data) : data_(data) {}

    // The getters are defined here so every codec's decode inlines them.
    [[nodiscard]] std::optional<std::uint8_t> get_u8() {
        if (!take(1)) return std::nullopt;
        return data_[pos_++];
    }
    [[nodiscard]] std::optional<std::uint16_t> get_u16() {
        if (!take(2)) return std::nullopt;
        return static_cast<std::uint16_t>(read_be(2));
    }
    [[nodiscard]] std::optional<std::uint32_t> get_u32() {
        if (!take(4)) return std::nullopt;
        return static_cast<std::uint32_t>(read_be(4));
    }
    [[nodiscard]] std::optional<std::uint64_t> get_u64() {
        if (!take(8)) return std::nullopt;
        return read_be(8);
    }
    [[nodiscard]] std::optional<Ipv4Address> get_addr() {
        if (!take(4)) return std::nullopt;
        return Ipv4Address{static_cast<std::uint32_t>(read_be(4))};
    }
    /// Copies `n` bytes out; nullopt on underrun.
    [[nodiscard]] std::optional<std::vector<std::uint8_t>> get_bytes(std::size_t n) {
        if (!take(n)) return std::nullopt;
        const auto first = data_.begin() + static_cast<std::ptrdiff_t>(pos_);
        pos_ += n;
        return std::vector<std::uint8_t>(first, first + static_cast<std::ptrdiff_t>(n));
    }

    [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
    [[nodiscard]] bool ok() const { return ok_; }
    [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

private:
    /// True when `n` more bytes can be read; otherwise fails the reader.
    bool take(std::size_t n) {
        if (!ok_ || data_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }
    /// Consumes `n` (<= 8) big-endian bytes that take() has admitted.
    std::uint64_t read_be(std::size_t n) {
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < n; ++i) v = (v << 8) | data_[pos_ + i];
        pos_ += n;
        return v;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace pimlib::net
