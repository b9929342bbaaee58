// Bit-manipulation helpers shared by the ISA encoders/decoders and the
// cache/VPU models.
#ifndef ARCANE_COMMON_BITS_HPP_
#define ARCANE_COMMON_BITS_HPP_

#include <cstdint>
#include <type_traits>

#include "common/assert.hpp"

namespace arcane {

/// Extract bits [hi:lo] (inclusive, RISC-V manual style) of `value`.
constexpr std::uint32_t bits(std::uint32_t value, unsigned hi, unsigned lo) {
  return (value >> lo) & ((hi - lo == 31u) ? 0xFFFF'FFFFu
                                           : ((1u << (hi - lo + 1u)) - 1u));
}

/// Extract a single bit.
constexpr std::uint32_t bit(std::uint32_t value, unsigned pos) {
  return (value >> pos) & 1u;
}

/// Place the low (hi-lo+1) bits of `field` into bits [hi:lo] of a word.
constexpr std::uint32_t place(std::uint32_t field, unsigned hi, unsigned lo) {
  const std::uint32_t mask =
      (hi - lo == 31u) ? 0xFFFF'FFFFu : ((1u << (hi - lo + 1u)) - 1u);
  return (field & mask) << lo;
}

/// Sign-extend the low `width` bits of `value` to 32 bits.
constexpr std::int32_t sign_extend(std::uint32_t value, unsigned width) {
  const std::uint32_t shift = 32u - width;
  return static_cast<std::int32_t>(value << shift) >>
         static_cast<std::int32_t>(shift);
}

/// True when `value` fits in a signed immediate of `width` bits.
constexpr bool fits_signed(std::int64_t value, unsigned width) {
  const std::int64_t lo = -(std::int64_t{1} << (width - 1));
  const std::int64_t hi = (std::int64_t{1} << (width - 1)) - 1;
  return value >= lo && value <= hi;
}

/// True when `value` fits in an unsigned immediate of `width` bits.
constexpr bool fits_unsigned(std::uint64_t value, unsigned width) {
  return value < (std::uint64_t{1} << width);
}

constexpr std::uint16_t lo16(std::uint32_t v) {
  return static_cast<std::uint16_t>(v & 0xFFFFu);
}
constexpr std::uint16_t hi16(std::uint32_t v) {
  return static_cast<std::uint16_t>(v >> 16);
}
constexpr std::uint32_t pack16(std::uint16_t hi, std::uint16_t lo) {
  return (static_cast<std::uint32_t>(hi) << 16) | lo;
}

/// Round `v` up to the next multiple of `align` (align must be a power of 2).
constexpr std::uint32_t align_up(std::uint32_t v, std::uint32_t align) {
  return (v + align - 1u) & ~(align - 1u);
}

constexpr std::uint32_t align_down(std::uint32_t v, std::uint32_t align) {
  return v & ~(align - 1u);
}

constexpr bool is_pow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// [addr, addr + len) lies inside [base, base + size). Phrased with
/// subtractions so ranges ending at or past 2^32 do not wrap.
constexpr bool range_within(std::uint32_t addr, std::uint32_t len,
                            std::uint32_t base, std::uint32_t size) {
  return addr >= base && len <= size && addr - base <= size - len;
}

/// ceil(a / b) for unsigned integers; b must be non-zero.
template <typename T>
constexpr T ceil_div(T a, T b) {
  static_assert(std::is_unsigned_v<T>);
  return (a + b - 1) / b;
}

}  // namespace arcane

#endif  // ARCANE_COMMON_BITS_HPP_
