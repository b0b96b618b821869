// GF(2^8) arithmetic with the AES polynomial x^8 + x^4 + x^3 + x + 1 (0x11b).
//
// Substrate for the systematic Reed-Solomon erasure code that SIGMA uses to
// deliver address-key tuples to edge routers reliably (paper sections 3.2.1
// and 5.4: "error correction overcomes 50% packet loss").
//
// The log/exp tables are built at compile time, so every function here is
// safe to call from any number of sweep threads at once.
#ifndef MCC_CRYPTO_GF256_H
#define MCC_CRYPTO_GF256_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace mcc::crypto::gf256 {

namespace detail {

struct tables {
  std::array<std::uint8_t, 256> log{};  // log[0] is unused; callers guard it
  std::array<std::uint8_t, 512> exp{};  // doubled so log sums need no mod
};

constexpr tables make_tables() {
  tables t;
  // Generator 3 of GF(256) with the AES reduction polynomial.
  int x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
    t.log[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(i);
    // Multiply x by the generator 0x03 = x + 1.
    int shifted = x << 1;
    if (shifted & 0x100) shifted ^= 0x11b;
    x = shifted ^ x;
  }
  for (std::size_t i = 255; i < 512; ++i) t.exp[i] = t.exp[i - 255];
  return t;
}

inline constexpr tables k_tables = make_tables();

}  // namespace detail

constexpr std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return detail::k_tables.exp[static_cast<std::size_t>(
                                  detail::k_tables.log[a]) +
                              detail::k_tables.log[b]];
}

std::uint8_t div(std::uint8_t a, std::uint8_t b);
std::uint8_t inv(std::uint8_t a);
std::uint8_t pow(std::uint8_t base, int exp);

constexpr std::uint8_t add(std::uint8_t a, std::uint8_t b) {
  return static_cast<std::uint8_t>(a ^ b);
}
constexpr std::uint8_t sub(std::uint8_t a, std::uint8_t b) { return add(a, b); }

}  // namespace mcc::crypto::gf256

#endif  // MCC_CRYPTO_GF256_H
