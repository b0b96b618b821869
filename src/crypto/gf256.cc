#include "crypto/gf256.h"

#include "util/require.h"

namespace mcc::crypto::gf256 {

namespace {
constexpr const auto& g_log = detail::k_tables.log;
constexpr const auto& g_exp = detail::k_tables.exp;
}  // namespace

std::uint8_t div(std::uint8_t a, std::uint8_t b) {
  util::require(b != 0, "gf256::div by zero");
  if (a == 0) return 0;
  return g_exp[static_cast<std::size_t>(g_log[a]) + 255 - g_log[b]];
}

std::uint8_t inv(std::uint8_t a) {
  util::require(a != 0, "gf256::inv of zero");
  return g_exp[static_cast<std::size_t>(255 - g_log[a])];
}

std::uint8_t pow(std::uint8_t base, int exp) {
  if (exp == 0) return 1;
  util::require(base != 0, "gf256::pow of zero base");
  const int e = ((g_log[base] * exp) % 255 + 255) % 255;
  return g_exp[static_cast<std::size_t>(e)];
}

}  // namespace mcc::crypto::gf256
