#include "crypto/rs_code.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/gf256.h"
#include "crypto/prng.h"

namespace mcc::crypto {
namespace {

// The GF(2^8) tables are built at compile time: FIPS-197 section 4.2's worked
// product {57} x {83} = {c1} is checked by the compiler.
static_assert(gf256::mul(0x57, 0x83) == 0xc1);
static_assert(gf256::mul(0x83, 0x57) == 0xc1);
static_assert(gf256::mul(0x57, 0x00) == 0x00);

std::vector<shard> random_shards(int k, std::size_t len, prng& g) {
  std::vector<shard> out(static_cast<std::size_t>(k), shard(len));
  for (auto& s : out) {
    for (auto& b : s) b = static_cast<std::uint8_t>(g.next() & 0xff);
  }
  return out;
}

std::vector<indexed_shard> take(const std::vector<shard>& codeword,
                                const std::vector<int>& indices) {
  std::vector<indexed_shard> out;
  for (int i : indices) {
    out.push_back(indexed_shard{i, codeword[static_cast<std::size_t>(i)]});
  }
  return out;
}

TEST(rs_code, encode_is_systematic) {
  prng g(1);
  const auto data = random_shards(4, 32, g);
  rs_code code(4, 3);
  const auto cw = code.encode(data);
  ASSERT_EQ(cw.size(), 7u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cw[static_cast<std::size_t>(i)], data[static_cast<std::size_t>(i)]);
  }
}

TEST(rs_code, decode_with_all_data_shards) {
  prng g(2);
  const auto data = random_shards(5, 16, g);
  rs_code code(5, 2);
  const auto cw = code.encode(data);
  const auto decoded = code.decode(take(cw, {0, 1, 2, 3, 4}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(rs_code, decode_with_parity_replacing_data) {
  prng g(3);
  const auto data = random_shards(4, 20, g);
  rs_code code(4, 4);
  const auto cw = code.encode(data);
  // Lose data shards 0 and 2; use parity 4 and 6.
  const auto decoded = code.decode(take(cw, {1, 3, 4, 6}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(rs_code, decode_with_only_parity) {
  prng g(4);
  const auto data = random_shards(3, 8, g);
  rs_code code(3, 3);
  const auto cw = code.encode(data);
  const auto decoded = code.decode(take(cw, {3, 4, 5}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(rs_code, too_few_shards_fails_cleanly) {
  prng g(5);
  const auto data = random_shards(4, 8, g);
  rs_code code(4, 2);
  const auto cw = code.encode(data);
  EXPECT_FALSE(code.decode(take(cw, {0, 1, 2})).has_value());
  EXPECT_FALSE(code.decode({}).has_value());
}

TEST(rs_code, duplicate_shards_do_not_count_twice) {
  prng g(6);
  const auto data = random_shards(3, 8, g);
  rs_code code(3, 2);
  const auto cw = code.encode(data);
  std::vector<indexed_shard> dup = take(cw, {0, 1});
  dup.push_back(indexed_shard{0, cw[0]});
  EXPECT_FALSE(code.decode(dup).has_value());
}

TEST(rs_code, fifty_percent_loss_always_recoverable_with_z2) {
  // z = 2 (k data + k parity) survives any loss of half the codeword —
  // the paper's "error correction overcomes 50% packet loss".
  prng g(7);
  const int k = 4;
  const auto data = random_shards(k, 24, g);
  rs_code code(k, k);
  const auto cw = code.encode(data);
  // Every 4-subset of the 8 shards must decode.
  std::vector<int> idx(8);
  for (int i = 0; i < 8; ++i) idx[static_cast<std::size_t>(i)] = i;
  std::vector<bool> pick(8, false);
  std::fill(pick.begin(), pick.begin() + 4, true);
  std::sort(pick.begin(), pick.end());
  do {
    std::vector<int> chosen;
    for (int i = 0; i < 8; ++i) {
      if (pick[static_cast<std::size_t>(i)]) chosen.push_back(i);
    }
    const auto decoded = code.decode(take(cw, chosen));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  } while (std::next_permutation(pick.begin(), pick.end()));
}

TEST(rs_code, rejects_bad_parameters) {
  EXPECT_THROW(rs_code(0, 2), util::invariant_error);
  EXPECT_THROW(rs_code(-1, 2), util::invariant_error);
  EXPECT_THROW(rs_code(200, 100), util::invariant_error);
}

TEST(rs_code, rejects_mismatched_shard_sizes) {
  rs_code code(2, 1);
  std::vector<shard> bad = {shard(8, 0), shard(9, 0)};
  EXPECT_THROW((void)code.encode(bad), util::invariant_error);
}

TEST(rs_code, zero_parity_passthrough) {
  prng g(8);
  const auto data = random_shards(3, 8, g);
  rs_code code(3, 0);
  const auto cw = code.encode(data);
  EXPECT_EQ(cw, data);
}

TEST(split_join, roundtrip_exact_multiple) {
  std::vector<std::uint8_t> buf(32);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i);
  }
  const auto shards = split_into_shards(buf, 4);
  ASSERT_EQ(shards.size(), 4u);
  EXPECT_EQ(join_shards(shards, buf.size()), buf);
}

TEST(split_join, roundtrip_with_padding) {
  std::vector<std::uint8_t> buf(29);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 3);
  }
  const auto shards = split_into_shards(buf, 4);
  for (const auto& s : shards) EXPECT_EQ(s.size(), shards.front().size());
  EXPECT_EQ(join_shards(shards, buf.size()), buf);
}

TEST(split_join, empty_buffer) {
  const auto shards = split_into_shards({}, 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_TRUE(join_shards(shards, 0).empty());
}

struct loss_case {
  int k;
  int m;
  unsigned loss_mask;  // bit i set = shard i lost
};

class rs_loss_sweep : public ::testing::TestWithParam<loss_case> {};

TEST_P(rs_loss_sweep, decodes_iff_enough_survivors) {
  const auto [k, m, loss_mask] = GetParam();
  prng g(static_cast<std::uint64_t>(k) * 31 + m * 7 + loss_mask);
  const auto data = random_shards(k, 12, g);
  rs_code code(k, m);
  const auto cw = code.encode(data);
  std::vector<int> survivors;
  for (int i = 0; i < k + m; ++i) {
    if (!(loss_mask & (1u << i))) survivors.push_back(i);
  }
  const auto decoded = code.decode(take(cw, survivors));
  if (static_cast<int>(survivors.size()) >= k) {
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, data);
  } else {
    EXPECT_FALSE(decoded.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    patterns, rs_loss_sweep,
    ::testing::Values(loss_case{4, 4, 0b00000000}, loss_case{4, 4, 0b00001111},
                      loss_case{4, 4, 0b11110000}, loss_case{4, 4, 0b10101010},
                      loss_case{4, 4, 0b01010101}, loss_case{4, 4, 0b11111000},
                      loss_case{2, 6, 0b11111100}, loss_case{6, 2, 0b00000011},
                      loss_case{6, 2, 0b11000000}, loss_case{1, 7, 0b11111110},
                      loss_case{8, 0, 0b00000000},
                      loss_case{8, 0, 0b00000001}));

}  // namespace
}  // namespace mcc::crypto
