#include "crypto/rs_code.h"

#include <algorithm>

#include "crypto/gf256.h"
#include "util/require.h"

namespace mcc::crypto {

namespace {

using matrix = std::vector<std::vector<std::uint8_t>>;

/// Inverts a square GF(256) matrix with Gauss-Jordan elimination.
/// Returns an empty matrix if singular (cannot happen for Vandermonde
/// submatrices with distinct points, but kept defensive).
matrix invert(matrix a) {
  const std::size_t n = a.size();
  matrix inv(n, std::vector<std::uint8_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) inv[i][i] = 1;

  for (std::size_t col = 0; col < n; ++col) {
    // Find pivot.
    std::size_t pivot = col;
    while (pivot < n && a[pivot][col] == 0) ++pivot;
    if (pivot == n) return {};
    std::swap(a[pivot], a[col]);
    std::swap(inv[pivot], inv[col]);

    const std::uint8_t scale = gf256::inv(a[col][col]);
    for (std::size_t j = 0; j < n; ++j) {
      a[col][j] = gf256::mul(a[col][j], scale);
      inv[col][j] = gf256::mul(inv[col][j], scale);
    }
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col || a[row][col] == 0) continue;
      const std::uint8_t factor = a[row][col];
      for (std::size_t j = 0; j < n; ++j) {
        a[row][j] = gf256::add(a[row][j], gf256::mul(factor, a[col][j]));
        inv[row][j] = gf256::add(inv[row][j], gf256::mul(factor, inv[col][j]));
      }
    }
  }
  return inv;
}

}  // namespace

rs_code::rs_code(int data_shards, int parity_shards)
    : k_(data_shards), m_(parity_shards) {
  util::require(k_ >= 1, "rs_code: need at least one data shard");
  util::require(m_ >= 0, "rs_code: parity count must be non-negative");
  util::require(k_ + m_ <= 255, "rs_code: k + m must fit in GF(256)");
  vand_.assign(static_cast<std::size_t>(m_),
               std::vector<std::uint8_t>(static_cast<std::size_t>(k_), 0));
  // Row i evaluates the data polynomial at point alpha^(k + i); combined with
  // the implicit identity rows this forms a Vandermonde generator matrix in
  // which every k x k submatrix with distinct points is invertible.
  for (int i = 0; i < m_; ++i) {
    const std::uint8_t point = gf256::pow(2, k_ + i + 1);
    for (int j = 0; j < k_; ++j) {
      vand_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          gf256::pow(point, j);
    }
  }
}

std::vector<shard> rs_code::encode(const std::vector<shard>& data) const {
  util::require(static_cast<int>(data.size()) == k_,
                "rs_code::encode: wrong shard count");
  const std::size_t len = data.empty() ? 0 : data.front().size();
  for (const auto& s : data) {
    util::require(s.size() == len, "rs_code::encode: unequal shard sizes");
  }

  std::vector<shard> out = data;
  for (int i = 0; i < m_; ++i) {
    shard parity(len, 0);
    for (int j = 0; j < k_; ++j) {
      const std::uint8_t coeff =
          vand_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (coeff == 0) continue;
      const auto& src = data[static_cast<std::size_t>(j)];
      for (std::size_t b = 0; b < len; ++b) {
        parity[b] = gf256::add(parity[b], gf256::mul(coeff, src[b]));
      }
    }
    out.push_back(std::move(parity));
  }
  return out;
}

std::optional<std::vector<shard>> rs_code::decode(
    const std::vector<indexed_shard>& received) const {
  if (static_cast<int>(received.size()) < k_) return std::nullopt;

  // Use the first k distinct indices.
  std::vector<const indexed_shard*> chosen;
  std::vector<bool> seen(static_cast<std::size_t>(k_ + m_), false);
  for (const auto& r : received) {
    util::require(r.index >= 0 && r.index < k_ + m_,
                  "rs_code::decode: shard index out of range");
    if (seen[static_cast<std::size_t>(r.index)]) continue;
    seen[static_cast<std::size_t>(r.index)] = true;
    chosen.push_back(&r);
    if (static_cast<int>(chosen.size()) == k_) break;
  }
  if (static_cast<int>(chosen.size()) < k_) return std::nullopt;

  const std::size_t len = chosen.front()->data.size();
  for (const auto* c : chosen) {
    util::require(c->data.size() == len, "rs_code::decode: unequal shard sizes");
  }

  // Fast path: all data shards present.
  const bool all_data = std::all_of(chosen.begin(), chosen.end(),
                                    [&](const auto* c) { return c->index < k_; });
  if (all_data) {
    std::vector<shard> out(static_cast<std::size_t>(k_));
    for (const auto* c : chosen) out[static_cast<std::size_t>(c->index)] = c->data;
    return out;
  }

  // Build the k x k generator submatrix for the chosen shards.
  matrix sub(static_cast<std::size_t>(k_),
             std::vector<std::uint8_t>(static_cast<std::size_t>(k_), 0));
  for (int row = 0; row < k_; ++row) {
    const int idx = chosen[static_cast<std::size_t>(row)]->index;
    if (idx < k_) {
      sub[static_cast<std::size_t>(row)][static_cast<std::size_t>(idx)] = 1;
    } else {
      sub[static_cast<std::size_t>(row)] = vand_[static_cast<std::size_t>(idx - k_)];
    }
  }
  matrix decode_matrix = invert(std::move(sub));
  if (decode_matrix.empty()) return std::nullopt;

  std::vector<shard> out(static_cast<std::size_t>(k_), shard(len, 0));
  for (int i = 0; i < k_; ++i) {
    auto& dst = out[static_cast<std::size_t>(i)];
    for (int j = 0; j < k_; ++j) {
      const std::uint8_t coeff =
          decode_matrix[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (coeff == 0) continue;
      const auto& src = chosen[static_cast<std::size_t>(j)]->data;
      for (std::size_t b = 0; b < len; ++b) {
        dst[b] = gf256::add(dst[b], gf256::mul(coeff, src[b]));
      }
    }
  }
  return out;
}

std::vector<shard> split_into_shards(const std::vector<std::uint8_t>& buffer,
                                     int k) {
  util::require(k >= 1, "split_into_shards: k must be positive");
  const std::size_t shard_len = (buffer.size() + static_cast<std::size_t>(k) - 1) /
                                static_cast<std::size_t>(k);
  std::vector<shard> shards(static_cast<std::size_t>(k),
                            shard(std::max<std::size_t>(shard_len, 1), 0));
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    shards[i / shard_len][i % shard_len] = buffer[i];
  }
  return shards;
}

std::vector<std::uint8_t> join_shards(const std::vector<shard>& shards,
                                      std::size_t original_size) {
  std::vector<std::uint8_t> out;
  out.reserve(original_size);
  for (const auto& s : shards) {
    for (std::uint8_t b : s) {
      if (out.size() == original_size) return out;
      out.push_back(b);
    }
  }
  util::require(out.size() == original_size,
                "join_shards: shards smaller than original size");
  return out;
}

}  // namespace mcc::crypto
