// Metric arithmetic of the end-to-end benchmark, kept free of simulator
// types so metric_math_test.cc can pin every rule on hand-made inputs:
// percentiles and the "at least ten samples beyond" rule, span self time,
// ratios with an explicit base, failure counting, and the snapshot digest.
#ifndef E2EBENCH_METRIC_MATH_H
#define E2EBENCH_METRIC_MATH_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// 1-based nearest rank of the p-th percentile among n samples, clamped to
/// [1, n]. The epsilon keeps decimal percentiles such as 99.9, which are not
/// exact in binary, from rounding one rank up.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::min(n, static_cast<std::size_t>(std::max(r, 1.0)));
}

/// Nearest-rank percentile of `v` (p in (0, 100]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

inline double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// Samples strictly above the nearest-rank p-th percentile position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// The highest of the candidate percentiles (ascending) that still leaves at
/// least `min_beyond` samples above it; 0 when even the lowest does not.
inline double highest_supported_percentile(
    std::size_t n, const std::vector<double>& candidates = {50, 90, 99, 99.9},
    std::size_t min_beyond = 10) {
  double best = 0.0;
  for (const double p : candidates) {
    if (samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Spans and self time
// ---------------------------------------------------------------------------

/// One recorded span; `parent` indexes the same world's span vector
/// (-1 = top level). Times are steady-clock nanoseconds.
struct span {
  int kind = 0;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

/// Total length of the union of intervals, each first clipped to
/// [lo, hi]; overlapping or nested intervals count once.
inline std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> iv, std::int64_t lo,
    std::int64_t hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_a = 0;
  std::int64_t cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children.
inline std::vector<std::int64_t> self_times(const std::vector<span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() -
              covered_ns(kids[i], spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

// ---------------------------------------------------------------------------
// Ratios
// ---------------------------------------------------------------------------

/// A ratio that keeps its base: printed as "value (num / base)" so every
/// reported fraction says what it was taken of. A zero base reads 0.
struct ratio {
  double num = 0.0;
  double base = 0.0;
  [[nodiscard]] double value() const { return base != 0.0 ? num / base : 0.0; }
};

// Every ratio the benchmark reports, with its base spelled out once.

/// Scheduler events per link delivery.
inline ratio events_per_hop(double events, double deliveries) {
  return {events, deliveries};
}
/// Dropped packets over packets offered to links. Arrival drops never enter
/// the queue, so the offered count is enqueued + dropped.
inline ratio drop_frac(double dropped, double enqueued) {
  return {dropped, enqueued + dropped};
}
/// Valid SIGMA key submissions over all submissions.
inline ratio valid_key_frac(double valid, double invalid) {
  return {valid, valid + invalid};
}
/// Congestion-manager lookups whose cap bound, over all lookups.
inline ratio capped_frac(double capped, double lookups) {
  return {capped, lookups};
}
/// Summed per-world busy time over the capacity of the sweep's threads.
inline ratio busy_frac(double busy_s, double wall_s, int threads) {
  return {busy_s, wall_s * threads};
}
/// Traced wall over untraced wall, minus one.
inline ratio overhead_frac(double traced_wall_s, double untraced_wall_s) {
  return {traced_wall_s - untraced_wall_s, untraced_wall_s};
}
/// Failed worlds over worlds attempted.
inline ratio fail_frac(std::size_t failed, std::size_t attempted) {
  return {static_cast<double>(failed), static_cast<double>(attempted)};
}
/// A count or simulated span per host second of the simulate phase.
inline ratio per_host_second(double amount, double simulate_s) {
  return {amount, simulate_s};
}

// ---------------------------------------------------------------------------
// Failure counting
// ---------------------------------------------------------------------------

/// Per-link counters the conservation checks read (a copy of the fields of
/// sim::link_stats they need, so tests can break them on purpose).
struct link_sample {
  std::uint64_t enqueued = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t aqm_dropped = 0;
  /// Drops taken from inside the queue (CoDel's head drops). Arrival drops
  /// (tail overflow, RED) never enter the queue, so only these count
  /// against `enqueued`.
  std::uint64_t dequeue_dropped = 0;
  std::int64_t queued_bytes = 0;
  std::int64_t max_queued_bytes = 0;
  std::int64_t capacity_bytes = 0;
};

/// First broken link invariant, or "" when the link is consistent:
/// delivered + in-queue drops <= enqueued, policy drops within all drops,
/// and queued bytes (now and at peak) within [0, capacity].
inline std::string link_violation(const link_sample& l) {
  if (l.delivered + l.dequeue_dropped > l.enqueued) {
    return "delivered + dequeue drops exceed enqueued";
  }
  if (l.aqm_dropped > l.dropped) return "aqm drops exceed total drops";
  if (l.queued_bytes < 0 || l.queued_bytes > l.capacity_bytes) {
    return "queued bytes outside [0, capacity]";
  }
  if (l.max_queued_bytes > l.capacity_bytes) {
    return "queue high-water above capacity";
  }
  return {};
}

/// First NaN among analysis outputs, or "" when all are numbers.
inline std::string nan_violation(
    const std::vector<std::pair<std::string, double>>& outputs) {
  for (const auto& [name, v] : outputs) {
    if (std::isnan(v)) return "NaN analysis output " + name;
  }
  return {};
}

/// Outcome of one world in one iteration.
struct world_outcome {
  std::string failure;  // "" = passed every check
  std::uint64_t digest = 0;
};

/// Counts failed worlds over a set of iterations: a world fails on its own
/// recorded failure, or when its digest differs from the same world's digest
/// in the first iteration (the reference). Returns {attempted, failed}.
inline std::pair<std::size_t, std::size_t> count_failures(
    const std::vector<std::vector<world_outcome>>& iterations) {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto& it : iterations) {
    const auto& ref = iterations.front();
    for (std::size_t i = 0; i < it.size(); ++i) {
      ++attempted;
      const bool digest_ok = i < ref.size() && it[i].digest == ref[i].digest;
      if (!it[i].failure.empty() || !digest_ok) ++failed;
    }
  }
  return {attempted, failed};
}

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

/// FNV-1a 64 over names and the exact bit patterns of values, so any change
/// in any metric of the snapshot (or any analysis output) moves it.
class digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void text(const std::string& s) {
    bytes(s.data(), s.size());
    const unsigned char sep = 0;
    bytes(&sep, 1);
  }
  void number(double v) {
    std::array<unsigned char, sizeof v> raw{};
    std::memcpy(raw.data(), &v, sizeof v);
    bytes(raw.data(), raw.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace e2e

#endif  // E2EBENCH_METRIC_MATH_H
