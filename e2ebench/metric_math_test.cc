// Tests of the benchmark's metric arithmetic (metric_math.h). Standalone:
// exits non-zero and names the failed check on any mismatch.
//
//   cmake --build .bench_build/e2ebench --target e2ebench_test
//   .bench_build/e2ebench/e2ebench_test
#include <cmath>
#include <cstdio>
#include <limits>

#include "metric_math.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  check(e2e::percentile(v, 50) == 5, "nearest-rank p50 of 1..10 is 5");
  check(e2e::percentile(v, 90) == 9, "nearest-rank p90 of 1..10 is 9");
  check(e2e::percentile(v, 100) == 10, "p100 is the maximum");
  check(e2e::percentile({}, 50) == 0, "empty sample reads 0");
  check(e2e::median({3, 1, 2, 4}) == 2.5, "even-sized median averages");

  check(e2e::samples_beyond(120, 90) == 12, "120 samples: 12 beyond p90");
  check(e2e::samples_beyond(100, 90) == 10, "100 samples: 10 beyond p90");
  check(e2e::samples_beyond(99, 90) == 9, "99 samples: 9 beyond p90");
  // The highest percentile with >= 10 samples beyond it.
  check(e2e::highest_supported_percentile(19) == 0, "19 samples support none");
  check(e2e::highest_supported_percentile(20) == 50, "20 samples: p50");
  check(e2e::highest_supported_percentile(99) == 50, "99 samples: p50");
  check(e2e::highest_supported_percentile(100) == 90, "100 samples: p90");
  check(e2e::highest_supported_percentile(120) == 90, "120 samples: p90");
  check(e2e::highest_supported_percentile(999) == 90, "999 samples: p90");
  check(e2e::highest_supported_percentile(1000) == 99, "1000 samples: p99");
  check(e2e::highest_supported_percentile(10000) == 99.9,
        "10000 samples: p99.9");
}

void self_time() {
  // parent [0,100] with children [10,20], [15,30] (overlapping) and
  // [90,120] (overhanging); a grandchild [16,18] is covered by its own
  // parent and must not be subtracted from the grandparent twice.
  std::vector<e2e::span> s = {
      {0, -1, 0, 100}, {1, 0, 10, 20}, {1, 0, 15, 30},
      {1, 0, 90, 120}, {2, 2, 16, 18},
  };
  const std::vector<std::int64_t> self = e2e::self_times(s);
  check(self[0] == 100 - 20 - 10, "parent self = duration - child union");
  check(self[1] == 10, "leaf self = duration");
  check(self[2] == 15 - 2, "child self excludes its grandchild");
  check(self[3] == 30, "overhanging leaf keeps its whole duration");
  check(e2e::covered_ns({{0, 10}, {5, 15}, {20, 30}}, 0, 100) == 25,
        "interval union merges overlaps");
  check(e2e::covered_ns({{0, 10}, {20, 30}}, 5, 25) == 10,
        "interval union clips to the window");
  check(e2e::covered_ns({}, 0, 10) == 0, "empty union is 0");
}

void ratio_bases() {
  check(e2e::ratio{1, 0}.value() == 0, "zero base reads 0");
  const e2e::ratio hop = e2e::events_per_hop(290, 100);
  check(hop.base == 100 && near(hop.value(), 2.9),
        "events_per_hop base is link deliveries");
  const e2e::ratio drop = e2e::drop_frac(25, 75);
  check(drop.base == 100 && near(drop.value(), 0.25),
        "drop_frac base is enqueued + dropped");
  const e2e::ratio keys = e2e::valid_key_frac(30, 10);
  check(keys.base == 40 && near(keys.value(), 0.75),
        "valid_key_frac base is valid + invalid");
  const e2e::ratio cap = e2e::capped_frac(5, 20);
  check(cap.base == 20 && near(cap.value(), 0.25),
        "capped_frac base is lookups");
  check(e2e::capped_frac(0, 0).value() == 0, "no lookups: capped_frac 0");
  const e2e::ratio busy = e2e::busy_frac(3, 2, 2);
  check(busy.base == 4 && near(busy.value(), 0.75),
        "busy_frac base is wall x threads");
  const e2e::ratio over = e2e::overhead_frac(1.1, 1.0);
  check(over.base == 1.0 && near(over.value(), 0.1),
        "overhead_frac is traced / untraced - 1");
  const e2e::ratio fail = e2e::fail_frac(1, 4);
  check(fail.base == 4 && near(fail.value(), 0.25),
        "fail_frac base is worlds attempted");
  const e2e::ratio rate = e2e::per_host_second(200, 0.5);
  check(rate.base == 0.5 && near(rate.value(), 400),
        "per_host_second base is simulate-phase host seconds");
}

void fail_counting() {
  e2e::link_sample ok;
  ok.enqueued = 100;
  ok.delivered = 90;
  ok.dropped = 40;  // arrival drops: never enqueued, so not held against it
  ok.queued_bytes = 500;
  ok.max_queued_bytes = 1000;
  ok.capacity_bytes = 1000;
  check(e2e::link_violation(ok).empty(), "consistent link passes");

  e2e::link_sample broken = ok;
  broken.delivered = 101;  // the deliberately broken invariant
  check(!e2e::link_violation(broken).empty(),
        "delivering more than was enqueued fails");
  e2e::link_sample codel = ok;
  codel.aqm_dropped = codel.dequeue_dropped = 11;
  check(!e2e::link_violation(codel).empty(),
        "delivered + dequeue drops above enqueued fails");
  e2e::link_sample over = ok;
  over.queued_bytes = 1001;
  check(!e2e::link_violation(over).empty(), "queue above capacity fails");
  e2e::link_sample neg = ok;
  neg.queued_bytes = -1;
  check(!e2e::link_violation(neg).empty(), "negative queue fails");
  e2e::link_sample peak = ok;
  peak.max_queued_bytes = 1001;
  check(!e2e::link_violation(peak).empty(), "high-water above capacity fails");

  const double nan = std::numeric_limits<double>::quiet_NaN();
  check(e2e::nan_violation({{"a", 1.0}, {"b", -1.0}}).empty(),
        "finite outputs pass");
  check(!e2e::nan_violation({{"a", 1.0}, {"b", nan}}).empty(),
        "a NaN output fails");

  // Two iterations of three worlds: iteration 2 breaks world 0's link
  // invariant and changes world 2's digest.
  const std::vector<std::vector<e2e::world_outcome>> its = {
      {{"", 1}, {"", 2}, {"", 3}},
      {{e2e::link_violation(broken), 1}, {"", 2}, {"", 4}},
  };
  const auto [attempted, failed] = e2e::count_failures(its);
  check(attempted == 6, "every world of every iteration is attempted");
  check(failed == 2, "broken invariant and digest change each fail a world");
  check(near(e2e::fail_frac(failed, attempted).value(), 2.0 / 6.0),
        "fail_frac = 2 / 6");
  const auto [a2, f2] = e2e::count_failures({{{"", 1}}, {{"", 1}}});
  check(a2 == 2 && f2 == 0, "identical clean worlds do not fail");
}

void digests() {
  e2e::digest a;
  a.text("x");
  a.number(1.0);
  e2e::digest b;
  b.text("x");
  b.number(1.0);
  check(a.value() == b.value(), "equal inputs give equal digests");
  e2e::digest c;
  c.text("x");
  c.number(std::nextafter(1.0, 2.0));
  check(a.value() != c.value(), "one ulp moves the digest");
  e2e::digest d;
  d.text("x1");
  e2e::digest e;
  e.text("x");
  e.text("1");
  check(d.value() != e.value(), "name boundaries are part of the digest");
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  ratio_bases();
  fail_counting();
  digests();
  if (failures > 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("metric_math_test: all checks passed\n");
  return 0;
}
