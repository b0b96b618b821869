#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "crypto/prng.h"
#include "sim/event_train.h"

namespace mcc::sim {
namespace {

scheduler_config wheel_cfg(time_ns granularity = 1024) {
  scheduler_config cfg;
  cfg.policy = sched_policy::wheel;
  cfg.wheel_granularity = granularity;
  return cfg;
}

TEST(scheduler, starts_at_time_zero) {
  scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(scheduler, events_fire_in_time_order) {
  scheduler s;
  std::vector<int> order;
  s.at(milliseconds(30), [&] { order.push_back(3); });
  s.at(milliseconds(10), [&] { order.push_back(1); });
  s.at(milliseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(scheduler, equal_time_events_fire_in_scheduling_order) {
  scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(milliseconds(5), [&, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(scheduler, now_advances_to_event_time) {
  scheduler s;
  time_ns seen = -1;
  s.at(seconds(1.5), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, seconds(1.5));
  EXPECT_EQ(s.now(), seconds(1.5));
}

TEST(scheduler, after_is_relative_to_now) {
  scheduler s;
  time_ns seen = -1;
  s.at(milliseconds(100), [&] {
    s.after(milliseconds(50), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, milliseconds(150));
}

TEST(scheduler, run_until_stops_at_horizon) {
  scheduler s;
  int fired = 0;
  s.at(milliseconds(10), [&] { ++fired; });
  s.at(milliseconds(30), [&] { ++fired; });
  s.run_until(milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), milliseconds(20));
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(milliseconds(40));
  EXPECT_EQ(fired, 2);
}

TEST(scheduler, rejects_events_in_the_past) {
  scheduler s;
  s.at(milliseconds(10), [] {});
  s.run_until(milliseconds(20));
  EXPECT_THROW(s.at(milliseconds(5), [] {}), util::invariant_error);
}

TEST(scheduler, cancel_prevents_execution) {
  scheduler s;
  int fired = 0;
  event_handle h = s.at(milliseconds(10), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(scheduler, cancel_is_idempotent_and_safe_after_fire) {
  scheduler s;
  int fired = 0;
  event_handle h = s.at(milliseconds(1), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
  h.cancel();
}

TEST(scheduler, default_handle_is_inert) {
  event_handle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(scheduler, handle_outlives_scheduler) {
  event_handle h;
  {
    scheduler s;
    h = s.at(milliseconds(10), [] {});
    EXPECT_TRUE(h.pending());
  }
  // The scheduler (and its event pool) are gone; the handle must go inert
  // rather than dangle.
  EXPECT_FALSE(h.pending());
  h.cancel();  // safe no-op
}

TEST(scheduler, stale_handle_does_not_affect_recycled_slot) {
  scheduler s;
  int first = 0;
  int second = 0;
  event_handle h1 = s.at(milliseconds(1), [&] { ++first; });
  s.run();
  ASSERT_EQ(first, 1);
  // The fired event's pool slot is recycled by the next schedule; the old
  // handle's generation is stale, so cancelling it must not touch the new
  // event.
  event_handle h2 = s.at(milliseconds(2), [&] { ++second; });
  EXPECT_FALSE(h1.pending());
  h1.cancel();
  EXPECT_TRUE(h2.pending());
  s.run();
  EXPECT_EQ(second, 1);
}

TEST(scheduler, cancel_from_within_an_event) {
  scheduler s;
  int fired = 0;
  event_handle victim = s.at(milliseconds(10), [&] { ++fired; });
  s.at(milliseconds(5), [&] { victim.cancel(); });
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(scheduler, fifo_tie_break_survives_cancellations) {
  scheduler s;
  std::vector<int> order;
  std::vector<event_handle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(s.at(milliseconds(5), [&, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 20; i += 2) handles[static_cast<std::size_t>(i)].cancel();
  s.run();
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(2 * i + 1));
  }
}

TEST(scheduler, pool_reuse_under_churn_stays_deterministic) {
  // Schedule/cancel/fire far more events than the pool's initial capacity,
  // interleaved, and check the executed count and clock.
  scheduler s;
  std::uint64_t fired = 0;
  std::vector<event_handle> cancelled;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 500; ++i) {
      s.at(milliseconds(round * 10 + 1), [&] { ++fired; });
      cancelled.push_back(s.at(milliseconds(round * 10 + 2), [&] { ++fired; }));
    }
    for (auto& h : cancelled) h.cancel();
    cancelled.clear();
    s.run_until(milliseconds(round * 10 + 5));
  }
  EXPECT_EQ(fired, 5000u);
  EXPECT_EQ(s.executed_events(), 5000u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(scheduler, large_capture_falls_back_to_heap_and_still_runs) {
  scheduler s;
  std::array<std::uint64_t, 32> big{};  // 256 bytes: exceeds inline storage
  big[31] = 7;
  std::uint64_t seen = 0;
  s.at(milliseconds(1), [big, &seen] { seen = big[31]; });
  s.run();
  EXPECT_EQ(seen, 7u);
}

TEST(scheduler, events_scheduled_during_execution_run) {
  scheduler s;
  std::vector<int> order;
  s.at(milliseconds(10), [&] {
    order.push_back(1);
    s.after(0, [&] { order.push_back(2); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(scheduler, executed_event_count) {
  scheduler s;
  for (int i = 0; i < 5; ++i) s.at(milliseconds(i), [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 5u);
}

TEST(scheduler, cascading_chain_terminates_at_horizon) {
  scheduler s;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    s.after(milliseconds(10), tick);
  };
  s.at(0, tick);
  s.run_until(milliseconds(95));
  EXPECT_EQ(count, 10);  // t = 0, 10, ..., 90
}

// --- timer-wheel policy ------------------------------------------------------

TEST(scheduler_wheel, reports_policy_and_fires_in_order) {
  scheduler s(wheel_cfg());
  EXPECT_EQ(s.policy(), sched_policy::wheel);
  std::vector<int> order;
  s.at(milliseconds(30), [&] { order.push_back(3); });
  s.at(milliseconds(10), [&] { order.push_back(1); });
  s.at(milliseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), milliseconds(30));
}

TEST(scheduler_wheel, equal_time_events_keep_scheduling_order) {
  // Intra-bucket order is (when, seq): events parked in the same bucket must
  // come out in FIFO order even after a cascade reshuffles the bucket.
  scheduler s(wheel_cfg());
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(seconds(1.0), [&, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(scheduler_wheel, handle_outlives_scheduler) {
  event_handle h;
  {
    scheduler s(wheel_cfg());
    h = s.at(milliseconds(10), [] {});
    EXPECT_TRUE(h.pending());
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // safe no-op
}

TEST(scheduler_wheel, stale_handle_does_not_affect_recycled_slot) {
  scheduler s(wheel_cfg());
  int first = 0;
  int second = 0;
  event_handle h1 = s.at(milliseconds(1), [&] { ++first; });
  s.run();
  ASSERT_EQ(first, 1);
  event_handle h2 = s.at(milliseconds(2), [&] { ++second; });
  EXPECT_FALSE(h1.pending());
  h1.cancel();  // stale generation: must not touch the recycled slot
  EXPECT_TRUE(h2.pending());
  s.run();
  EXPECT_EQ(second, 1);
}

TEST(scheduler_wheel, cancel_in_bucket_prevents_execution) {
  // Cancel events parked at every wheel level (and the far wheel) before any
  // cascade has moved them; none may fire, and the queue must drain fully.
  scheduler s(wheel_cfg());
  int fired = 0;
  std::vector<event_handle> doomed;
  doomed.push_back(s.at(microseconds(5), [&] { ++fired; }));     // level 0
  doomed.push_back(s.at(milliseconds(3), [&] { ++fired; }));     // level 1+
  doomed.push_back(s.at(seconds(2.0), [&] { ++fired; }));        // level 2+
  doomed.push_back(s.at(seconds(8000.0), [&] { ++fired; }));     // far wheel
  int kept = 0;
  s.at(seconds(9000.0), [&] { ++kept; });
  EXPECT_EQ(s.pending_events(), 5u);
  for (auto& h : doomed) h.cancel();
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(kept, 1);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(scheduler_wheel, far_wheel_cascades_at_rollover_boundary) {
  // With granularity 1024 ns the wheel spans 2^42 ns; events right below,
  // at, and past the boundary must still fire in exact time order.
  scheduler s(wheel_cfg());
  const time_ns span = time_ns{1} << 42;
  std::vector<int> order;
  s.at(span + 1, [&] { order.push_back(4); });        // far wheel
  s.at(span, [&] { order.push_back(3); });            // far wheel (exactly)
  s.at(span - 1, [&] { order.push_back(2); });        // top level
  s.at(milliseconds(1), [&] { order.push_back(1); }); // level 1
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.now(), span + 1);
}

TEST(scheduler_wheel, far_jump_skips_idle_rotations) {
  // An empty wheel with only a very-far event must jump the horizon rather
  // than cascade through every rotation in between.
  scheduler s(wheel_cfg());
  const time_ns far_out = (time_ns{1} << 42) * 5 + 12345;
  time_ns seen = -1;
  s.at(far_out, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, far_out);
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(scheduler_wheel, run_until_stops_at_horizon) {
  scheduler s(wheel_cfg());
  int fired = 0;
  s.at(milliseconds(10), [&] { ++fired; });
  s.at(milliseconds(30), [&] { ++fired; });
  s.run_until(milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), milliseconds(20));
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(milliseconds(40));
  EXPECT_EQ(fired, 2);
}

TEST(scheduler_wheel, coarse_granularity_still_fires_in_exact_order) {
  // A 1 ms bucket holds many distinct timestamps; the due heap must still
  // fire them in exact (when, seq) order, not bucket order.
  scheduler s(wheel_cfg(milliseconds(1)));
  std::vector<int> order;
  s.at(microseconds(900), [&] { order.push_back(3); });
  s.at(microseconds(100), [&] { order.push_back(1); });
  s.at(microseconds(500), [&] { order.push_back(2); });
  s.at(milliseconds(2) + microseconds(1), [&] { order.push_back(5); });
  s.at(milliseconds(2), [&] { order.push_back(4); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

/// Drives one scheduler through a deterministic random schedule/cancel/nested
/// workload and returns the exact fire order (event ids).
std::vector<std::uint64_t> random_workload_fire_order(scheduler_config cfg,
                                                      std::uint64_t seed) {
  scheduler s(cfg);
  std::vector<std::uint64_t> log;
  std::vector<event_handle> handles;
  std::uint64_t state = seed;
  std::uint64_t nested_id = 100000;
  // Delay spreads chosen to land in every wheel level and the far wheel
  // (granularity 1024 ns: levels roll over at 2^18, 2^26, 2^34, 2^42 ns).
  const std::array<std::uint64_t, 5> spreads = {
      std::uint64_t{1} << 12, std::uint64_t{1} << 20, std::uint64_t{1} << 28,
      std::uint64_t{1} << 36, std::uint64_t{1} << 43};
  for (std::uint64_t i = 0; i < 600; ++i) {
    const std::uint64_t r = crypto::splitmix64(state);
    const time_ns delay =
        static_cast<time_ns>(r % spreads[i % spreads.size()]);
    handles.push_back(s.at(delay, [&, i, delay] {
      log.push_back(i);
      // A third of events schedule a follow-up, so the workload also
      // exercises scheduling from inside callbacks at a moved clock.
      if (i % 3 == 0) {
        const std::uint64_t id = nested_id++;
        s.after(delay / 2 + 1, [&log, id] { log.push_back(id); });
      }
    }));
  }
  // Cancel a deterministic quarter of them, some already near the front.
  for (std::size_t i = 0; i < handles.size(); i += 4) handles[i].cancel();
  s.run();
  return log;
}

TEST(scheduler_wheel, randomized_equivalence_with_heap) {
  // The tentpole determinism claim: identical event streams fire in an
  // identical order under both queue policies, cancellations and nested
  // scheduling included.
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    const auto heap_order = random_workload_fire_order({}, seed);
    const auto wheel_order = random_workload_fire_order(wheel_cfg(), seed);
    ASSERT_FALSE(heap_order.empty());
    EXPECT_EQ(heap_order, wheel_order) << "seed " << seed;
    // Coarser buckets change nothing either: the due heap restores exact
    // order inside each bucket.
    const auto coarse_order =
        random_workload_fire_order(wheel_cfg(microseconds(100)), seed);
    EXPECT_EQ(heap_order, coarse_order) << "seed " << seed;
  }
}

TEST(scheduler_wheel, rejects_nonpositive_granularity) {
  scheduler_config cfg = wheel_cfg(0);
  EXPECT_THROW(scheduler s(cfg), util::invariant_error);
}

// ---------------------------------------------------------------------------
// Reserved sequence numbers and packet trains
// ---------------------------------------------------------------------------

TEST(scheduler_reserved, reserved_number_keeps_its_place_in_the_tie_order) {
  scheduler s;
  std::vector<int> order;
  s.at(milliseconds(5), [&] { order.push_back(0); });
  const seq_block block = s.reserve_seqs(2);
  s.at(milliseconds(5), [&] { order.push_back(3); });
  // Scheduled last and out of order, the reserved pair still fires where
  // two at() calls made at reservation time would have.
  s.at(milliseconds(5), block[1], [&] { order.push_back(2); });
  s.at(milliseconds(5), block[0], [&] { order.push_back(1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(scheduler_reserved, rejects_unreserved_numbers_and_the_past) {
  scheduler s;
  const seq_block block = s.reserve_seqs(2);
  EXPECT_THROW(s.at(milliseconds(1), reserved_seq{}, [] {}),
               util::invariant_error);
  EXPECT_THROW(s.at(milliseconds(1), block[2], [] {}), util::invariant_error);
  EXPECT_THROW(s.at(milliseconds(1), seq_block{}[0], [] {}),
               util::invariant_error);
  s.run_until(milliseconds(10));
  EXPECT_THROW(s.at(milliseconds(5), block[0], [] {}), util::invariant_error);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(event_train, destroying_a_train_cancels_its_queued_head) {
  scheduler s;
  int fired = 0;
  {
    event_train<int> train(s, [&](int&) { ++fired; });
    train.add(milliseconds(1), 1);
    train.add(milliseconds(2), 2);
    train.launch();
    EXPECT_EQ(s.pending_events(), 1u);
  }
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(s.executed_events(), 0u);
}

/// A seeded world of ordinary events and batches of items. Items and
/// events sit on a coarse time grid, so equal-time ties between train
/// items, other trains' items, and unrelated events are common; batches
/// land on trains that still hold items of earlier batches; and some items
/// schedule follow-ups at the current time. With `trains` on, every batch
/// rides one of a few event_trains; with it off, every item is
/// pre-scheduled with at() when its batch is issued. Returns the fire log.
std::vector<std::uint64_t> train_world_fire_order(scheduler_config cfg,
                                                  std::uint64_t seed,
                                                  bool trains,
                                                  std::uint64_t* executed) {
  constexpr time_ns grid = 1000;
  constexpr int kTrains = 3;
  scheduler s(cfg);
  crypto::prng rng(seed);
  std::vector<std::uint64_t> log;
  std::uint64_t next_id = 0;

  const auto on_item = [&](std::uint64_t id) {
    log.push_back(id);
    if (id % 4 == 0) {
      const std::uint64_t follow = next_id++;
      s.at(s.now() + grid * static_cast<time_ns>(id % 3),
           [&log, follow] { log.push_back(follow); });
    }
  };
  std::vector<std::unique_ptr<event_train<std::uint64_t>>> lines;
  for (int t = 0; t < kTrains; ++t) {
    lines.push_back(std::make_unique<event_train<std::uint64_t>>(
        s, [&](std::uint64_t& id) { on_item(id); }));
  }
  const auto issue_batch = [&](std::size_t line) {
    const auto n = rng.uniform_int(1, 12);
    for (std::int64_t k = 0; k < n; ++k) {
      const time_ns when = s.now() + grid * rng.uniform_int(0, 20);
      const std::uint64_t id = next_id++;
      if (trains) {
        lines[line]->add(when, id);
      } else {
        s.at(when, [&on_item, id] { on_item(id); });
      }
    }
    if (trains) lines[line]->launch();
  };
  for (int i = 0; i < 400; ++i) {
    const time_ns when = grid * rng.uniform_int(0, 500);
    const std::uint64_t id = next_id++;
    s.at(when, [&, id, i] {
      log.push_back(id);
      if (i % 3 != 2) issue_batch(static_cast<std::size_t>(i) % kTrains);
    });
  }
  s.run();
  *executed = s.executed_events();
  return log;
}

TEST(event_train, fires_exactly_like_pre_scheduling_under_both_policies) {
  for (std::uint64_t seed : {3ULL, 17ULL, 0xfeedULL, 0xc0ffeeULL}) {
    std::uint64_t ref_executed = 0;
    const auto reference =
        train_world_fire_order({}, seed, false, &ref_executed);
    ASSERT_GT(reference.size(), 2000u) << "seed " << seed;
    for (const scheduler_config& cfg :
         {scheduler_config{}, wheel_cfg(), wheel_cfg(microseconds(100))}) {
      std::uint64_t executed = 0;
      EXPECT_EQ(train_world_fire_order(cfg, seed, true, &executed), reference)
          << "seed " << seed << " policy " << sched_policy_name(cfg.policy)
          << " granularity " << cfg.wheel_granularity;
      EXPECT_EQ(executed, ref_executed) << "seed " << seed;
      std::uint64_t wheel_ref_executed = 0;
      EXPECT_EQ(train_world_fire_order(cfg, seed, false, &wheel_ref_executed),
                reference)
          << "seed " << seed << " pre-scheduled under "
          << sched_policy_name(cfg.policy);
    }
  }
}

TEST(time_helpers, conversions_are_consistent) {
  EXPECT_EQ(seconds(1.0), 1'000'000'000);
  EXPECT_EQ(milliseconds(250), 250'000'000);
  EXPECT_EQ(microseconds(5), 5'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(80)), 80.0);
}

TEST(time_helpers, transmission_time_matches_rate) {
  // 1000 bytes at 1 Mbps = 8 ms.
  EXPECT_EQ(transmission_time(1000, 1e6), milliseconds(8));
  // 576 bytes at 10 Mbps = 460.8 us.
  EXPECT_EQ(transmission_time(576, 10e6), nanoseconds(460'800));
}

}  // namespace
}  // namespace mcc::sim
