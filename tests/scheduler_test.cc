#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "crypto/prng.h"
#include "sim/event_train.h"

namespace mcc::sim {
namespace {

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

TEST(scheduler, post_interleaves_with_at_in_when_seq_order) {
  scheduler s;
  std::vector<int> order;
  s.at(milliseconds(2), [&] { order.push_back(0); });
  s.post(milliseconds(1), [&] { order.push_back(1); });
  s.at(milliseconds(1), [&] { order.push_back(2); });
  s.post(milliseconds(2), [&] { order.push_back(3); });
  s.post(milliseconds(1), [&] {
    order.push_back(4);
    // Scheduled now, for now: after everything already due at this time.
    s.post(s.now(), [&] { order.push_back(5); });
    s.at(s.now(), [&] { order.push_back(6); });
  });
  EXPECT_EQ(s.pending_events(), 5u);
  // A long equal-time run mixing both: each takes its own sequence number,
  // so they fire exactly in scheduling order.
  for (int i = 10; i < 40; ++i) {
    if (i % 3 == 0) {
      s.post(milliseconds(3), [&order, i] { order.push_back(i); });
    } else {
      s.at(milliseconds(3), [&order, i] { order.push_back(i); });
    }
  }
  s.run();
  std::vector<int> expected{1, 2, 4, 5, 6, 0, 3};
  for (int i = 10; i < 40; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(s.executed_events(), 37u);
  EXPECT_THROW(s.post(milliseconds(1), [] {}), util::invariant_error);
}

TEST(scheduler, captured_shared_ptr_is_released_exactly_once) {
  // A callable holding a shared_ptr relocates through its move constructor
  // (not memcpy); the count must balance whether the event fires, is
  // cancelled, is still pending when the scheduler dies, or is relocated
  // because the slab grew.
  const auto token = std::make_shared<int>(0);
  int fired = 0;
  {
    scheduler s;
    s.post(milliseconds(1), [token, &fired] { fired += *token + 1; });
    event_handle h = s.at(milliseconds(2), [token] {});
    s.post(milliseconds(50), [token] {});  // never fires before destruction
    EXPECT_EQ(token.use_count(), 4);
    h.cancel();
    EXPECT_EQ(token.use_count(), 3);
    s.run_until(milliseconds(10));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(token.use_count(), 2);
    // Grow the slab well past its initial reservation; trivially copyable
    // callables relocate by memcpy alongside the shared_ptr ones.
    std::vector<int> seen;
    for (int i = 0; i < 3000; ++i) {
      if (i % 2 == 0) {
        s.post(milliseconds(20) + i, [token, &seen, i] { seen.push_back(i); });
      } else {
        s.post(milliseconds(20) + i, [&seen, i] { seen.push_back(i); });
      }
    }
    EXPECT_EQ(token.use_count(), 2 + 1500);
    s.run_until(milliseconds(30));
    ASSERT_EQ(seen.size(), 3000u);
    for (int i = 0; i < 3000; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
    }
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
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

// --- randomized order oracle ------------------------------------------------

/// Brute-force reference queue: every pop scans all entries for the least
/// live (when, seq), seq being the scheduling order. O(n) per pop, and
/// obviously correct, which is the point.
class reference_queue {
 public:
  class handle {
   public:
    void cancel() { q_->entries_[idx_].live = false; }

   private:
    friend class reference_queue;
    handle(reference_queue* q, std::size_t idx) : q_(q), idx_(idx) {}
    reference_queue* q_;
    std::size_t idx_;
  };

  [[nodiscard]] time_ns now() const { return now_; }
  handle at(time_ns when, std::function<void()> fn) {
    EXPECT_GE(when, now_);
    entries_.push_back({when, std::move(fn), true});
    return handle(this, entries_.size() - 1);
  }
  handle after(time_ns delay, std::function<void()> fn) {
    return at(now_ + delay, std::move(fn));
  }
  void run() {
    for (;;) {
      const std::size_t none = entries_.size();
      std::size_t best = none;
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        // Index order is scheduling order, so a strict < keeps FIFO ties.
        if (entries_[i].live &&
            (best == none || entries_[i].when < entries_[best].when)) {
          best = i;
        }
      }
      if (best == none) return;
      entries_[best].live = false;
      now_ = entries_[best].when;
      // Move the callable out: it may schedule, growing entries_.
      std::function<void()> fn = std::move(entries_[best].fn);
      fn();
    }
  }

 private:
  struct entry {
    time_ns when;
    std::function<void()> fn;
    bool live;
  };
  std::vector<entry> entries_;
  time_ns now_ = 0;
};

/// Drives one queue (the scheduler or the reference) through a
/// deterministic random schedule/cancel/nested workload and returns the
/// exact fire order (event ids).
template <typename Queue>
std::vector<std::uint64_t> random_workload_fire_order(std::uint64_t seed) {
  Queue s;
  std::vector<std::uint64_t> log;
  std::vector<decltype(s.at(0, [] {}))> handles;
  std::uint64_t state = seed;
  std::uint64_t nested_id = 100000;
  // Delay spreads from microseconds to hours, so short and long timers mix
  // and many delays collide on equal times only by accident.
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

TEST(scheduler, random_workload_matches_brute_force_reference) {
  // Identical event streams fire in the reference's exact (when, seq) order,
  // cancellations and nested scheduling included.
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    const auto order = random_workload_fire_order<scheduler>(seed);
    ASSERT_FALSE(order.empty());
    EXPECT_EQ(order, random_workload_fire_order<reference_queue>(seed))
        << "seed " << seed;
  }
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
std::vector<std::uint64_t> train_world_fire_order(std::uint64_t seed,
                                                  bool trains,
                                                  std::uint64_t* executed) {
  constexpr time_ns grid = 1000;
  constexpr int kTrains = 3;
  scheduler s;
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

TEST(event_train, fires_exactly_like_pre_scheduling) {
  for (std::uint64_t seed : {3ULL, 17ULL, 0xfeedULL, 0xc0ffeeULL}) {
    std::uint64_t ref_executed = 0;
    const auto reference = train_world_fire_order(seed, false, &ref_executed);
    ASSERT_GT(reference.size(), 2000u) << "seed " << seed;
    std::uint64_t executed = 0;
    EXPECT_EQ(train_world_fire_order(seed, true, &executed), reference)
        << "seed " << seed;
    EXPECT_EQ(executed, ref_executed) << "seed " << seed;
  }
}

/// Batches shaped like a FLID sender's: a few ascending runs (one per
/// group) on a coarse grid, so equal times within and across runs are
/// common.
struct run_batches {
  crypto::prng rng;
  std::uint64_t next_id = 0;

  template <typename Add>
  void issue(time_ns now, Add add) {
    constexpr time_ns grid = 1000;
    const auto runs = rng.uniform_int(1, 5);
    for (std::int64_t r = 0; r < runs; ++r) {
      time_ns when = now + grid * rng.uniform_int(0, 10);
      const auto len = rng.uniform_int(1, 8);
      for (std::int64_t k = 0; k < len; ++k) {
        add(when, next_id++);
        when += grid * rng.uniform_int(0, 2);
      }
    }
  }
  /// Two of three fired items launch another batch, while the train still
  /// holds undrained items of earlier ones.
  [[nodiscard]] bool relaunch(std::uint64_t id) const {
    return next_id < 3000 && id % 3 != 0;
  }
};

using fire_log = std::vector<std::pair<time_ns, std::uint64_t>>;

fire_log train_fire_log(std::uint64_t seed) {
  scheduler s;
  run_batches src{crypto::prng(seed)};
  fire_log log;
  event_train<std::uint64_t>* train = nullptr;
  const auto add = [&](time_ns when, std::uint64_t id) {
    train->add(when, id);
  };
  event_train<std::uint64_t> t(s, [&](std::uint64_t& id) {
    log.emplace_back(s.now(), id);
    if (src.relaunch(id)) {
      src.issue(s.now(), add);
      train->launch();
    }
  });
  train = &t;
  src.issue(0, add);
  t.launch();
  s.run();
  return log;
}

/// The same batches through a std::sort of everything pending at every
/// launch: what event_train did before it merged runs.
fire_log sorted_reference_fire_log(std::uint64_t seed) {
  run_batches src{crypto::prng(seed)};
  fire_log log;
  std::vector<std::pair<time_ns, std::uint64_t>> pending;  // (when, add order)
  const auto add = [&](time_ns when, std::uint64_t id) {
    pending.emplace_back(when, id);
  };
  src.issue(0, add);
  std::sort(pending.begin(), pending.end());
  while (!pending.empty()) {
    const auto [when, id] = pending.front();
    pending.erase(pending.begin());
    log.emplace_back(when, id);
    if (src.relaunch(id)) {
      src.issue(when, add);
      std::sort(pending.begin(), pending.end());
    }
  }
  return log;
}

TEST(event_train, merged_launch_fires_like_a_sorted_reference) {
  for (std::uint64_t seed : {5ULL, 29ULL, 0xabcdULL, 0x5eedULL}) {
    const fire_log reference = sorted_reference_fire_log(seed);
    ASSERT_GT(reference.size(), 2500u) << "seed " << seed;
    EXPECT_EQ(train_fire_log(seed), reference) << "seed " << seed;
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
