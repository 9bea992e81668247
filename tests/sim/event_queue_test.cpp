#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace drep::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(3.0, [&] { order.push_back(3); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(2.0, [&] { order.push_back(2); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
  EXPECT_EQ(queue.processed(), 3u);
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  queue.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, HandlersCanScheduleMoreEvents) {
  EventQueue queue;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) queue.schedule_in(1.0, chain);
  };
  queue.schedule(0.0, chain);
  queue.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(queue.now(), 4.0);
}

TEST(EventQueue, RejectsPastAndEmptyHandlers) {
  EventQueue queue;
  queue.schedule(5.0, [] {});
  queue.run();
  EXPECT_THROW(queue.schedule(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule(6.0, EventQueue::Handler{}), std::invalid_argument);
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  EventQueue queue;
  EXPECT_FALSE(queue.run_next());
  queue.schedule(1.0, [] {});
  EXPECT_TRUE(queue.run_next());
  EXPECT_FALSE(queue.run_next());
}

TEST(EventQueue, EventCapGuardsRunaway) {
  EventQueue queue;
  std::function<void()> forever = [&] { queue.schedule_in(1.0, forever); };
  queue.schedule(0.0, forever);
  EXPECT_THROW(queue.run(100), std::runtime_error);
}

TEST(EventQueue, RejectsNonFiniteTimes) {
  // A NaN timestamp passes the `at < now_` guard (NaN comparisons are all
  // false) and then breaks the heap comparator's strict weak ordering, so
  // pop order would depend on the container's internal state. Regression:
  // non-finite times must be rejected at the door.
  EventQueue queue;
  EXPECT_THROW(
      queue.schedule(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
  EXPECT_THROW(queue.schedule(std::numeric_limits<double>::infinity(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(
      queue.schedule_in(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
  queue.schedule(1.0, [] {});
  EXPECT_EQ(queue.pending(), 1u);
}

// Property: execution order is exactly ascending lexicographic (time, seq)
// with seq assigned at schedule() time — FIFO per timestamp — for any
// randomized mix of duplicate timestamps, including events scheduled from
// inside running handlers at the current instant (the serving engine's
// retune-publish pattern).
TEST(EventQueue, PropertyFifoPerTimestampUnderRandomizedScheduling) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    EventQueue queue;
    // Schedule log: (time, seq) in the order schedule() was called; seq is
    // simply the call index because the queue hands them out monotonically.
    std::vector<std::pair<double, std::size_t>> scheduled;
    std::vector<std::size_t> executed;  // schedule-log indices, in run order
    std::size_t next_id = 0;

    const auto add = [&](double at) {
      const std::size_t id = next_id++;
      scheduled.emplace_back(at, id);
      queue.schedule(at, [&executed, id] { executed.push_back(id); });
    };
    // Few distinct timestamps => many exact ties.
    const std::size_t initial = 30 + rng.index(30);
    for (std::size_t i = 0; i < initial; ++i)
      add(static_cast<double>(rng.index(8)));

    // A handler that occasionally re-schedules at the *current* instant and
    // at later ticks, mid-run.
    const std::size_t cascades = 10 + rng.index(10);
    for (std::size_t i = 0; i < cascades; ++i) {
      const double at = static_cast<double>(rng.index(8));
      const std::size_t id = next_id++;
      scheduled.emplace_back(at, id);
      queue.schedule(at, [&, id] {
        executed.push_back(id);
        if (rng.bernoulli(0.7)) add(queue.now());  // same-instant re-entry
        if (rng.bernoulli(0.5))
          add(queue.now() + static_cast<double>(rng.index(3)));
      });
    }
    queue.run();

    ASSERT_EQ(executed.size(), scheduled.size()) << "seed " << seed;
    // Reference model: stable sort of the schedule log by time alone — the
    // documented lex (time, seq) key, independent of any container state.
    std::vector<std::size_t> expected(scheduled.size());
    for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scheduled[a].first < scheduled[b].first;
                     });
    EXPECT_EQ(executed, expected) << "seed " << seed;
  }
}

// --- differential suite ------------------------------------------------
//
// Every schedule() call is logged with its time; the log index is the seq
// the queue hands out. The reference pop order is a stable sort of the log
// by time alone, i.e. the documented (time, seq) key, computed without any
// queue. The queue coalesces equal-time events into runs behind a
// 4096-entry open-run table, so the schedules below aim at the cases where
// that representation could go wrong: heavy ties, more distinct pending
// times than table entries (collisions seal runs, so one time holds several
// runs), events scheduled at now() from the last event of a run, handlers
// scheduling into older times that are still pending, and -0.0 next to 0.0.
class Differential {
 public:
  /// Schedules an event that logs itself and then runs `then`, if any.
  void add(double at, std::function<void()> then = {}) {
    const std::size_t id = times_.size();
    times_.push_back(at);
    queue.schedule(at, [this, id, then = std::move(then)] {
      executed_.push_back(id);
      if (then) then();
    });
  }

  /// Runs the queue dry and checks its pop order against the reference.
  void check(const std::string& what) {
    queue.run();
    EXPECT_EQ(queue.pending(), 0u) << what;
    EXPECT_EQ(queue.processed(), times_.size()) << what;
    std::vector<std::size_t> expected(times_.size());
    for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return times_[a] < times_[b];
                     });
    ASSERT_EQ(executed_.size(), expected.size()) << what;
    const auto mismatch =
        std::mismatch(executed_.begin(), executed_.end(), expected.begin());
    EXPECT_TRUE(mismatch.first == executed_.end())
        << what << ": first divergence at pop "
        << (mismatch.first - executed_.begin()) << " (ran event "
        << *mismatch.first << " at t=" << times_[*mismatch.first]
        << ", expected event " << *mismatch.second << " at t="
        << times_[*mismatch.second] << ")";
  }

  EventQueue queue;

 private:
  std::vector<double> times_;
  std::vector<std::size_t> executed_;
};

/// One seeded random schedule. `palette` holds the candidate timestamps;
/// `initial` events go in up front and up to `budget` more are scheduled
/// from running handlers: at now(), at a palette time that may already be
/// pending (clamped to now()), or a palette step past now().
void random_schedule(std::uint64_t seed, const std::vector<double>& palette,
                     std::size_t initial, std::size_t budget) {
  util::Rng rng(seed);
  Differential diff;
  const auto pick = [&] { return palette[rng.index(palette.size())]; };
  std::function<void()> cascade = [&] {
    for (int child = 0; child < 2 && budget > 0; ++child) {
      const double now = diff.queue.now();
      switch (rng.index(4)) {
        case 0:
          --budget;
          diff.add(now, cascade);
          break;
        case 1:
          --budget;
          diff.add(std::max(now, pick()), cascade);
          break;
        case 2:
          --budget;
          diff.add(now + palette[rng.index(std::min<std::size_t>(
                             palette.size(), 8))],
                   cascade);
          break;
        default:
          break;
      }
    }
  };
  for (std::size_t i = 0; i < initial; ++i) {
    if (rng.bernoulli(0.3))
      diff.add(pick(), cascade);
    else
      diff.add(pick());
  }
  diff.check("seed " + std::to_string(seed));
}

TEST(EventQueueDifferential, HeavyTies) {
  // Five timestamps, -0.0 among them: nearly every event joins a pending
  // run, and handlers keep appending to the run being drained.
  const std::vector<double> palette{-0.0, 0.0, 1.0, 2.5, 4.0};
  for (std::uint64_t seed = 1; seed <= 30; ++seed)
    random_schedule(seed, palette, 200, 400);
}

TEST(EventQueueDifferential, MoreDistinctTimesThanOpenRunTable) {
  // 9000 distinct timestamps against a 4096-entry table: collisions seal
  // runs, the same time then opens new runs, and handlers append to times
  // whose older runs are sealed but still pending.
  std::vector<double> palette(9000);
  for (std::size_t i = 0; i < palette.size(); ++i)
    palette[i] = 0.37 * static_cast<double>(i % 97) +
                 0.001 * static_cast<double>(i / 97);
  for (std::uint64_t seed = 1; seed <= 6; ++seed)
    random_schedule(seed, palette, 20000, 20000);
}

TEST(EventQueueDifferential, AllDistinctTimes) {
  // No two events share a time: every event is a run of its own.
  std::vector<double> palette(5000);
  for (std::size_t i = 0; i < palette.size(); ++i)
    palette[i] = 0.0137 * static_cast<double>(i + 1);
  Differential diff;
  util::Rng rng(3);
  rng.shuffle(palette);
  for (const double at : palette) diff.add(at);
  diff.check("all distinct");
}

TEST(EventQueueDifferential, TimeOrderedInjectionsWithMessages) {
  // The replay pattern: requests injected in time order at a non-integral
  // spacing (runs opened in time order skip the heap), each sending
  // messages a few latency steps ahead that may answer in turn.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    Differential diff;
    const double latencies[] = {0.0, 1.0, 2.0, 3.0, 5.0};
    std::function<void()> message = [&] {
      if (rng.bernoulli(0.4))
        diff.add(diff.queue.now() + latencies[rng.index(5)], message);
    };
    for (int idx = 0; idx < 12000; ++idx) {
      diff.add(0.0137 * idx, [&] {
        for (std::size_t m = rng.index(3); m > 0; --m)
          diff.add(diff.queue.now() + latencies[rng.index(5)], message);
      });
    }
    diff.check("seed " + std::to_string(seed));
  }
}

TEST(EventQueueDifferential, SameTimeAcrossSealedRunsThenNow) {
  // Several runs at t=1, each sealed by a sweep of 40000 other timestamps,
  // ten per table entry. The last event of the first run then schedules at
  // now(): that event must run after every pending t=1 event of the later
  // runs, not join the run being drained.
  Differential diff;
  const auto sweep = [&](double base) {
    for (int i = 1; i <= 40000; ++i)
      diff.add(base + 1e-5 * static_cast<double>(i));
  };
  diff.add(0.5);  // keeps the t=1 runs off the heap front while they form
  diff.add(1.0);
  diff.add(1.0, [&] {
    diff.add(diff.queue.now());
    diff.add(diff.queue.now(), [&] { diff.add(diff.queue.now()); });
  });
  sweep(2.0);
  diff.add(1.0);
  sweep(3.0);
  diff.add(1.0, [&] { diff.add(diff.queue.now()); });
  diff.add(1.0);
  sweep(4.0);
  diff.add(1.0);
  sweep(5.0);
  diff.check("sealed runs at t=1");
}

TEST(EventQueueDifferential, LastEventOfARunSchedulesAtNow) {
  // The run at t=2 retires before its last handler runs; what that handler
  // schedules at now() opens a fresh run and still runs at t=2, after it.
  Differential diff;
  diff.add(2.0);
  diff.add(2.0, [&] {
    diff.add(diff.queue.now(), [&] { diff.add(diff.queue.now()); });
    diff.add(3.0);
  });
  diff.add(3.0);
  diff.check("reentry at now()");
}

TEST(EventQueueDifferential, NegativeZeroIsZero) {
  // -0.0 == 0.0, so the two are one timestamp and FIFO between them.
  Differential diff;
  diff.add(0.0);
  diff.add(-0.0);
  diff.add(0.0);
  diff.add(-0.0, [&] { diff.add(-0.0); });
  diff.check("signed zeros");
  EXPECT_FALSE(std::signbit(diff.queue.now()));
}

TEST(EventQueue, PendingCount) {
  EventQueue queue;
  queue.schedule(1.0, [] {});
  queue.schedule(2.0, [] {});
  EXPECT_EQ(queue.pending(), 2u);
  queue.run_next();
  EXPECT_EQ(queue.pending(), 1u);
}

}  // namespace
}  // namespace drep::sim
