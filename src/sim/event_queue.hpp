#pragma once
// Discrete-event simulation kernel: a time-ordered queue of closures with
// FIFO tie-breaking. Deliberately minimal — the network layer (des.hpp)
// builds message passing on top of it.
//
// Ordering contract: events pop in ascending lexicographic (time, seq)
// order, where seq is a monotonic sequence number assigned at schedule()
// time. Same-timestamp events therefore run in exactly the order they were
// scheduled (FIFO per timestamp), including events scheduled from inside a
// running handler at the current instant — the serving engine's
// retune-publish events land at identical instants and rely on this. The
// key is a property of the entries alone, never of the queue's internal
// state; non-finite timestamps are rejected at schedule() because a NaN key
// would break the heap's strict weak ordering and make pop order depend on
// the insertion history, and -0.0 is stored as 0.0 (the two compare equal,
// so they are one timestamp). Pinned by the EventQueue property and
// differential tests.
//
// Representation (DESIGN.md §16). Almost every DES event shares its
// timestamp with one already pending — latencies are λ·C(i,j) over a small
// set of C values and replays inject whole traces at t=0 — so events are
// coalesced into *runs*: FIFO lists of handlers at one timestamp, kept in a
// handler slab. Only runs are ordered, keyed by the POD (time, seq of the
// run's first event), in a min-heap or, when opened in time order, a
// sorted FIFO lane; the earlier of the two fronts runs next. A
// direct-mapped table of kOpenRuns entries maps a timestamp to its newest
// run; schedule() appends to it on a hit and otherwise opens a new run. A
// run that drops out of the table (a colliding timestamp took its entry)
// is *sealed*: nothing is appended to it again, and every seq in it is
// smaller than the first seq of any later run at the same time, so
// (time, first seq) drains the runs of one timestamp in seq order. A run
// leaves the table before its last handler runs, so an event scheduled at
// now() from that handler opens a new run behind it.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace drep::sim {

using SimTime = double;

class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Schedules `handler` at absolute time `at` (finite and >= now(); throws
  /// std::invalid_argument otherwise). Events at equal times run in
  /// scheduling order (the (time, seq) contract above).
  void schedule(SimTime at, Handler handler);
  /// Schedules `handler` `delay` time units from now.
  void schedule_in(SimTime delay, Handler handler);

  /// Pops and runs the earliest event, advancing now(). Returns false when
  /// the queue is empty.
  bool run_next();

  /// Runs until the queue drains or `max_events` events have run; returns
  /// the number of events processed by this call. Throws std::runtime_error
  /// when the cap is hit (runaway simulation guard).
  std::size_t run(std::size_t max_events = 100'000'000);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] std::size_t processed() const noexcept { return processed_; }

 private:
  using Index = std::uint32_t;
  static constexpr Index kNone = ~Index{0};
  /// Open-run table size (a power of two). More distinct pending times than
  /// this only costs extra runs, never order.
  static constexpr std::size_t kOpenRuns = 4096;

  /// One scheduled handler; `next` links the slots of a run, or the free
  /// list.
  struct Slot {
    Handler handler;
    Index next;
  };
  /// Handlers at one timestamp, oldest first.
  struct Run {
    Index head;
    Index tail;
  };
  /// Heap key of a run: its time and the seq of its first event.
  struct Key {
    SimTime at;
    std::uint64_t seq;
    Index run;
  };
  /// Open-run table entry: a timestamp's bits and its newest run. Empty
  /// entries hold a NaN pattern, which no scheduled time can have.
  struct OpenRun {
    std::uint64_t bits;
    Index run;
  };
  static constexpr std::uint64_t kEmptyBits = 0x7ff8'dead'0000'0001ULL;

  [[nodiscard]] static std::size_t table_index(std::uint64_t bits) noexcept;
  [[nodiscard]] Slot& slot_at(Index index) noexcept {
    return chunks_[index >> kChunkBits][index & (kChunkSlots - 1)];
  }
  Index new_slot(Handler&& handler);
  Index new_run(Index slot);
  void push_key(const Key& key);
  [[nodiscard]] bool front_in_lane() const noexcept;
  void pop_key(bool from_lane);

  /// Handler slab in fixed chunks, so a slot never moves and a handler
  /// can run in place while it schedules more events.
  static constexpr unsigned kChunkBits = 12;
  static constexpr Index kChunkSlots = Index{1} << kChunkBits;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Index slot_count_ = 0;
  std::vector<Run> runs_;
  std::vector<Key> heap_;  // binary min-heap of runs by (at, seq)
  /// Runs opened in time order skip the heap: a run no earlier than the
  /// lane's newest is appended here, sorted by construction. Replays inject
  /// their trace in time order, so the heap holds only in-flight messages.
  /// Non-empty exactly while lane_head_ < lane_.size().
  std::vector<Key> lane_;
  std::size_t lane_head_ = 0;
  std::vector<OpenRun> open_ =
      std::vector<OpenRun>(kOpenRuns, OpenRun{kEmptyBits, kNone});
  Index free_slot_ = kNone;
  Index free_run_ = kNone;  // chained through Run::head
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  std::size_t processed_ = 0;
};

}  // namespace drep::sim
