#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

namespace drep::sim {

namespace {

/// Heap order: the later (time, seq) key sorts first out of std::*_heap.
/// Sound only because schedule() guarantees `at` is never NaN.
template <typename Key>
bool later(const Key& a, const Key& b) noexcept {
  if (a.at != b.at) return a.at > b.at;
  return a.seq > b.seq;
}

}  // namespace

std::size_t EventQueue::table_index(std::uint64_t bits) noexcept {
  // Fibonacci hashing: the top bits of bits·2^64/φ spread the low-entropy
  // mantissas of nearby latencies across the table.
  static_assert((kOpenRuns & (kOpenRuns - 1)) == 0);
  constexpr int kShift = 64 - std::countr_zero(kOpenRuns);
  return static_cast<std::size_t>((bits * 0x9e37'79b9'7f4a'7c15ULL) >> kShift);
}

EventQueue::Index EventQueue::new_slot(Handler&& handler) {
  Index index = free_slot_;
  if (index != kNone) {
    Slot& slot = slot_at(index);
    free_slot_ = slot.next;
    slot.handler = std::move(handler);
    slot.next = kNone;
    return index;
  }
  if (slot_count_ == chunks_.size() * kChunkSlots) {
    if (slot_count_ >= kNone - kChunkSlots)
      throw std::length_error("EventQueue: too many pending events");
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  index = slot_count_++;
  Slot& slot = slot_at(index);
  slot.handler = std::move(handler);
  slot.next = kNone;
  return index;
}

EventQueue::Index EventQueue::new_run(Index slot) {
  Index run = free_run_;
  if (run != kNone) {
    free_run_ = runs_[run].head;
    runs_[run] = Run{slot, slot};
    return run;
  }
  run = static_cast<Index>(runs_.size());
  runs_.push_back(Run{slot, slot});
  return run;
}

void EventQueue::push_key(const Key& key) {
  if (lane_.empty() || key.at >= lane_.back().at) {
    lane_.push_back(key);  // seq grows too, so the lane stays sorted
    return;
  }
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), later<Key>);
}

bool EventQueue::front_in_lane() const noexcept {
  return !lane_.empty() &&
         (heap_.empty() || later(heap_.front(), lane_[lane_head_]));
}

void EventQueue::pop_key(bool from_lane) {
  if (!from_lane) {
    std::pop_heap(heap_.begin(), heap_.end(), later<Key>);
    heap_.pop_back();
    return;
  }
  if (++lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  } else if (lane_head_ >= 4096 && 2 * lane_head_ >= lane_.size()) {
    // Drop the consumed prefix; amortized O(1) per run.
    lane_.erase(lane_.begin(),
                lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
    lane_head_ = 0;
  }
}

void EventQueue::schedule(SimTime at, Handler handler) {
  // NaN slips past the `at < now_` guard (every NaN comparison is false)
  // and, once in the heap, violates the key's strict weak ordering — pop
  // results then depend on the container's current layout, not the
  // documented (time, seq) key. Infinities are rejected too: an event "at
  // infinity" can never legally be followed by anything.
  if (!std::isfinite(at))
    throw std::invalid_argument("EventQueue::schedule: non-finite time");
  if (at < now_)
    throw std::invalid_argument("EventQueue::schedule: event in the past");
  if (!handler)
    throw std::invalid_argument("EventQueue::schedule: empty handler");
  if (at == 0.0) at = 0.0;  // -0.0 and 0.0 are one timestamp: one bit pattern
  const std::uint64_t seq = next_seq_++;
  const Index slot = new_slot(std::move(handler));
  ++pending_;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(at);
  OpenRun& open = open_[table_index(bits)];
  if (open.bits == bits) {
    Run& run = runs_[open.run];
    slot_at(run.tail).next = slot;
    run.tail = slot;
    return;
  }
  // Miss: open a new run. Whatever run held this entry (at this time or a
  // colliding one) is sealed; its seqs all precede `seq`.
  const Index run = new_run(slot);
  push_key(Key{at, seq, run});
  open = OpenRun{bits, run};
}

void EventQueue::schedule_in(SimTime delay, Handler handler) {
  schedule(now_ + delay, std::move(handler));
}

bool EventQueue::run_next() {
  const bool from_lane = front_in_lane();
  if (!from_lane && heap_.empty()) return false;
  const Key top = from_lane ? lane_[lane_head_] : heap_.front();
  Run& run = runs_[top.run];
  const Index index = run.head;
  Slot& slot = slot_at(index);
  if (index == run.tail) {
    // Last handler of the run: retire it before the handler runs, so an
    // event that handler schedules at now() opens a new run behind it.
    pop_key(from_lane);
    OpenRun& open = open_[table_index(std::bit_cast<std::uint64_t>(top.at))];
    if (open.run == top.run) open = OpenRun{kEmptyBits, kNone};
    run.head = free_run_;
    free_run_ = top.run;
  } else {
    run.head = slot.next;
  }
  --pending_;
  now_ = top.at;
  ++processed_;
  // The handler runs in place: slots never move (the slab grows by whole
  // chunks), and this one joins the free list only after the call, even
  // when the handler throws.
  struct Release {
    EventQueue& queue;
    Slot& slot;
    Index index;
    ~Release() {
      slot.handler = nullptr;
      slot.next = queue.free_slot_;
      queue.free_slot_ = index;
    }
  } release{*this, slot, index};
  slot.handler();
  return true;
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t count = 0;
  while (run_next()) {
    if (++count >= max_events && pending_ != 0)
      throw std::runtime_error("EventQueue::run: event cap exceeded");
  }
  return count;
}

}  // namespace drep::sim
