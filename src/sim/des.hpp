#pragma once
// Message-passing network simulation over a cost matrix.
//
// Sites are Node subclasses attached to a DesNetwork; send() delivers a
// Message after a latency proportional to the per-unit cost C(from,to) and
// charges `size_units × C(from,to)` of traffic — the same NTC unit the
// analytic cost model uses, which is what makes replayed traffic directly
// comparable to D. Zero-size messages model control traffic (the paper
// treats its cost as negligible; we deliver it with latency but charge no
// NTC).
//
// With a FaultPlan attached (set_faults), the network becomes imperfect:
// messages are dropped with the plan's link-loss probability, latencies
// spike, messages from or to a crashed site are discarded, and nodes are
// told about their own crash/recover window edges. NTC is charged at
// delivery, so dropped messages cost nothing and retransmitted duplicates
// cost full price — the replayed traffic of a faulty run prices the
// protocol's retry overhead.
//
// The message path allocates nothing per message (DESIGN.md §17): payloads
// are a closed variant, in-flight messages live in a chunked slab, and the
// delivery event captures only the slab index. The drep_des_* counters are
// published once per run() from TrafficStats.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "net/topology.hpp"
#include "sim/envelope.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plan.hpp"
#include "sim/replay_payloads.hpp"
#include "util/rng.hpp"

namespace drep::sim {

using net::SiteId;

/// Everything a DES message can carry: the control protocols' Envelope
/// (whose own payload stays type-erased) and the replay protocol's structs.
using Payload = std::variant<Envelope, ReadRequest, ReadResponse, WriteShip,
                             WriteAck, UpdateBroadcast, UpdateAck,
                             MigrationShip>;

struct Message {
  SiteId from = 0;
  SiteId to = 0;
  /// Payload size in data units; 0 for control messages.
  double size_units = 0.0;
  Payload payload;
};

/// A site-resident protocol endpoint.
class Node {
 public:
  virtual ~Node() = default;
  virtual void handle(const Message& message) = 0;
  /// Fault-plan window edges for this node's site. A node should drop its
  /// in-flight protocol state on crash and may re-announce itself on
  /// recover; the network already discards its traffic while down.
  virtual void on_crash() {}
  virtual void on_recover() {}
};

struct TrafficStats {
  /// Σ size_units × C(from,to) over all delivered data messages.
  double data_traffic = 0.0;
  /// Every send() attempt, counted before any fault can claim the message —
  /// the conservation law sent = delivered + dropped + in-flight is audited
  /// against this under DREP_AUDIT.
  std::size_t sent_messages = 0;
  std::size_t data_messages = 0;
  std::size_t control_messages = 0;
  /// Fault-plan casualties: messages lost to link loss, messages discarded
  /// because an endpoint was crashed, and deliveries that took a latency
  /// spike. All zero on a perfect network.
  std::size_t dropped_link = 0;
  std::size_t dropped_site_down = 0;
  std::size_t latency_spikes = 0;
  [[nodiscard]] std::size_t total_messages() const noexcept {
    return data_messages + control_messages;
  }
  [[nodiscard]] std::size_t dropped_messages() const noexcept {
    return dropped_link + dropped_site_down;
  }
};

class DesNetwork {
 public:
  /// `latency_per_cost` converts a per-unit cost into a delivery delay.
  explicit DesNetwork(const net::CostMatrix& costs,
                      double latency_per_cost = 1.0);
  DesNetwork(const DesNetwork&) = delete;
  DesNetwork& operator=(const DesNetwork&) = delete;
  ~DesNetwork();

  [[nodiscard]] std::size_t sites() const noexcept { return nodes_.size(); }
  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }
  /// Messages sent and not yet delivered or dropped.
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }

  /// Attaches the fault plan (validated). Crash/recover notifications are
  /// scheduled for every window edge, so call before run(). Passing a plan
  /// with all-zero rates and no windows still counts as "faults armed" —
  /// protocols key their retry machinery on faults_armed().
  void set_faults(FaultPlan plan);
  [[nodiscard]] bool faults_armed() const noexcept {
    return faults_.has_value();
  }
  [[nodiscard]] const FaultPlan* fault_plan() const noexcept {
    return faults_ ? &*faults_ : nullptr;
  }
  /// True when `site` is not inside a crash window at the current sim time
  /// (always true without a plan).
  [[nodiscard]] bool site_up(SiteId site) const noexcept {
    return !faults_ || !faults_->site_down(site, queue_.now());
  }
  /// latency_per_cost × max C(i,j): the worst healthy one-way delivery
  /// latency, the anchor for RetryPolicy::resolve_base.
  [[nodiscard]] double worst_one_way_latency() const noexcept;

  /// Attaches the protocol endpoint for `site`; the node must outlive the
  /// network's event processing.
  void attach(SiteId site, Node& node);

  /// Sends a message; delivery is scheduled after
  /// latency_per_cost × C(from,to) (immediate for from == to). Traffic is
  /// charged at delivery. Throws std::logic_error when the destination has
  /// no attached node at delivery time; the message is gone by then, so the
  /// network stays usable.
  void send(SiteId from, SiteId to, double size_units, Payload payload);

  /// Runs the simulation until no events remain, then adds this run's
  /// TrafficStats deltas to the drep_des_* counters (also when a handler
  /// throws).
  void run();

 private:
  using Index = std::uint32_t;
  static constexpr Index kNone = ~Index{0};
  static constexpr unsigned kChunkBits = 12;
  static constexpr Index kChunkSlots = Index{1} << kChunkBits;

  /// An in-flight message, or the free-list link of an empty slot.
  union Slot {
    Slot() noexcept {}
    ~Slot() {}
    Message message;
    Index next;
  };

  [[nodiscard]] Slot& slot_at(Index index) noexcept {
    return chunks_[index >> kChunkBits][index & (kChunkSlots - 1)];
  }
  Index new_slot(SiteId from, SiteId to, double size_units, Payload&& payload);
  void free_slot(Index index) noexcept;
  void deliver(Index index);
  void publish_counters();

  const net::CostMatrix* costs_;
  double latency_per_cost_;
  EventQueue queue_;
  std::vector<Node*> nodes_;
  TrafficStats stats_;
  /// stats_ as of the last publish_counters().
  TrafficStats published_;
  std::optional<FaultPlan> faults_;
  util::Rng fault_rng_;
  /// In-flight message slab in fixed chunks: a message never moves, and
  /// growing the slab never holds two copies of it.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Index slot_count_ = 0;
  Index free_slot_ = kNone;
  std::size_t in_flight_ = 0;
};

}  // namespace drep::sim
