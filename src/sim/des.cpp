#include "sim/des.hpp"

#include <any>
#include <memory>
#include <stdexcept>
#include <utility>

#include "audit/gate.hpp"
#include "obs/metrics.hpp"

namespace drep::sim {

// A replay keeps up to one message per request in the slab at once, so no
// padding: the inline Envelope (32 bytes with libstdc++'s std::any) sets the
// payload's size, and the replay structs take at most 16 (DESIGN.md §17).
static_assert(sizeof(Envelope) == 16 + sizeof(std::any));
static_assert(sizeof(Message) == 16 + sizeof(Payload));

DesNetwork::DesNetwork(const net::CostMatrix& costs, double latency_per_cost)
    : costs_(&costs),
      latency_per_cost_(latency_per_cost),
      nodes_(costs.sites(), nullptr) {
  if (latency_per_cost < 0.0)
    throw std::invalid_argument("DesNetwork: negative latency factor");
}

void DesNetwork::attach(SiteId site, Node& node) {
  if (site >= nodes_.size())
    throw std::out_of_range("DesNetwork::attach: site out of range");
  nodes_[site] = &node;
}

void DesNetwork::set_faults(FaultPlan plan) {
  plan.validate();
  for (const CrashWindow& window : plan.crashes) {
    if (window.site >= nodes_.size())
      throw std::invalid_argument("DesNetwork::set_faults: crash site out of range");
  }
  faults_ = std::move(plan);
  fault_rng_ = util::Rng(faults_->seed);
  // Notify nodes at every window edge. Edge events are scheduled up front
  // (before any protocol traffic at the same timestamp), so a node crashed
  // from t=0 sees on_crash before its bootstrap messages would fire.
  for (const CrashWindow& window : faults_->crashes) {
    const SiteId site = window.site;
    queue_.schedule(window.from, [this, site] {
      if (nodes_[site] != nullptr) nodes_[site]->on_crash();
    });
    if (window.until < std::numeric_limits<double>::infinity()) {
      queue_.schedule(window.until, [this, site] {
        if (nodes_[site] != nullptr) nodes_[site]->on_recover();
      });
    }
  }
}

double DesNetwork::worst_one_way_latency() const noexcept {
  double worst = 0.0;
  for (SiteId i = 0; i < nodes_.size(); ++i) {
    for (SiteId j = 0; j < nodes_.size(); ++j) {
      const double latency = latency_per_cost_ * costs_->at(i, j);
      if (latency > worst) worst = latency;
    }
  }
  return worst;
}

DesNetwork::Index DesNetwork::new_slot(SiteId from, SiteId to,
                                       double size_units, Payload&& payload) {
  Index index = free_slot_;
  if (index != kNone) {
    free_slot_ = slot_at(index).next;
  } else {
    if (slot_count_ == chunks_.size() * kChunkSlots) {
      if (slot_count_ >= kNone - kChunkSlots)
        throw std::length_error("DesNetwork: too many messages in flight");
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    }
    index = slot_count_++;
  }
  std::construct_at(&slot_at(index).message, from, to, size_units,
                    std::move(payload));
  ++in_flight_;
  return index;
}

void DesNetwork::free_slot(Index index) noexcept {
  Slot& slot = slot_at(index);
  std::destroy_at(&slot.message);
  slot.next = free_slot_;
  free_slot_ = index;
  --in_flight_;
}

DesNetwork::~DesNetwork() {
  if (in_flight_ == 0) return;
  // A run that ended in an exception leaves messages in the slab.
  std::vector<bool> is_free(slot_count_, false);
  for (Index index = free_slot_; index != kNone; index = slot_at(index).next)
    is_free[index] = true;
  for (Index index = 0; index < slot_count_; ++index) {
    if (!is_free[index]) std::destroy_at(&slot_at(index).message);
  }
}

void DesNetwork::send(SiteId from, SiteId to, double size_units,
                      Payload payload) {
  ++stats_.sent_messages;
  double latency = latency_per_cost_ * costs_->at(from, to);
  if (faults_) {
    // A crashed site neither sends nor receives.
    if (faults_->site_down(from, queue_.now())) {
      ++stats_.dropped_site_down;
      return;
    }
    if (from != to) {
      // Draw both decisions unconditionally so the fault stream consumed
      // per message is independent of the configured rates.
      const bool dropped = fault_rng_.bernoulli(faults_->drop_probability);
      const bool spiked = fault_rng_.bernoulli(faults_->spike_probability);
      if (dropped) {
        ++stats_.dropped_link;
        return;
      }
      if (spiked) {
        latency *= faults_->spike_factor;
        ++stats_.latency_spikes;
      }
    }
  }
  const Index index = new_slot(from, to, size_units, std::move(payload));
  // {this, index} fits std::function's inline buffer: no allocation.
  try {
    queue_.schedule_in(latency, [this, index] { deliver(index); });
  } catch (...) {
    free_slot(index);
    throw;
  }
}

void DesNetwork::deliver(Index index) {
  // Free the slot before the handler runs: its sends may reuse it.
  const Message message = std::move(slot_at(index).message);
  free_slot(index);
  if (faults_ && faults_->site_down(message.to, queue_.now())) {
    ++stats_.dropped_site_down;
    return;
  }
  if (message.size_units > 0) {
    stats_.data_traffic +=
        message.size_units * costs_->at(message.from, message.to);
    ++stats_.data_messages;
  } else {
    ++stats_.control_messages;
  }
  Node* node = nodes_[message.to];
  if (node == nullptr)
    throw std::logic_error("DesNetwork: message to unattached site");
  node->handle(message);
}

void DesNetwork::publish_counters() {
  // Deltas since the last publish; a counter is touched only when its delta
  // is non-zero, as the per-message counting did.
  const TrafficStats& last = published_;
  if (const std::size_t data = stats_.data_messages - last.data_messages) {
    DREP_COUNT("drep_des_data_messages_total", data);
    DREP_COUNT("drep_des_traffic_units_total",
               stats_.data_traffic - last.data_traffic);
  }
  if (const std::size_t control =
          stats_.control_messages - last.control_messages)
    DREP_COUNT("drep_des_control_messages_total", control);
  if (const std::size_t link = stats_.dropped_link - last.dropped_link)
    DREP_COUNT("drep_des_dropped_link_total", link);
  if (const std::size_t down =
          stats_.dropped_site_down - last.dropped_site_down)
    DREP_COUNT("drep_des_dropped_site_down_total", down);
  if (const std::size_t spikes = stats_.latency_spikes - last.latency_spikes)
    DREP_COUNT("drep_des_latency_spikes_total", spikes);
  published_ = stats_;
}

void DesNetwork::run() {
  struct Publish {
    DesNetwork& network;
    ~Publish() { network.publish_counters(); }
  } publish{*this};
  queue_.run();
  // Audit (compiled out unless DREP_AUDIT=ON): after the queue drains, every
  // message ever sent must be accounted for as delivered or dropped.
  DREP_AUDIT_ENFORCE("des/run",
                     ::drep::audit::check_message_conservation(
                         {.sent = stats_.sent_messages,
                          .delivered_data = stats_.data_messages,
                          .delivered_control = stats_.control_messages,
                          .dropped_link = stats_.dropped_link,
                          .dropped_site_down = stats_.dropped_site_down,
                          .in_flight = 0}));
}

}  // namespace drep::sim
