#include "sim/des.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace drep::sim {
namespace {

net::CostMatrix line_costs() {
  net::CostMatrix costs(3);
  costs.set(0, 1, 2.0);
  costs.set(1, 2, 3.0);
  costs.set(0, 2, 5.0);
  return costs;
}

/// Records everything it receives.
class RecorderNode final : public Node {
 public:
  void handle(const Message& message) override { received.push_back(message); }
  std::vector<Message> received;
};

TEST(DesNetwork, DeliversWithCostProportionalLatency) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs, /*latency_per_cost=*/2.0);
  RecorderNode node0, node1, node2;
  network.attach(0, node0);
  network.attach(1, node1);
  network.attach(2, node2);
  network.send(0, 2, 4.0, WriteShip{7, 0, 42});
  network.run();
  ASSERT_EQ(node2.received.size(), 1u);
  EXPECT_EQ(node2.received[0].from, 0u);
  EXPECT_DOUBLE_EQ(node2.received[0].size_units, 4.0);
  EXPECT_DOUBLE_EQ(network.queue().now(), 10.0);  // 2.0 × C(0,2)=5
  const auto& ship = std::get<WriteShip>(node2.received[0].payload);
  EXPECT_EQ(ship.object, 7u);
  EXPECT_EQ(ship.writer, 0u);
  EXPECT_EQ(ship.id, 42u);
}

TEST(DesNetwork, TrafficAccounting) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  RecorderNode nodes[3];
  for (SiteId i = 0; i < 3; ++i) network.attach(i, nodes[i]);
  network.send(0, 1, 10.0, WriteAck{1});  // data: 10 × 2 = 20
  network.send(1, 2, 0.0, WriteAck{2});   // control: free
  network.send(2, 0, 3.0, WriteAck{3});   // data: 3 × 5 = 15
  network.run();
  EXPECT_DOUBLE_EQ(network.stats().data_traffic, 35.0);
  EXPECT_EQ(network.stats().data_messages, 2u);
  EXPECT_EQ(network.stats().control_messages, 1u);
  EXPECT_EQ(network.stats().total_messages(), 3u);
}

TEST(DesNetwork, SelfSendIsImmediateAndFree) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  RecorderNode node;
  network.attach(1, node);
  network.send(1, 1, 100.0, WriteAck{1});
  network.run();
  ASSERT_EQ(node.received.size(), 1u);
  EXPECT_DOUBLE_EQ(network.stats().data_traffic, 0.0);  // C(1,1)=0
  EXPECT_DOUBLE_EQ(network.queue().now(), 0.0);
}

TEST(DesNetwork, UnattachedDestinationThrows) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  RecorderNode node;
  network.attach(0, node);
  network.send(0, 1, 1.0, WriteAck{1});
  EXPECT_THROW(network.run(), std::logic_error);
}

TEST(DesNetwork, AttachValidation) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  RecorderNode node;
  EXPECT_THROW(network.attach(3, node), std::out_of_range);
  EXPECT_THROW(DesNetwork(costs, -1.0), std::invalid_argument);
}

TEST(DesNetwork, HandlersMaySendMore) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  class Forwarder final : public Node {
   public:
    Forwarder(DesNetwork& net, SiteId self, SiteId next)
        : net_(&net), self_(self), next_(next) {}
    void handle(const Message& message) override {
      if (message.size_units > 1.0)
        net_->send(self_, next_, message.size_units - 1.0, WriteAck{0});
    }
    DesNetwork* net_;
    SiteId self_, next_;
  };
  Forwarder f0(network, 0, 1), f1(network, 1, 2), f2(network, 2, 0);
  network.attach(0, f0);
  network.attach(1, f1);
  network.attach(2, f2);
  network.send(2, 0, 3.0, WriteAck{0});  // 3 hops: 3→2→1, stops at size 1
  network.run();
  EXPECT_EQ(network.stats().data_messages, 3u);
}

// --- the in-flight message slab ------------------------------------------

/// Four sites with pairwise-distinct costs, so deliveries spread over many
/// times and still collide often.
net::CostMatrix square_costs() {
  net::CostMatrix costs(4);
  costs.set(0, 1, 1.0);
  costs.set(0, 2, 2.0);
  costs.set(0, 3, 3.0);
  costs.set(1, 2, 1.5);
  costs.set(1, 3, 2.5);
  costs.set(2, 3, 0.5);
  return costs;
}

/// One send as the test issued it: the payload's tag and where and when it
/// must arrive. The position in the log is the send order.
struct SendRecord {
  std::uint64_t tag;
  std::uint64_t depth;
  SiteId from;
  SiteId to;
  double size_units;
  double arrives_at;
};

/// A message as a node saw it.
struct Arrival {
  SiteId from;
  SiteId to;
  double size_units;
  double at;
  ReadRequest payload;
};

/// Sends fan out: a ReadRequest with id = depth > 0 makes the receiver send
/// `fanout` more at depth - 1, all while its own delivery is in progress.
/// The object field carries a unique tag per message.
class FanoutHarness {
 public:
  FanoutHarness(const net::CostMatrix& costs, std::size_t fanout)
      : costs_(costs), network_(costs), fanout_(fanout) {
    for (SiteId site = 0; site < costs.sites(); ++site) {
      nodes_.push_back(std::make_unique<FanoutNode>(*this, site));
      network_.attach(site, *nodes_.back());
    }
  }

  void send(SiteId from, SiteId to, std::uint64_t depth) {
    const std::uint64_t tag = log_.size();
    const double size = static_cast<double>(tag % 3);
    log_.push_back({tag, depth, from, to, size,
                    network_.queue().now() + costs_.at(from, to)});
    network_.send(from, to, size,
                  ReadRequest{static_cast<core::ObjectId>(tag), depth});
  }

  DesNetwork& network() { return network_; }
  const std::vector<SendRecord>& log() const { return log_; }
  const std::vector<Arrival>& arrivals() const { return arrivals_; }

 private:
  class FanoutNode final : public Node {
   public:
    FanoutNode(FanoutHarness& harness, SiteId self)
        : harness_(&harness), self_(self) {}
    void handle(const Message& message) override {
      const auto& read = std::get<ReadRequest>(message.payload);
      harness_->arrivals_.push_back({message.from, message.to,
                                     message.size_units,
                                     harness_->network_.queue().now(), read});
      if (read.id == 0) return;
      const auto sites = static_cast<SiteId>(harness_->nodes_.size());
      for (std::size_t k = 0; k < harness_->fanout_; ++k) {
        const auto to = static_cast<SiteId>((self_ + 1 + k) % sites);
        harness_->send(self_, to, read.id - 1);
      }
    }

   private:
    FanoutHarness* harness_;
    SiteId self_;
  };

  const net::CostMatrix& costs_;
  DesNetwork network_;
  std::size_t fanout_;
  std::vector<std::unique_ptr<FanoutNode>> nodes_;
  std::vector<SendRecord> log_;
  std::vector<Arrival> arrivals_;
};

// A handler that sends several messages while its own delivery is in
// progress (its slot is already free, and the sends outgrow a slab chunk):
// every payload arrives intact, in the (time, seq) order of a stable sort of
// the send log by arrival time.
TEST(DesNetworkSlab, HandlerSendsDuringItsOwnDelivery) {
  const net::CostMatrix costs = square_costs();
  FanoutHarness harness(costs, /*fanout=*/3);
  // 5000 roots × (1 + 3 + 9) messages; the roots alone are in flight at
  // once, more than one 4096-slot chunk.
  for (std::uint64_t root = 0; root < 5000; ++root)
    harness.send(static_cast<SiteId>(root % 4),
                 static_cast<SiteId>((root + 1) % 4), /*depth=*/2);
  harness.network().run();

  std::vector<SendRecord> expected = harness.log();
  std::stable_sort(expected.begin(), expected.end(),
                   [](const SendRecord& a, const SendRecord& b) {
                     return a.arrives_at < b.arrives_at;
                   });
  const std::vector<Arrival>& arrivals = harness.arrivals();
  ASSERT_EQ(arrivals.size(), expected.size());
  ASSERT_EQ(arrivals.size(), 5000u * 13u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(arrivals[i].payload.object, expected[i].tag);
    EXPECT_EQ(arrivals[i].payload.id, expected[i].depth);
    EXPECT_EQ(arrivals[i].from, expected[i].from);
    EXPECT_EQ(arrivals[i].to, expected[i].to);
    EXPECT_EQ(arrivals[i].size_units, expected[i].size_units);
    EXPECT_EQ(arrivals[i].at, expected[i].arrives_at);
  }
  EXPECT_EQ(harness.network().in_flight(), 0u);
  EXPECT_EQ(harness.network().stats().sent_messages, arrivals.size());
}

// Deliveries dropped at a crashed receiver free their slots; the messages
// sent after the crash reuse them and still arrive intact and in order.
TEST(DesNetworkSlab, SlotsFreedByCrashDropsAreReused) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_probability = 0.2;
  plan.crashes.push_back(CrashWindow{.site = 1, .from = 1.0, .until = 10.0});
  network.set_faults(plan);
  RecorderNode nodes[3];
  for (SiteId i = 0; i < 3; ++i) network.attach(i, nodes[i]);

  constexpr std::uint64_t kBatch = 6000;  // over one 4096-slot chunk
  // Batch one leaves at t=0 and lands at t=2, inside site 1's crash.
  for (std::uint64_t id = 0; id < kBatch; ++id)
    network.send(0, 1, 1.0, UpdateBroadcast{3, id});
  // Batch two leaves at t=12, after the recovery, and lands at t=14.
  network.queue().schedule(12.0, [&network] {
    for (std::uint64_t id = kBatch; id < 2 * kBatch; ++id)
      network.send(0, 1, 1.0, UpdateBroadcast{4, id});
  });
  network.run();

  const TrafficStats& stats = network.stats();
  EXPECT_EQ(network.in_flight(), 0u);
  EXPECT_EQ(stats.sent_messages, 2 * kBatch);
  EXPECT_GT(stats.dropped_link, 0u);
  EXPECT_EQ(stats.dropped_site_down + stats.dropped_link + stats.data_messages,
            2 * kBatch);
  // Every batch-one message that survived the link was dropped at delivery.
  EXPECT_GT(stats.dropped_site_down, kBatch / 2);
  const std::vector<Message>& received = nodes[1].received;
  EXPECT_EQ(received.size(), stats.data_messages);
  std::uint64_t last_id = kBatch - 1;
  for (const Message& message : received) {
    const auto& update = std::get<UpdateBroadcast>(message.payload);
    EXPECT_EQ(update.object, 4u);
    EXPECT_GT(update.id, last_id);  // batch two only, in send order
    last_id = update.id;
  }
}

// The unattached-destination throw frees the offending message first, so
// the network stays usable: pending messages still deliver and new ones
// reuse the slab.
TEST(DesNetworkSlab, UnattachedThrowLeavesNetworkConsistent) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  RecorderNode node0, node1, node2;
  network.attach(0, node0);
  network.attach(2, node2);
  network.send(0, 1, 1.0, WriteAck{1});  // lands at t=2, site 1 unattached
  network.send(0, 2, 1.0, WriteAck{2});  // lands at t=5
  EXPECT_THROW(network.run(), std::logic_error);
  EXPECT_EQ(network.in_flight(), 1u);
  EXPECT_DOUBLE_EQ(network.queue().now(), 2.0);

  network.attach(1, node1);
  network.send(2, 1, 2.0, WriteAck{3});  // lands at t=5
  network.run();
  EXPECT_EQ(network.in_flight(), 0u);
  ASSERT_EQ(node2.received.size(), 1u);
  EXPECT_EQ(std::get<WriteAck>(node2.received[0].payload).id, 2u);
  ASSERT_EQ(node1.received.size(), 1u);
  EXPECT_EQ(std::get<WriteAck>(node1.received[0].payload).id, 3u);
  const TrafficStats& stats = network.stats();
  EXPECT_EQ(stats.sent_messages, 3u);
  EXPECT_EQ(stats.data_messages, 3u);  // the lost one was charged, as before
  EXPECT_DOUBLE_EQ(stats.data_traffic, 1.0 * 2.0 + 1.0 * 5.0 + 2.0 * 3.0);
}

// Messages still in flight when a network is destroyed (its run ended in a
// throw) are destroyed with it, payloads included.
TEST(DesNetworkSlab, DestroyingMidRunReleasesInFlightPayloads) {
  const net::CostMatrix costs = line_costs();
  const auto token = std::make_shared<int>(7);
  {
    DesNetwork network(costs);
    RecorderNode node0;
    network.attach(0, node0);
    for (std::uint64_t seq = 1; seq <= 3; ++seq)
      network.send(0, 1, 0.0, seal(MessageKind::kGaElites, 0, seq, token));
    EXPECT_EQ(token.use_count(), 4);
    EXPECT_THROW(network.run(), std::logic_error);  // site 1 unattached
    EXPECT_EQ(network.in_flight(), 2u);
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// open() is the control protocols' receive gate: a replay payload reaching
// it is rejected as "unknown payload", exactly like the old non-Envelope
// std::any payloads.
TEST(DesNetworkSlab, OpenRejectsNonEnvelopePayloads) {
  const net::CostMatrix costs = line_costs();
  DesNetwork network(costs);
  class EnvelopeNode final : public Node {
   public:
    void handle(const Message& message) override { (void)open(message); }
  };
  EnvelopeNode nodes[3];
  for (SiteId i = 0; i < 3; ++i) network.attach(i, nodes[i]);
  network.send(0, 1, 0.0, ReadRequest{1, 2});
  try {
    network.run();
    FAIL() << "open() accepted a ReadRequest payload";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown payload"),
              std::string::npos);
  }
  EXPECT_EQ(network.in_flight(), 0u);
}

}  // namespace
}  // namespace drep::sim
