#include "sim/access_replay.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <variant>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace drep::sim {

namespace {

using core::ObjectId;

/// Retry-layer context shared by all nodes of one replay.
struct ReplayContext {
  RetryPolicy policy;
  double base = 0.0;
  ReplayResult* result = nullptr;
  std::uint64_t next_id = 1;
  /// Tallies of the drep_replay_* counters that no ReplayResult field
  /// holds: a request lost to a crash is a failed read or write, but it
  /// was never counted as a failed request or a stale update.
  std::size_t failed_requests = 0;
  std::size_t stale_updates = 0;
};

/// Adds the totals of one completed replay of `requests` requests to the
/// drep_replay_* counters, once per replay instead of one atomic add per
/// event. A counter is touched only when its total is non-zero, as the
/// per-event counting did.
void publish_counters(const ReplayContext& ctx, std::size_t requests) {
  const ReplayResult& result = *ctx.result;
  if (requests != 0) DREP_COUNT("drep_replay_requests_total", requests);
  if (result.local_reads != 0)
    DREP_COUNT("drep_replay_local_reads_total", result.local_reads);
  if (result.remote_reads != 0)
    DREP_COUNT("drep_replay_remote_reads_total", result.remote_reads);
  if (result.degraded_reads != 0)
    DREP_COUNT("drep_replay_degraded_reads_total", result.degraded_reads);
  if (result.writes != 0)
    DREP_COUNT("drep_replay_writes_total", result.writes);
  if (ctx.failed_requests != 0)
    DREP_COUNT("drep_replay_failed_requests_total", ctx.failed_requests);
  if (ctx.stale_updates != 0)
    DREP_COUNT("drep_replay_stale_updates_total", ctx.stale_updates);
  if (result.online_evictions != 0)
    DREP_COUNT("drep_replay_online_evictions_total", result.online_evictions);
  if (result.online_migrations != 0) {
    DREP_COUNT("drep_replay_online_migrations_total",
               result.online_migrations);
  }
}

/// One protocol endpoint per site. All sites share the scheme (the paper's
/// two-field (SP_k, SN_k) record per object is exactly what
/// ReplicationScheme::nearest/primary provide).
class ReplicaNode final : public Node {
 public:
  ReplicaNode(SiteId self, const core::ReplicationScheme& scheme,
              DesNetwork& network, ReplayContext& ctx, double latency_per_cost)
      : self_(self),
        scheme_(&scheme),
        network_(&network),
        ctx_(&ctx),
        latency_per_cost_(latency_per_cost) {}

  void issue(const workload::Request& request) {
    if (armed()) {
      issue_faulty(request);
      return;
    }
    ReplayResult& result = *ctx_->result;
    const core::Problem& problem = scheme_->problem();
    if (!request.is_write) {
      const SiteId nearest = scheme_->nearest(self_, request.object);
      if (nearest == self_) {
        ++result.local_reads;  // served locally, no traffic
        result.read_latency.add(0.0);
        DREP_OBSERVE("drep_replay_read_latency", obs::latency_buckets(), 0.0);
        return;
      }
      ++result.remote_reads;
      // Response time: request there, object back (no queueing modelled).
      const double latency =
          2.0 * latency_per_cost_ * problem.cost(self_, nearest);
      result.read_latency.add(latency);
      DREP_OBSERVE("drep_replay_read_latency", obs::latency_buckets(),
                   latency);
      network_->send(self_, nearest, 0.0, ReadRequest{request.object, 0});
      return;
    }
    ++result.writes;
    const SiteId primary = problem.primary(request.object);
    record_write_latency(request.object, primary);
    if (primary == self_) {
      broadcast(request.object, /*writer=*/self_);
    } else {
      network_->send(self_, primary, problem.object_size(request.object),
                     WriteShip{request.object, self_, 0});
    }
  }

  void handle(const Message& message) override {
    std::visit([&](const auto& payload) { receive(message.from, payload); },
               message.payload);
  }

  /// A crash loses every in-flight exchange at this site: pending reads and
  /// write shipments fail, un-acked broadcast legs leave replicas stale.
  void on_crash() override {
    ReplayResult& result = *ctx_->result;
    result.failed_reads += pending_reads_.size();
    result.failed_writes += pending_ships_.size();
    result.stale_replica_updates += pending_legs_.size();
    pending_reads_.clear();
    pending_ships_.clear();
    pending_legs_.clear();
  }

 private:
  struct PendingRead {
    ObjectId object;
    double issued_at;
  };
  struct PendingLeg {
    ObjectId object;
    SiteId target;
  };

  [[nodiscard]] bool armed() const { return network_->faults_armed(); }

  // --- receive side, one overload per payload -------------------------------

  void receive(SiteId from, const ReadRequest& read) {
    network_->send(self_, from, scheme_->problem().object_size(read.object),
                   ReadResponse{read.object, read.id});
  }
  void receive(SiteId, const ReadResponse& resp) {
    if (armed()) on_read_response(resp);
  }
  void receive(SiteId, const WriteShip& ship) { on_write_ship(ship); }
  void receive(SiteId, const WriteAck& ack) { on_write_ack(ack); }
  void receive(SiteId from, const UpdateBroadcast& update) {
    // Applying the same version twice is idempotent; just ack.
    if (armed()) network_->send(self_, from, 0.0, UpdateAck{update.id});
  }
  void receive(SiteId, const UpdateAck& ack) { on_update_ack(ack); }
  /// Migration shipments are pure traffic; envelopes are not replay traffic.
  void receive(SiteId, const MigrationShip&) {}
  void receive(SiteId, const Envelope&) {}

  void arm_timer(std::size_t attempt, std::function<void()> handler) {
    network_->queue().schedule_in(
        ctx_->policy.timeout_for(ctx_->base, attempt), std::move(handler));
  }

  /// Visibility latency: ship to the primary plus the slowest broadcast
  /// leg. Stays the analytic bound even under faults (a measured value
  /// would conflate retransmission delay with service time).
  void record_write_latency(ObjectId object, SiteId primary) {
    const core::Problem& problem = scheme_->problem();
    double slowest_leg = 0.0;
    for (const SiteId replicator : scheme_->replicas(object)) {
      if (replicator == primary || replicator == self_) continue;
      slowest_leg = std::max(slowest_leg, problem.cost(primary, replicator));
    }
    const double write_latency =
        latency_per_cost_ * (problem.cost(self_, primary) + slowest_leg);
    ctx_->result->write_latency.add(write_latency);
    DREP_OBSERVE("drep_replay_write_latency", obs::latency_buckets(),
                 write_latency);
  }

  // --- fault-plan issue path ----------------------------------------------

  void issue_faulty(const workload::Request& request) {
    ReplayResult& result = *ctx_->result;
    const core::Problem& problem = scheme_->problem();
    if (!network_->site_up(self_)) {
      // A crashed site serves nobody.
      ++(request.is_write ? result.failed_writes : result.failed_reads);
      ++ctx_->failed_requests;
      return;
    }
    if (!request.is_write) {
      const SiteId nearest = scheme_->nearest(self_, request.object);
      if (nearest == self_) {
        ++result.local_reads;
        result.read_latency.add(0.0);
        DREP_OBSERVE("drep_replay_read_latency", obs::latency_buckets(), 0.0);
        return;
      }
      const std::optional<SiteId> target = live_read_target(request.object);
      if (!target) {
        ++result.failed_reads;  // every replicator is down
        ++ctx_->failed_requests;
        return;
      }
      if (*target != nearest) ++result.degraded_reads;
      ++result.remote_reads;
      const std::uint64_t id = ctx_->next_id++;
      pending_reads_.emplace(id,
                             PendingRead{request.object,
                                         network_->queue().now()});
      send_read(id, request.object, 0);
      return;
    }
    ++result.writes;
    const SiteId primary = problem.primary(request.object);
    if (primary == self_) {
      record_write_latency(request.object, primary);
      broadcast(request.object, /*writer=*/self_);
      return;
    }
    if (!network_->site_up(primary)) {
      ++result.failed_writes;  // nowhere to commit the new version
      ++ctx_->failed_requests;
      return;
    }
    record_write_latency(request.object, primary);
    const std::uint64_t id = ctx_->next_id++;
    pending_ships_.emplace(id, request.object);
    send_ship(id, request.object, 0);
  }

  /// Nearest replicator when alive, else the cheapest live replica (ties to
  /// the lowest site id; the primary is always among the candidates).
  [[nodiscard]] std::optional<SiteId> live_read_target(ObjectId object) const {
    const SiteId nearest = scheme_->nearest(self_, object);
    if (network_->site_up(nearest)) return nearest;
    const core::Problem& problem = scheme_->problem();
    std::optional<SiteId> best;
    double best_cost = 0.0;
    for (const SiteId replicator : scheme_->replicas(object)) {
      if (!network_->site_up(replicator)) continue;
      const double cost = problem.cost(self_, replicator);
      if (!best || cost < best_cost ||
          (cost == best_cost && replicator < *best)) {
        best = replicator;
        best_cost = cost;
      }
    }
    return best;
  }

  void send_read(std::uint64_t id, ObjectId object, std::size_t attempt) {
    // Re-pick the target every attempt: the previous one may have crashed
    // (or recovered) since.
    if (const std::optional<SiteId> target = live_read_target(object))
      network_->send(self_, *target, 0.0, ReadRequest{object, id});
    arm_timer(attempt, [this, id, attempt] {
      const auto it = pending_reads_.find(id);
      if (it == pending_reads_.end() || !network_->site_up(self_)) return;
      ++ctx_->result->retry_stats.timeouts;
      if (attempt >= ctx_->policy.max_retries) {
        ++ctx_->result->retry_stats.give_ups;
        ++ctx_->result->failed_reads;
        ++ctx_->failed_requests;
        pending_reads_.erase(it);
        return;
      }
      ++ctx_->result->retry_stats.retries;
      send_read(id, it->second.object, attempt + 1);
    });
  }

  void on_read_response(const ReadResponse& resp) {
    const auto it = pending_reads_.find(resp.id);
    if (it == pending_reads_.end()) {
      ++ctx_->result->retry_stats.duplicates;
      return;
    }
    // Measured response time; equals the analytic 2·λ·C round trip when the
    // first attempt got through un-spiked.
    const double latency = network_->queue().now() - it->second.issued_at;
    ctx_->result->read_latency.add(latency);
    DREP_OBSERVE("drep_replay_read_latency", obs::latency_buckets(), latency);
    pending_reads_.erase(it);
  }

  void send_ship(std::uint64_t id, ObjectId object, std::size_t attempt) {
    const core::Problem& problem = scheme_->problem();
    network_->send(self_, problem.primary(object),
                   problem.object_size(object), WriteShip{object, self_, id});
    arm_timer(attempt, [this, id, attempt] {
      const auto it = pending_ships_.find(id);
      if (it == pending_ships_.end() || !network_->site_up(self_)) return;
      ++ctx_->result->retry_stats.timeouts;
      if (attempt >= ctx_->policy.max_retries) {
        ++ctx_->result->retry_stats.give_ups;
        ++ctx_->result->failed_writes;
        ++ctx_->failed_requests;
        pending_ships_.erase(it);
        return;
      }
      ++ctx_->result->retry_stats.retries;
      send_ship(id, it->second, attempt + 1);
    });
  }

  void on_write_ship(const WriteShip& ship) {
    if (!armed()) {
      broadcast(ship.object, ship.writer);
      return;
    }
    // The primary deduplicates replayed shipments: the version already
    // committed and fanned out, only the ack was lost.
    if (seen_ships_.insert(ship.id).second)
      broadcast(ship.object, ship.writer);
    else
      ++ctx_->result->retry_stats.duplicates;
    network_->send(self_, ship.writer, 0.0, WriteAck{ship.id});
  }

  void on_write_ack(const WriteAck& ack) {
    if (pending_ships_.erase(ack.id) == 0)
      ++ctx_->result->retry_stats.duplicates;
  }

  /// Primary-side fan-out of an update to every other replicator, excluding
  /// the writer (which already holds the new version). Under faults every
  /// leg is shepherded to an ack or counted as a stale replica.
  void broadcast(ObjectId object, SiteId writer) {
    const core::Problem& problem = scheme_->problem();
    for (const SiteId replicator : scheme_->replicas(object)) {
      if (replicator == self_ || replicator == writer) continue;
      if (!armed()) {
        network_->send(self_, replicator, problem.object_size(object),
                       UpdateBroadcast{object, 0});
        continue;
      }
      const std::uint64_t id = ctx_->next_id++;
      pending_legs_.emplace(id, PendingLeg{object, replicator});
      send_leg(id, 0);
    }
  }

  void send_leg(std::uint64_t id, std::size_t attempt) {
    const auto it = pending_legs_.find(id);
    if (it == pending_legs_.end()) return;
    const core::Problem& problem = scheme_->problem();
    network_->send(self_, it->second.target,
                   problem.object_size(it->second.object),
                   UpdateBroadcast{it->second.object, id});
    arm_timer(attempt, [this, id, attempt] {
      const auto leg = pending_legs_.find(id);
      if (leg == pending_legs_.end() || !network_->site_up(self_)) return;
      ++ctx_->result->retry_stats.timeouts;
      if (attempt >= ctx_->policy.max_retries) {
        ++ctx_->result->retry_stats.give_ups;
        ++ctx_->result->stale_replica_updates;
        ++ctx_->stale_updates;
        pending_legs_.erase(leg);
        return;
      }
      ++ctx_->result->retry_stats.retries;
      send_leg(id, attempt + 1);
    });
  }

  void on_update_ack(const UpdateAck& ack) {
    if (pending_legs_.erase(ack.id) == 0)
      ++ctx_->result->retry_stats.duplicates;
  }

  SiteId self_;
  const core::ReplicationScheme* scheme_;
  DesNetwork* network_;
  ReplayContext* ctx_;
  double latency_per_cost_;

  std::map<std::uint64_t, PendingRead> pending_reads_;
  std::map<std::uint64_t, ObjectId> pending_ships_;
  std::map<std::uint64_t, PendingLeg> pending_legs_;
  std::set<std::uint64_t> seen_ships_;
};

}  // namespace

ReplayResult replay_trace(const core::ReplicationScheme& scheme,
                          std::span<const workload::Request> trace,
                          double latency_per_cost, double inter_arrival) {
  ReplayOptions options;
  options.latency_per_cost = latency_per_cost;
  options.inter_arrival = inter_arrival;
  return replay_trace(scheme, trace, options);
}

ReplayResult replay_trace(const core::ReplicationScheme& scheme,
                          std::span<const workload::Request> trace,
                          const ReplayOptions& options) {
  DREP_SPAN("sim/replay");
  const core::Problem& problem = scheme.problem();
  DesNetwork network(problem.costs(), options.latency_per_cost);
  if (options.faults) network.set_faults(*options.faults);

  ReplayResult result;
  ReplayContext ctx{options.retry,
                    options.retry.resolve_base(network.worst_one_way_latency()),
                    &result};
  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  nodes.reserve(problem.sites());
  for (SiteId i = 0; i < problem.sites(); ++i) {
    nodes.push_back(std::make_unique<ReplicaNode>(
        i, scheme, network, ctx, options.latency_per_cost));
    network.attach(i, *nodes.back());
  }

  // Capturing the trace entry by address keeps the closure within
  // std::function's inline buffer: no allocation per injected request.
  for (std::size_t idx = 0; idx < trace.size(); ++idx) {
    const workload::Request* request = &trace[idx];
    network.queue().schedule(
        options.inter_arrival * static_cast<double>(idx),
        [&nodes, request] { nodes[request->site]->issue(*request); });
  }
  network.run();
  publish_counters(ctx, trace.size());
  result.traffic = network.stats();
  result.duration = network.queue().now();
  return result;
}

ReplayResult replay_trace_online(core::ReplicationScheme& scheme,
                                 std::span<const workload::Request> trace,
                                 const ReplayOptions& options,
                                 ReplayPolicy& policy) {
  DREP_SPAN("sim/replay_online");
  const core::Problem& problem = scheme.problem();
  DesNetwork network(problem.costs(), options.latency_per_cost);
  if (options.faults) network.set_faults(*options.faults);

  ReplayResult result;
  ReplayContext ctx{options.retry,
                    options.retry.resolve_base(network.worst_one_way_latency()),
                    &result};
  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  nodes.reserve(problem.sites());
  for (SiteId i = 0; i < problem.sites(); ++i) {
    nodes.push_back(std::make_unique<ReplicaNode>(
        i, scheme, network, ctx, options.latency_per_cost));
    network.attach(i, *nodes.back());
  }

  // The policy runs at injection time, before the request reaches its
  // node, so the node already sees the post-decision scheme (see the
  // ReplayPolicy contract in the header).
  const auto inject = [&](const workload::Request* request) {
    const auto idx = static_cast<std::size_t>(request - trace.data());
    for (const SchemeChange& change :
         policy.on_request(idx, *request, scheme)) {
      if (change.evict) {
        ++result.online_evictions;
        continue;
      }
      ++result.online_migrations;
      result.migration_traffic +=
          change.shipped_units * problem.cost(change.source, change.site);
      network.send(change.source, change.site, change.shipped_units,
                   MigrationShip{change.object});
    }
    nodes[request->site]->issue(*request);
  };
  // Two pointers fit std::function's inline buffer, as in replay_trace.
  for (std::size_t idx = 0; idx < trace.size(); ++idx) {
    const workload::Request* request = &trace[idx];
    network.queue().schedule(options.inter_arrival * static_cast<double>(idx),
                             [&inject, request] { inject(request); });
  }
  network.run();
  publish_counters(ctx, trace.size());
  result.traffic = network.stats();
  result.duration = network.queue().now();
  return result;
}

}  // namespace drep::sim
