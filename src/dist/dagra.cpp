#include "dist/dagra.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "algo/gra.hpp"
#include "algo/solver.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/envelope.hpp"
#include "util/timer.hpp"
#include "workload/trace.hpp"

namespace drep::dist {

namespace {

using sim::Envelope;
using sim::MessageKind;

/// Relative deviation in percent; a zero baseline with non-zero observation
/// is an unbounded change (the central monitor's rule).
double deviation_percent(double baseline, double observed) {
  if (baseline == observed) return 0.0;
  if (baseline == 0.0) return std::numeric_limits<double>::infinity();
  return 100.0 * std::abs(observed - baseline) / baseline;
}

/// Site `site`'s local view: the baseline problem with that site's own row
/// replaced by the observed one — everything a site can see by itself.
core::Problem local_view(const core::Problem& baseline,
                         const core::Problem& observed, core::SiteId site) {
  std::vector<double> sizes(baseline.objects());
  std::vector<core::SiteId> primaries(baseline.objects());
  std::vector<double> capacities(baseline.sites());
  for (core::ObjectId k = 0; k < baseline.objects(); ++k) {
    sizes[k] = baseline.object_size(k);
    primaries[k] = baseline.primary(k);
  }
  for (core::SiteId i = 0; i < baseline.sites(); ++i)
    capacities[i] = baseline.capacity(i);
  core::Problem view(baseline.costs(), std::move(sizes), std::move(primaries),
                     std::move(capacities));
  for (core::SiteId i = 0; i < baseline.sites(); ++i) {
    const core::Problem& source = i == site ? observed : baseline;
    for (core::ObjectId k = 0; k < baseline.objects(); ++k) {
      view.set_reads(i, k, source.reads(i, k));
      view.set_writes(i, k, source.writes(i, k));
    }
  }
  return view;
}

/// The central monitor's changed-object rule, applied to a local view:
/// objects whose total read or write counts deviate beyond the threshold.
std::vector<core::ObjectId> detect_changed(const core::Problem& baseline,
                                           const core::Problem& view,
                                           double threshold_percent) {
  std::vector<core::ObjectId> changed;
  for (core::ObjectId k = 0; k < baseline.objects(); ++k) {
    const double read_dev =
        deviation_percent(baseline.total_reads(k), view.total_reads(k));
    const double write_dev =
        deviation_percent(baseline.total_writes(k), view.total_writes(k));
    if (read_dev >= threshold_percent || write_dev >= threshold_percent)
      changed.push_back(k);
  }
  return changed;
}

// --- wire payloads --------------------------------------------------------

struct ColumnUpdate {
  core::ObjectId object = 0;
  /// The retuned M-bit replica column of `object` (bit i = site i hosts).
  std::vector<std::uint8_t> column;
  core::SiteId retuner = 0;
};
struct ColumnAck {};
struct FetchRequest {
  core::ObjectId object = 0;
};
struct FetchResponse {
  core::ObjectId object = 0;
};

struct SharedState {
  sim::RetryStats retry_stats;
  std::size_t updates_sent = 0;
  std::size_t updates_applied = 0;
  std::size_t updates_ignored = 0;
  std::size_t directives_failed = 0;
  std::vector<std::vector<audit::EnvelopeRecord>> logs;
};

/// One site of the decentralized adaptive round: drift receiver for every
/// site, plus the retuner role at sites whose EWMA trigger fired.
class DriftNode final : public sim::Node {
 public:
  DriftNode(core::SiteId self, const core::Problem& observed,
            const core::ReplicationScheme& before, const DadaptOptions& options,
            sim::DesNetwork& network, SharedState& shared)
      : self_(self),
        observed_(observed),
        before_(before),
        options_(options),
        network_(network),
        shared_(shared) {
    retry_base_ = options.retry.resolve_base(network.worst_one_way_latency());
    const std::size_t objects = observed.objects();
    bits_.resize(objects);
    for (core::ObjectId k = 0; k < objects; ++k)
      bits_[k] = options.current_scheme[self * objects + k];
    winner_.assign(objects, kNoRetuner);
    gained_.assign(objects, 0);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bits() const noexcept {
    return bits_;
  }
  [[nodiscard]] bool gained(core::ObjectId k) const { return gained_[k] != 0; }

  /// Arms the retuner role: at t=0 this site runs its micro-AGRA over its
  /// local view and disseminates the changed columns.
  void arm_retuner(core::Problem local_problem,
                   std::vector<core::ObjectId> changed) {
    local_problem_ = std::move(local_problem);
    changed_ = std::move(changed);
    network_.queue().schedule(0.0, [this] { run_retune(); });
  }

  void handle(const sim::Message& message) override {
    const Envelope& envelope = sim::open(message);
    switch (envelope.kind) {
      case MessageKind::kDriftColumnUpdate:
        on_update(message.from, envelope);
        return;
      case MessageKind::kDriftColumnAck:
        if (ack_seq_.accept(envelope.sender, envelope.seq)) {
          record(envelope);
          on_ack(envelope.sender, envelope.seq);
        } else {
          ++shared_.retry_stats.duplicates;
        }
        return;
      case MessageKind::kDriftFetchRequest: {
        const auto& fetch = sim::unseal<FetchRequest>(envelope);
        if (request_seq_.accept(envelope.sender, envelope.seq))
          record(envelope);
        // Serve every request (duplicates included — the requester dedups);
        // the response carries the object's size in data units.
        network_.send(self_, message.from,
                      observed_.object_size(fetch.object),
                      sim::seal(MessageKind::kDriftFetchResponse, self_,
                                envelope.seq, FetchResponse{fetch.object}));
        return;
      }
      case MessageKind::kDriftFetchResponse: {
        if (!response_seq_.accept(envelope.sender, envelope.seq)) {
          ++shared_.retry_stats.duplicates;
          return;
        }
        record(envelope);
        on_fetched(envelope.seq);
        return;
      }
      default:
        throw std::logic_error("DriftNode: unexpected message kind " +
                               std::string(sim::kind_name(envelope.kind)));
    }
  }

  void on_crash() override {
    // Volatile in-flight state is lost; committed replica bits survive.
    fetches_.clear();
  }

  void on_recover() override {
    // Retuner role: re-announce the current unacked update on every lane.
    for (auto& [dest, lane] : outbox_) {
      if (lane.next < lane.queue.size() && !lane.acked) {
        ++shared_.retry_stats.retries;
        transmit_update(dest, lane);
        lane.attempt = 0;
        arm_lane_timer(dest);
      }
    }
  }

 private:
  static constexpr core::SiteId kNoRetuner =
      std::numeric_limits<core::SiteId>::max();

  struct Lane {
    std::vector<ColumnUpdate> queue;
    /// Envelope seq of queue[p] is base_seq + p.
    std::uint64_t base_seq = 1;
    std::size_t next = 0;
    std::size_t attempt = 0;
    bool acked = false;
  };

  struct PendingFetch {
    core::ObjectId object = 0;
    core::SiteId retuner = 0;
    std::uint64_t update_seq = 0;
    core::SiteId holder = 0;
    std::size_t attempt = 0;
  };

  // --- retuner role -------------------------------------------------------

  void run_retune() {
    if (!network_.site_up(self_)) return;  // crashed before retuning: skip
    DREP_SPAN("dist/retune");
    // The redesigned registry path, driven per-DES-node: the same "agra"
    // adapter the central monitor uses, scoped to this site's local view.
    algo::SolverOptions solver_options;
    solver_options.agra = options_.agra;
    solver_options.common = options_.agra.common;
    solver_options.common.seed = options_.seed;
    algo::SolveRequest request{*local_problem_, std::move(solver_options)};
    request.adapt = algo::AdaptContext{&options_.current_scheme,
                                       options_.retained_population, changed_};
    request.context.locality = self_;
    request.context.clock = [this] { return network_.queue().now(); };
    const algo::SolveResponse response =
        algo::solver_registry().at("agra").solve(request);
    const ga::Chromosome& genes = response.result.scheme.matrix();

    // One lane per destination (self included — a self-send delivers
    // immediately), stop-and-wait per lane when faults are armed.
    const std::size_t sites = observed_.sites();
    const std::size_t objects = observed_.objects();
    for (core::SiteId dest = 0; dest < sites; ++dest) {
      Lane lane;
      lane.base_seq = next_seq_;
      for (const core::ObjectId k : changed_) {
        ColumnUpdate update;
        update.object = k;
        update.retuner = self_;
        update.column.resize(sites);
        for (core::SiteId i = 0; i < sites; ++i)
          update.column[i] = genes[i * objects + k];
        lane.queue.push_back(std::move(update));
      }
      next_seq_ += lane.queue.size();
      outbox_.emplace(dest, std::move(lane));
    }
    for (auto& [dest, lane] : outbox_) {
      if (lane.queue.empty()) continue;
      if (network_.faults_armed()) {
        transmit_update(dest, lane);
        ++shared_.updates_sent;
        arm_lane_timer(dest);
      } else {
        // Perfect network: delivery is guaranteed and in-order per lane —
        // blast the whole queue, no acks, no timers.
        for (; lane.next < lane.queue.size(); ++lane.next) {
          transmit_update(dest, lane);
          ++shared_.updates_sent;
        }
      }
    }
  }

  void transmit_update(core::SiteId dest, const Lane& lane) {
    const ColumnUpdate& update = lane.queue[lane.next];
    network_.send(self_, dest, 0.0,
                  sim::seal(MessageKind::kDriftColumnUpdate, self_,
                            lane.base_seq + lane.next, update));
  }

  void arm_lane_timer(core::SiteId dest) {
    const std::size_t at = outbox_[dest].next;
    network_.queue().schedule_in(
        options_.retry.timeout_for(retry_base_, outbox_[dest].attempt),
        [this, dest, at] { on_lane_timer(dest, at); });
  }

  void on_lane_timer(core::SiteId dest, std::size_t at) {
    Lane& lane = outbox_[dest];
    if (lane.next != at || lane.next >= lane.queue.size() || lane.acked)
      return;
    if (!network_.site_up(self_)) return;  // on_recover resends
    ++shared_.retry_stats.timeouts;
    if (lane.attempt >= options_.retry.max_retries) {
      ++shared_.retry_stats.give_ups;
      advance_lane(dest);  // skip the lost update; seq gaps are legal
      return;
    }
    ++lane.attempt;
    ++shared_.retry_stats.retries;
    transmit_update(dest, lane);
    arm_lane_timer(dest);
  }

  void on_ack(core::SiteId dest, std::uint64_t seq) {
    const auto it = outbox_.find(dest);
    if (it == outbox_.end()) return;
    Lane& lane = it->second;
    if (lane.next >= lane.queue.size()) return;
    if (lane.base_seq + lane.next != seq) return;  // stale ack
    lane.acked = true;
    advance_lane(dest);
  }

  void advance_lane(core::SiteId dest) {
    Lane& lane = outbox_[dest];
    ++lane.next;
    lane.attempt = 0;
    lane.acked = false;
    if (lane.next < lane.queue.size()) {
      transmit_update(dest, lane);
      ++shared_.updates_sent;
      arm_lane_timer(dest);
    }
  }

  // --- receiver role ------------------------------------------------------

  void on_update(core::SiteId from, const Envelope& envelope) {
    const auto& update = sim::unseal<ColumnUpdate>(envelope);
    if (!update_seq_.accept(envelope.sender, envelope.seq)) {
      // Duplicate: our ack was lost — re-ack so the lane advances.
      ++shared_.retry_stats.duplicates;
      ack(from, envelope.seq);
      return;
    }
    record(envelope);
    const core::ObjectId k = update.object;
    // Concurrent-retuner conflicts resolve to the lowest site id no matter
    // the arrival order: a higher-id update never displaces a lower one,
    // and a lower-id update overrides a higher one already applied.
    if (winner_[k] != kNoRetuner && winner_[k] < update.retuner) {
      ++shared_.updates_ignored;
      ack(from, envelope.seq);
      return;
    }
    winner_[k] = update.retuner;
    const std::uint8_t desired = update.column[self_];
    if (desired == bits_[k]) {
      ++shared_.updates_applied;
      ack(from, envelope.seq);
      return;
    }
    if (desired == 0) {
      // Drop — but never the primary copy (a valid retune never asks).
      if (observed_.primary(k) != self_) {
        bits_[k] = 0;
        gained_[k] = 0;
      }
      ++shared_.updates_applied;
      ack(from, envelope.seq);
      return;
    }
    // Gain: fetch the object from the nearest *current* holder before the
    // replica (and the ack) commits.
    start_fetch(k, update.retuner, envelope.seq,
                before_.nearest(self_, k));
  }

  void start_fetch(core::ObjectId k, core::SiteId retuner,
                   std::uint64_t update_seq, core::SiteId holder) {
    const std::uint64_t id = next_fetch_id_++;
    fetches_.emplace(id, PendingFetch{k, retuner, update_seq, holder, 0});
    network_.send(self_, holder, 0.0,
                  sim::seal(MessageKind::kDriftFetchRequest, self_, id,
                            FetchRequest{k}));
    if (network_.faults_armed()) arm_fetch_timer(id);
  }

  void arm_fetch_timer(std::uint64_t id) {
    const auto it = fetches_.find(id);
    if (it == fetches_.end()) return;
    network_.queue().schedule_in(
        options_.retry.timeout_for(retry_base_, it->second.attempt),
        [this, id] { on_fetch_timer(id); });
  }

  void on_fetch_timer(std::uint64_t id) {
    const auto it = fetches_.find(id);
    if (it == fetches_.end()) return;  // resolved (or wiped by a crash)
    if (!network_.site_up(self_)) return;
    PendingFetch& fetch = it->second;
    ++shared_.retry_stats.timeouts;
    if (fetch.attempt >= options_.retry.max_retries) {
      // Give up: the replica cannot be hosted without its data. Ack the
      // directive anyway (processed, not applied) so the lane advances.
      ++shared_.retry_stats.give_ups;
      ++shared_.directives_failed;
      ack(fetch.retuner, fetch.update_seq);
      fetches_.erase(it);
      return;
    }
    ++fetch.attempt;
    ++shared_.retry_stats.retries;
    // Past half the budget, fall back to the primary — it always holds.
    if (fetch.attempt > options_.retry.max_retries / 2)
      fetch.holder = observed_.primary(fetch.object);
    network_.send(self_, fetch.holder, 0.0,
                  sim::seal(MessageKind::kDriftFetchRequest, self_, id,
                            FetchRequest{fetch.object}));
    arm_fetch_timer(id);
  }

  void on_fetched(std::uint64_t id) {
    const auto it = fetches_.find(id);
    if (it == fetches_.end()) return;  // late response after give-up/crash
    const PendingFetch fetch = it->second;
    fetches_.erase(it);
    if (winner_[fetch.object] != fetch.retuner) {
      // A lower-id retuner overrode this object while the fetch was in
      // flight; its directive stands, but the loser still gets its ack.
      ++shared_.updates_ignored;
      ack(fetch.retuner, fetch.update_seq);
      return;
    }
    bits_[fetch.object] = 1;
    gained_[fetch.object] = 1;
    ++shared_.updates_applied;
    ack(fetch.retuner, fetch.update_seq);
  }

  void ack(core::SiteId retuner, std::uint64_t update_seq) {
    if (!network_.faults_armed()) return;  // perfect network: no ack traffic
    network_.send(self_, retuner, 0.0,
                  sim::seal(MessageKind::kDriftColumnAck, self_, update_seq,
                            ColumnAck{}));
  }

  void record(const Envelope& envelope) {
    shared_.logs[self_].push_back(
        {static_cast<std::size_t>(envelope.sender),
         static_cast<std::uint16_t>(envelope.kind), envelope.seq});
  }

  core::SiteId self_;
  const core::Problem& observed_;
  const core::ReplicationScheme& before_;
  const DadaptOptions& options_;
  sim::DesNetwork& network_;
  SharedState& shared_;
  double retry_base_ = 0.0;

  std::vector<std::uint8_t> bits_;     // own replica row (N)
  std::vector<core::SiteId> winner_;   // per object: applied retuner id
  std::vector<std::uint8_t> gained_;   // gains applied this round
  std::optional<core::Problem> local_problem_{};
  std::vector<core::ObjectId> changed_;
  std::map<core::SiteId, Lane> outbox_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, PendingFetch> fetches_;
  std::uint64_t next_fetch_id_ = 1;
  sim::SeqTracker update_seq_;
  sim::SeqTracker ack_seq_;
  sim::SeqTracker request_seq_;
  sim::SeqTracker response_seq_;
};

}  // namespace

void DadaptOptions::validate() const {
  agra.validate();
  predictor.validate();
  if (!(drift_threshold_percent >= 0.0))
    throw std::invalid_argument(
        "DadaptOptions: drift_threshold_percent must be >= 0");
  if (!(change_threshold_percent >= 0.0))
    throw std::invalid_argument(
        "DadaptOptions: change_threshold_percent must be >= 0");
  if (!(latency_per_cost > 0.0))
    throw std::invalid_argument("DadaptOptions: latency_per_cost must be > 0");
  if (faults.has_value()) faults->validate();
}

DadaptResult run_decentralized_adapt(const core::Problem& baseline,
                                     const core::Problem& observed,
                                     const DadaptOptions& options) {
  DREP_SPAN("dist/dagra");
  options.validate();
  const std::size_t sites = baseline.sites();
  const std::size_t objects = baseline.objects();
  if (observed.sites() != sites || observed.objects() != objects)
    throw std::invalid_argument(
        "run_decentralized_adapt: baseline/observed shape mismatch");
  if (options.current_scheme.size() != sites * objects)
    throw std::invalid_argument(
        "run_decentralized_adapt: current_scheme length != sites×objects");
  util::Stopwatch watch;

  // --- phase 1: offline per-site drift detection -------------------------
  // Each site folds its own subsequence of the observed trace through its
  // EWMA predictor, then compares the per-object rates against the
  // baseline per-window expectation — everything locally observable.
  util::Rng trace_rng(options.trace_seed);
  const std::vector<workload::Request> trace =
      workload::build_trace(observed, trace_rng);
  std::vector<online::Predictor> predictors;
  predictors.reserve(sites);
  for (core::SiteId i = 0; i < sites; ++i)
    predictors.emplace_back(options.predictor, objects);
  for (const workload::Request& request : trace)
    (void)predictors[request.site].observe(request);

  std::vector<core::SiteId> drifted_sites;
  for (core::SiteId i = 0; i < sites; ++i) {
    double row_total = 0.0;
    for (core::ObjectId k = 0; k < objects; ++k)
      row_total += baseline.reads(i, k) + baseline.writes(i, k);
    if (row_total <= 0.0) continue;
    const double window = static_cast<double>(options.predictor.window);
    bool drifted = false;
    for (core::ObjectId k = 0; k < objects && !drifted; ++k) {
      const double expected =
          window * (baseline.reads(i, k) + baseline.writes(i, k)) / row_total;
      drifted = deviation_percent(expected, predictors[i].rate(k)) >=
                options.drift_threshold_percent;
    }
    if (drifted) drifted_sites.push_back(i);
  }

  // --- phase 2: the DES dissemination round ------------------------------
  sim::DesNetwork network(baseline.costs(), options.latency_per_cost);
  if (options.faults.has_value()) network.set_faults(*options.faults);
  const core::ReplicationScheme before(baseline, options.current_scheme);

  SharedState shared;
  shared.logs.resize(sites);
  std::vector<std::unique_ptr<DriftNode>> nodes;
  nodes.reserve(sites);
  for (core::SiteId i = 0; i < sites; ++i) {
    nodes.push_back(std::make_unique<DriftNode>(i, observed, before, options,
                                                network, shared));
    network.attach(i, *nodes[i]);
  }

  std::vector<std::uint8_t> changed_union(objects, 0);
  std::size_t retunes_run = 0;
  for (const core::SiteId site : drifted_sites) {
    core::Problem view = local_view(baseline, observed, site);
    std::vector<core::ObjectId> changed =
        detect_changed(baseline, view, options.change_threshold_percent);
    if (changed.empty()) continue;
    for (const core::ObjectId k : changed) changed_union[k] = 1;
    ++retunes_run;
    nodes[site]->arm_retuner(std::move(view), std::move(changed));
  }
  std::vector<core::ObjectId> changed_objects;
  for (core::ObjectId k = 0; k < objects; ++k)
    if (changed_union[k] != 0) changed_objects.push_back(k);

  network.run();

  // --- assembly: per-site actual bits + capacity repair ------------------
  ga::Chromosome genes(sites * objects);
  for (core::SiteId i = 0; i < sites; ++i) {
    const std::vector<std::uint8_t>& row = nodes[i]->bits();
    for (core::ObjectId k = 0; k < objects; ++k) genes[i * objects + k] = row[k];
  }
  std::vector<double> loads = algo::chromosome_loads(observed, genes);
  std::size_t directives_rejected = 0;
  for (core::SiteId i = 0; i < sites; ++i) {
    if (loads[i] <= observed.capacity(i)) continue;
    // Evict accepted gains, descending object id, until the site fits —
    // the assembly-time repair that replaces an apply-time capacity veto.
    for (core::ObjectId k = static_cast<core::ObjectId>(objects);
         k-- > 0 && loads[i] > observed.capacity(i);) {
      if (genes[i * objects + k] == 0 || !nodes[i]->gained(k)) continue;
      if (observed.primary(k) == i) continue;
      genes[i * objects + k] = 0;
      loads[i] -= observed.object_size(k);
      ++directives_rejected;
    }
  }

  DadaptResult out{algo::make_result(core::ReplicationScheme(observed, genes),
                                     watch.seconds())};
  out.result.iterations = changed_objects.size();
  out.drifted_sites = std::move(drifted_sites);
  out.changed_objects = std::move(changed_objects);
  out.retunes_run = retunes_run;
  out.directives_rejected = directives_rejected;
  out.updates_sent = shared.updates_sent;
  out.updates_applied = shared.updates_applied;
  out.updates_ignored = shared.updates_ignored;
  out.directives_failed = shared.directives_failed;
  out.traffic = network.stats();
  out.retry_stats = shared.retry_stats;
  out.round_time = network.queue().now();
  out.envelope_logs = std::move(shared.logs);
  return out;
}

}  // namespace drep::dist
