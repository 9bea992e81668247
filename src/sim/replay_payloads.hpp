#pragma once
// Wire payloads of the trace-replay protocol (sim/access_replay.cpp).
//
// They are alternatives of sim::Payload (des.hpp), so a replay message
// carries its payload inline and costs no heap allocation (DESIGN.md §17).
// Ids are 0 on a perfect network (no retries, nothing to correlate) and
// unique per exchange under a fault plan.

#include <cstdint>

#include "core/problem.hpp"
#include "net/topology.hpp"

namespace drep::sim {

struct ReadRequest {
  core::ObjectId object;
  std::uint64_t id;
};
struct ReadResponse {
  core::ObjectId object;
  std::uint64_t id;
};
struct WriteShip {
  core::ObjectId object;
  net::SiteId writer;
  std::uint64_t id;
};
struct WriteAck {
  std::uint64_t id;
};
struct UpdateBroadcast {
  core::ObjectId object;
  std::uint64_t id;
};
struct UpdateAck {
  std::uint64_t id;
};
/// Replica-creation shipment of the online replay (source replica -> new
/// replicator). Pure data transfer: the replay's nodes ignore it.
struct MigrationShip {
  core::ObjectId object;
};

}  // namespace drep::sim
