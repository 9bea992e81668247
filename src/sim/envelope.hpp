#pragma once
// The versioned protocol message envelope shared by every DES protocol
// (DESIGN.md Section 15).
//
// distributed_sra.*, monitor_protocol.*, and the decentralized GA/adapt
// protocols in src/dist/ historically each defined ad-hoc payload structs
// and any_cast chains; every payload now travels inside one Envelope:
//
//   version   wire-format version; receivers reject anything unknown
//   kind      global message-type tag (one enum across all protocols)
//   seq       per-sender sequence id for dedup/idempotence (0 = unsequenced)
//   sender    originating site
//   payload   the protocol-specific struct, still a std::any
//
// DesNetwork carries an Envelope inline as one alternative of the closed
// sim::Payload variant (des.hpp); only its inner payload is type-erased.
// These protocols send a few messages per round, so that std::any is off
// the hot path; the high-volume replay protocol has typed alternatives of
// its own (replay_payloads.hpp).
//
// open() is the single entry point on the receive side: it validates the
// version and the kind, so the DES fault machinery (drops, duplicates from
// retransmission, crash-delayed deliveries) meets the same rejection rules
// in all protocols. A node that receives a *known* kind it does not speak
// still throws — that is a wiring bug, not a network condition.

#include <any>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "net/topology.hpp"

namespace drep::sim {

using net::SiteId;
struct Message;

inline constexpr std::uint16_t kEnvelopeVersion = 1;

/// Global message-type tags. Values are part of the (simulated) wire format:
/// append, never renumber. Ranges are blocked per protocol so a dispatch
/// table stays readable.
enum class MessageKind : std::uint16_t {
  // Distributed SRA (sim/distributed_sra.cpp).
  kSraTokenGrant = 1,
  kSraTokenReturn = 2,
  kSraFetchRequest = 3,
  kSraFetchResponse = 4,
  kSraReplicaAnnounce = 5,
  kSraAnnounceAck = 6,
  kSraRejoin = 7,
  kSraRejoinAck = 8,
  // Monitor retune round (sim/monitor_protocol.cpp).
  kRetuneStatsReport = 32,
  kRetuneStatsAck = 33,
  kRetuneAddReplica = 34,
  kRetuneDropReplica = 35,
  kRetuneFetchRequest = 36,
  kRetuneFetchResponse = 37,
  kRetuneAck = 38,
  // Decentralized island GA (dist/dgra.cpp).
  kGaElites = 64,
  kGaElitesAck = 65,
  // Decentralized adaptive retune (dist/dagra.cpp).
  kDriftColumnUpdate = 96,
  kDriftColumnAck = 97,
  kDriftFetchRequest = 98,
  kDriftFetchResponse = 99,
};

/// True for every tag listed above.
[[nodiscard]] bool known_kind(std::uint16_t kind) noexcept;

/// Stable lowercase name for diagnostics ("sra.token_grant", …);
/// "unknown" for unlisted tags.
[[nodiscard]] std::string_view kind_name(MessageKind kind) noexcept;

/// Fields are ordered so the struct packs into 32 bytes: it sits inline in
/// every DES message's payload variant.
struct Envelope {
  std::uint16_t version = kEnvelopeVersion;
  MessageKind kind{};
  SiteId sender = 0;
  /// Per-sender sequence id; retransmissions re-send the same value so
  /// receivers can dedup. 0 = unsequenced (fire-and-forget control).
  std::uint64_t seq = 0;
  std::any payload;
};

/// Wraps a payload for send(): DesNetwork carries the Envelope as the
/// message's payload.
template <typename Payload>
[[nodiscard]] Envelope seal(MessageKind kind, SiteId sender, std::uint64_t seq,
                            Payload payload) {
  return Envelope{kEnvelopeVersion, kind, sender, seq, std::move(payload)};
}

/// The uniform receive-side gate: takes the Envelope alternative of the
/// message payload and validates it. Throws std::logic_error when the
/// payload is not an Envelope ("unknown payload"), the version is
/// unsupported, or the kind is not a registered tag — the shared
/// unknown-type rejection rule.
[[nodiscard]] const Envelope& open(const Message& message);

/// Typed payload access after the kind switch; throws std::logic_error when
/// the payload does not hold a Payload (a kind/payload wiring bug).
template <typename Payload>
[[nodiscard]] const Payload& unseal(const Envelope& envelope) {
  const Payload* payload = std::any_cast<Payload>(&envelope.payload);
  if (payload == nullptr) {
    throw std::logic_error(
        "Envelope: payload type does not match kind " +
        std::string(kind_name(envelope.kind)));
  }
  return *payload;
}

/// Per-sender highest-accepted sequence tracker. accept() returns true the
/// first time a (sender, seq) at or above the sender's watermark+1 is seen
/// and false for duplicates/stale retransmissions (seq <= last accepted).
/// Gaps are allowed — a dropped message's seq is simply never accepted.
class SeqTracker {
 public:
  [[nodiscard]] bool accept(SiteId sender, std::uint64_t seq);
  /// Highest accepted seq for `sender` (0 = none yet).
  [[nodiscard]] std::uint64_t last(SiteId sender) const;

 private:
  std::map<SiteId, std::uint64_t> last_;
};

}  // namespace drep::sim
