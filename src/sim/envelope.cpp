#include "sim/envelope.hpp"

#include <string>
#include <variant>

#include "sim/des.hpp"

namespace drep::sim {

bool known_kind(std::uint16_t kind) noexcept {
  switch (static_cast<MessageKind>(kind)) {
    case MessageKind::kSraTokenGrant:
    case MessageKind::kSraTokenReturn:
    case MessageKind::kSraFetchRequest:
    case MessageKind::kSraFetchResponse:
    case MessageKind::kSraReplicaAnnounce:
    case MessageKind::kSraAnnounceAck:
    case MessageKind::kSraRejoin:
    case MessageKind::kSraRejoinAck:
    case MessageKind::kRetuneStatsReport:
    case MessageKind::kRetuneStatsAck:
    case MessageKind::kRetuneAddReplica:
    case MessageKind::kRetuneDropReplica:
    case MessageKind::kRetuneFetchRequest:
    case MessageKind::kRetuneFetchResponse:
    case MessageKind::kRetuneAck:
    case MessageKind::kGaElites:
    case MessageKind::kGaElitesAck:
    case MessageKind::kDriftColumnUpdate:
    case MessageKind::kDriftColumnAck:
    case MessageKind::kDriftFetchRequest:
    case MessageKind::kDriftFetchResponse:
      return true;
  }
  return false;
}

std::string_view kind_name(MessageKind kind) noexcept {
  switch (kind) {
    case MessageKind::kSraTokenGrant: return "sra.token_grant";
    case MessageKind::kSraTokenReturn: return "sra.token_return";
    case MessageKind::kSraFetchRequest: return "sra.fetch_request";
    case MessageKind::kSraFetchResponse: return "sra.fetch_response";
    case MessageKind::kSraReplicaAnnounce: return "sra.replica_announce";
    case MessageKind::kSraAnnounceAck: return "sra.announce_ack";
    case MessageKind::kSraRejoin: return "sra.rejoin";
    case MessageKind::kSraRejoinAck: return "sra.rejoin_ack";
    case MessageKind::kRetuneStatsReport: return "retune.stats_report";
    case MessageKind::kRetuneStatsAck: return "retune.stats_ack";
    case MessageKind::kRetuneAddReplica: return "retune.add_replica";
    case MessageKind::kRetuneDropReplica: return "retune.drop_replica";
    case MessageKind::kRetuneFetchRequest: return "retune.fetch_request";
    case MessageKind::kRetuneFetchResponse: return "retune.fetch_response";
    case MessageKind::kRetuneAck: return "retune.ack";
    case MessageKind::kGaElites: return "ga.elites";
    case MessageKind::kGaElitesAck: return "ga.elites_ack";
    case MessageKind::kDriftColumnUpdate: return "drift.column_update";
    case MessageKind::kDriftColumnAck: return "drift.column_ack";
    case MessageKind::kDriftFetchRequest: return "drift.fetch_request";
    case MessageKind::kDriftFetchResponse: return "drift.fetch_response";
  }
  return "unknown";
}

const Envelope& open(const Message& message) {
  const Envelope* envelope = std::get_if<Envelope>(&message.payload);
  if (envelope == nullptr)
    throw std::logic_error("Envelope: unknown payload (not an Envelope)");
  if (envelope->version != kEnvelopeVersion) {
    throw std::logic_error("Envelope: unsupported version " +
                           std::to_string(envelope->version));
  }
  if (!known_kind(static_cast<std::uint16_t>(envelope->kind))) {
    throw std::logic_error(
        "Envelope: unknown message kind " +
        std::to_string(static_cast<std::uint16_t>(envelope->kind)));
  }
  return *envelope;
}

bool SeqTracker::accept(SiteId sender, std::uint64_t seq) {
  auto [it, inserted] = last_.try_emplace(sender, seq);
  if (inserted) return true;
  if (seq <= it->second) return false;
  it->second = seq;
  return true;
}

std::uint64_t SeqTracker::last(SiteId sender) const {
  const auto it = last_.find(sender);
  return it == last_.end() ? 0 : it->second;
}

}  // namespace drep::sim
