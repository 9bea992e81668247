// The shared protocol envelope (DESIGN.md Section 15): round-trip
// fidelity, the uniform unknown-type rejection rules in open(), and the
// per-sender sequence-id machinery (SeqTracker + the envelope-log audit).
#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/invariants.hpp"
#include "sim/des.hpp"
#include "sim/envelope.hpp"

namespace drep::sim {
namespace {

struct TestPayload {
  int value = 0;
  std::vector<std::uint8_t> bytes;
};

Message wrap(Envelope envelope, SiteId from = 0, SiteId to = 1) {
  Message message;
  message.from = from;
  message.to = to;
  message.payload = std::move(envelope);
  return message;
}

TEST(Envelope, RoundTripPreservesHeaderAndPayload) {
  TestPayload payload{42, {1, 0, 1, 1}};
  const Message message =
      wrap(seal(MessageKind::kGaElites, /*sender=*/3, /*seq=*/7, payload));

  const Envelope& envelope = open(message);
  EXPECT_EQ(envelope.version, kEnvelopeVersion);
  EXPECT_EQ(envelope.kind, MessageKind::kGaElites);
  EXPECT_EQ(envelope.seq, 7u);
  EXPECT_EQ(envelope.sender, 3u);

  const TestPayload& back = unseal<TestPayload>(envelope);
  EXPECT_EQ(back.value, 42);
  EXPECT_EQ(back.bytes, payload.bytes);
}

// A payload that is not an Envelope (a replay protocol struct) is rejected
// by the shared gate with the "unknown payload" diagnostic.
TEST(Envelope, NonEnvelopePayloadRejected) {
  Message message;
  message.payload = ReadRequest{1, 2};
  try {
    (void)open(message);
    FAIL() << "open() accepted a non-Envelope payload";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("unknown payload"),
              std::string::npos);
  }
}

TEST(Envelope, UnsupportedVersionRejected) {
  Envelope envelope = seal(MessageKind::kGaElites, 0, 1, TestPayload{});
  envelope.version = kEnvelopeVersion + 1;
  EXPECT_THROW((void)open(wrap(std::move(envelope))), std::logic_error);
}

TEST(Envelope, UnknownKindRejected) {
  Envelope envelope = seal(MessageKind::kGaElites, 0, 1, TestPayload{});
  envelope.kind = static_cast<MessageKind>(7777);
  EXPECT_THROW((void)open(wrap(std::move(envelope))), std::logic_error);
  EXPECT_FALSE(known_kind(7777));
  EXPECT_TRUE(known_kind(static_cast<std::uint16_t>(MessageKind::kGaElites)));
}

TEST(Envelope, UnsealWrongPayloadTypeThrows) {
  const Envelope envelope = seal(MessageKind::kDriftColumnAck, 0, 1,
                                 TestPayload{});
  EXPECT_THROW((void)unseal<int>(envelope), std::logic_error);
}

TEST(Envelope, KindNamesAreStable) {
  EXPECT_EQ(kind_name(MessageKind::kGaElites), "ga.elites");
  EXPECT_EQ(kind_name(static_cast<MessageKind>(7777)), "unknown");
}

// accept() is strictly monotonic per sender: duplicates and stale
// retransmissions (seq <= watermark) are rejected, gaps are legal.
TEST(SeqTracker, PerSenderMonotonicWithGaps) {
  SeqTracker tracker;
  EXPECT_EQ(tracker.last(0), 0u);
  EXPECT_TRUE(tracker.accept(0, 1));
  EXPECT_TRUE(tracker.accept(0, 2));
  EXPECT_FALSE(tracker.accept(0, 2));  // duplicate
  EXPECT_FALSE(tracker.accept(0, 1));  // stale retransmission
  EXPECT_TRUE(tracker.accept(0, 5));   // gap: 3 and 4 were dropped
  EXPECT_FALSE(tracker.accept(0, 4));  // below the new watermark
  EXPECT_EQ(tracker.last(0), 5u);
  // Senders are independent streams.
  EXPECT_TRUE(tracker.accept(1, 1));
  EXPECT_EQ(tracker.last(1), 1u);
}

// The audit-side mirror of the same rule, over a recorded acceptance log.
TEST(EnvelopeAudit, MonotonicLogPasses) {
  const std::vector<audit::EnvelopeRecord> log = {
      {0, 64, 1}, {1, 64, 1}, {0, 64, 2}, {0, 65, 1}, {1, 64, 3}};
  EXPECT_TRUE(audit::check_envelope_log(log).empty());
}

TEST(EnvelopeAudit, DuplicateSeqFlagged) {
  const std::vector<audit::EnvelopeRecord> log = {
      {0, 64, 1}, {0, 64, 2}, {0, 64, 2}};
  const auto violations = audit::check_envelope_log(log);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].invariant, "envelope.seq_monotonic");
}

TEST(EnvelopeAudit, UnsequencedRecordsExempt) {
  const std::vector<audit::EnvelopeRecord> log = {
      {0, 32, 0}, {0, 32, 0}, {0, 32, 1}};
  EXPECT_TRUE(audit::check_envelope_log(log).empty());
}

}  // namespace
}  // namespace drep::sim
