#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "compress/codec.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace net {
namespace {

std::vector<std::uint8_t> Corrupted(const Frame& frame, std::size_t at,
                                    std::uint8_t value) {
  std::vector<std::uint8_t> bytes = EncodeFrame(frame);
  bytes[at] = value;
  return bytes;
}

TEST(FrameTest, RoundTripsEveryMessageType) {
  ModelBroadcastMsg broadcast;
  broadcast.round = 7;
  broadcast.job_index = 42;
  broadcast.client_id = 13;
  broadcast.params = {1.5f, -2.0f, 0.0f, 3.25f};

  ClientUpdateMsg update;
  update.client_id = 13;
  update.job_index = 42;
  update.base_round = 7;
  update.num_samples = 100;
  update.delta = {-0.5f, 0.25f};

  // The receipt names both halves of the server's dedup key: job indices
  // repeat across the clients sharing one connection.
  AckMsg ack{13, 42};

  for (const Frame& frame :
       {EncodeModelBroadcast(broadcast), EncodeClientUpdate(update),
        EncodeAck(ack), EncodeHello({{13, 14}}), MakeShutdownFrame()}) {
    const std::vector<std::uint8_t> bytes = EncodeFrame(frame);
    Frame decoded;
    ASSERT_EQ(DecodeFrame(bytes, &decoded), bytes.size());
    EXPECT_EQ(decoded.type, frame.type);
    EXPECT_EQ(decoded.payload, frame.payload);
  }

  // Decoded views alias the frame payload, so the frames must stay alive
  // for as long as the messages are inspected (a temporary here is a
  // compile error by design).
  const Frame broadcast_frame = EncodeModelBroadcast(broadcast);
  const ModelBroadcastMsg b2 = DecodeModelBroadcast(broadcast_frame);
  EXPECT_EQ(b2.round, broadcast.round);
  EXPECT_EQ(b2.job_index, broadcast.job_index);
  EXPECT_EQ(b2.client_id, broadcast.client_id);
  EXPECT_EQ(b2.params, broadcast.params);

  const Frame update_frame = EncodeClientUpdate(update);
  const ClientUpdateMsg u2 = DecodeClientUpdate(update_frame);
  EXPECT_EQ(u2.client_id, update.client_id);
  EXPECT_EQ(u2.job_index, update.job_index);
  EXPECT_EQ(u2.base_round, update.base_round);
  EXPECT_EQ(u2.num_samples, update.num_samples);
  EXPECT_EQ(u2.delta, update.delta);
  // The decoder reports the wire cost of the whole payload.
  EXPECT_EQ(u2.wire_bytes, update_frame.payload.size());

  const AckMsg a2 = DecodeAck(EncodeAck(ack));
  EXPECT_EQ(a2.client_id, ack.client_id);
  EXPECT_EQ(a2.job_index, ack.job_index);
}

TEST(FrameTest, PartialFrameConsumesNothing) {
  const std::vector<std::uint8_t> bytes = EncodeFrame(EncodeAck({5}));
  Frame out;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(DecodeFrame(std::span(bytes).first(len), &out), 0u)
        << "prefix of " << len << " bytes decoded as a whole frame";
  }
  EXPECT_EQ(DecodeFrame(bytes, &out), bytes.size());
}

TEST(FrameTest, BadMagicThrows) {
  const auto bytes = Corrupted(EncodeAck({5}), 0, 0xFF);
  Frame out;
  EXPECT_THROW(DecodeFrame(bytes, &out), util::CheckError);
}

TEST(FrameTest, WrongVersionThrows) {
  const auto bytes = Corrupted(EncodeAck({5}), 4, 0x7F);  // version low byte
  Frame out;
  EXPECT_THROW(DecodeFrame(bytes, &out), util::CheckError);
}

TEST(FrameTest, UnknownTypeThrows) {
  // 5–10 are retired type values (5–8 were the codec and trace
  // negotiation): a peer still speaking them must be rejected at decode,
  // not handed to a session.
  for (const std::uint8_t type : {0x66, 5, 6, 7, 8, 9, 10}) {
    const auto bytes = Corrupted(EncodeAck({5}), 6, type);  // type low byte
    Frame out;
    EXPECT_THROW(DecodeFrame(bytes, &out), util::CheckError)
        << "type " << int{type};
  }
}

TEST(FrameTest, OversizedLengthThrows) {
  std::vector<std::uint8_t> bytes = EncodeFrame(EncodeAck({5}));
  const std::uint64_t absurd = kMaxFramePayload + 1;
  std::memcpy(bytes.data() + 8, &absurd, sizeof(absurd));
  Frame out;
  EXPECT_THROW(DecodeFrame(bytes, &out), util::CheckError);
}

TEST(FrameTest, TypedDecoderRejectsWrongFrameType) {
  EXPECT_THROW(DecodeAck(EncodeModelBroadcast({})), util::CheckError);
  const Frame ack = EncodeAck({1});
  EXPECT_THROW(DecodeModelBroadcast(ack), util::CheckError);
  const Frame shutdown = MakeShutdownFrame();
  EXPECT_THROW(DecodeClientUpdate(shutdown), util::CheckError);
}

TEST(FrameTest, TypedDecoderRejectsTruncatedPayload) {
  Frame frame = EncodeClientUpdate(
      {.client_id = 1, .job_index = 2, .base_round = 3, .num_samples = 4,
       .delta = {1.0f, 2.0f, 3.0f}});
  frame.payload.resize(frame.payload.size() / 2);
  EXPECT_THROW(DecodeClientUpdate(frame), util::CheckError);
}

TEST(FrameTest, TypedDecoderRejectsTrailingBytes) {
  Frame frame = EncodeAck({17});
  frame.payload.push_back(0);
  EXPECT_THROW(DecodeAck(frame), util::CheckError);

  // Data messages end at their parameter block: no tail is sniffed, so any
  // byte after it is garbage.
  Frame broadcast = EncodeModelBroadcast({.round = 1, .params = {1.0f}});
  broadcast.payload.push_back(0xAB);
  EXPECT_THROW(DecodeModelBroadcast(broadcast), util::CheckError);
  Frame update = EncodeClientUpdate({.client_id = 1, .delta = {1.0f}});
  update.payload.resize(update.payload.size() + 20, 0x00);
  EXPECT_THROW(DecodeClientUpdate(update), util::CheckError);
}

TEST(FrameTest, BroadcastClientIdSpansTheNonNegativeRange) {
  for (const std::int32_t id : {0, std::numeric_limits<std::int32_t>::max()}) {
    const Frame frame = EncodeModelBroadcast(
        {.round = 2, .job_index = 5, .client_id = id, .params = {1.0f}});
    const ModelBroadcastMsg msg = DecodeModelBroadcast(frame);
    EXPECT_EQ(msg.client_id, id);
    EXPECT_EQ(msg.job_index, 5u);
    EXPECT_EQ(msg.params, std::vector<float>{1.0f});
  }
  // The header is u64 round, u64 job_index, i32 client_id. A negative id
  // arrives from outside the process, so the decoder must reject it; the
  // encoder refuses to build one, so the payload is patched by hand.
  Frame hostile = EncodeModelBroadcast({.client_id = 0, .params = {1.0f}});
  const std::int32_t negative = -1;
  std::memcpy(hostile.payload.data() + 2 * sizeof(std::uint64_t), &negative,
              sizeof(negative));
  EXPECT_THROW(DecodeModelBroadcast(hostile), util::CheckError);
  EXPECT_THROW(EncodeModelBroadcast({.client_id = -1, .params = {1.0f}}),
               util::CheckError);
}

TEST(FrameTest, EmptyModelRoundTrips) {
  const Frame frame = EncodeModelBroadcast({});
  const ModelBroadcastMsg msg = DecodeModelBroadcast(frame);
  EXPECT_TRUE(msg.params.empty());
}

TEST(FrameTest, IdentityCodecProducesLegacyBytes) {
  // The null codec and the identity codec must emit the same raw AFPM
  // block, so "identity" and "no codec" are one wire format.
  const ModelBroadcastMsg msg{.round = 3, .job_index = 9,
                              .params = {1.0f, -2.0f, 0.5f}};
  const Frame legacy = EncodeModelBroadcast(msg);
  const Frame identity =
      EncodeModelBroadcast(msg, &compress::Get("identity"));
  EXPECT_EQ(identity.payload, legacy.payload);
}

TEST(FrameTest, CompressedBroadcastRoundTrips) {
  ModelBroadcastMsg msg;
  msg.round = 11;
  msg.job_index = 4;
  msg.params = {0.5f, -0.25f, 2.0f, 0.0f};  // half-representable → exact
  const Frame frame = EncodeModelBroadcast(msg, &compress::Get("fp16"));
  const ModelBroadcastMsg decoded = DecodeModelBroadcast(frame);
  EXPECT_EQ(decoded.round, msg.round);
  EXPECT_EQ(decoded.job_index, msg.job_index);
  EXPECT_EQ(decoded.params, msg.params);
}

TEST(FrameTest, CompressedUpdateRoundTripsWithFeedback) {
  ClientUpdateMsg msg;
  msg.client_id = 5;
  msg.job_index = 2;
  msg.base_round = 1;
  msg.num_samples = 64;
  std::vector<float> delta(40, 0.001f);
  delta[7] = 3.0f;
  delta[31] = -2.0f;
  msg.delta = std::move(delta);

  compress::FeedbackState feedback;
  const Frame frame =
      EncodeClientUpdate(msg, &compress::Get("topk-delta"), &feedback);
  const ClientUpdateMsg decoded = DecodeClientUpdate(frame);
  EXPECT_EQ(decoded.client_id, msg.client_id);
  EXPECT_EQ(decoded.job_index, msg.job_index);
  ASSERT_EQ(decoded.delta.size(), msg.delta.size());
  // k = 4 of 40: the two spikes survive (exactly — both are fp16 values),
  // ties at 0.001 fill the remaining slots from the lowest index up, and
  // every dropped element lands whole in the residual.
  EXPECT_EQ(decoded.delta[7], 3.0f);
  EXPECT_EQ(decoded.delta[31], -2.0f);
  EXPECT_EQ(decoded.delta[2], 0.0f);
  ASSERT_EQ(feedback.residual.size(), msg.delta.size());
  EXPECT_EQ(feedback.residual[7], 0.0f);
  EXPECT_FLOAT_EQ(feedback.residual[2], 0.001f);
}

TEST(FrameTest, OnlyUplinkDecodesChargeBytesCopied) {
  // transport.bytes_copied counts the server's copies of received updates.
  // A lossy broadcast decode materializes too, but on the client side (the
  // pool shares the server's process), so it must not be counted.
  obs::Counter& copied =
      obs::DefaultRegistry().GetCounter("transport.bytes_copied");
  const std::vector<float> values(37, 0.5f);

  ModelBroadcastMsg broadcast;
  broadcast.params = values;
  const Frame down = EncodeModelBroadcast(broadcast, &compress::Get("fp16"));
  std::uint64_t before = copied.Value();
  EXPECT_EQ(DecodeModelBroadcast(down).params.size(), values.size());
  EXPECT_EQ(copied.Value(), before);

  ClientUpdateMsg update;
  update.delta = values;
  const Frame up = EncodeClientUpdate(update, &compress::Get("fp16"));
  before = copied.Value();
  EXPECT_EQ(DecodeClientUpdate(up).delta.size(), values.size());
  EXPECT_EQ(copied.Value() - before, 4u * values.size());
}

TEST(FrameTest, CorruptCompressedPayloadThrows) {
  Frame frame = EncodeClientUpdate(
      {.client_id = 1, .job_index = 2, .base_round = 3, .num_samples = 4,
       .delta = {1.0f, 2.0f, 3.0f, 4.0f}},
      &compress::Get("fp16"));
  frame.payload.back() ^= 0x01;  // body byte → checksum mismatch
  EXPECT_THROW(DecodeClientUpdate(frame), util::CheckError);
}

TEST(FrameTest, DecodesBackToBackFramesIncrementally) {
  std::vector<std::uint8_t> stream = EncodeFrame(EncodeAck({1}));
  const std::vector<std::uint8_t> second =
      EncodeFrame(EncodeModelBroadcast({.round = 2, .job_index = 3,
                                        .params = {4.0f}}));
  stream.insert(stream.end(), second.begin(), second.end());

  Frame out;
  const std::size_t first_len = DecodeFrame(stream, &out);
  ASSERT_GT(first_len, 0u);
  EXPECT_EQ(out.type, MessageType::kAck);
  const std::size_t second_len =
      DecodeFrame(std::span(stream).subspan(first_len), &out);
  EXPECT_EQ(first_len + second_len, stream.size());
  EXPECT_EQ(out.type, MessageType::kModelBroadcast);
}

}  // namespace
}  // namespace net
