#include "net/frame.h"

#include <cstring>

#include "compress/codec.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace net {
namespace {

template <typename T>
void AppendRaw(std::vector<std::uint8_t>& out, const T& value) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

// Reads sizeof(T) bytes at `*offset`, advancing it; checks bounds first.
template <typename T>
T ReadRaw(std::span<const std::uint8_t> bytes, std::size_t* offset) {
  AF_CHECK_LE(*offset + sizeof(T), bytes.size()) << "truncated payload field";
  T value;
  std::memcpy(&value, bytes.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return value;
}

// u64 round, u64 job_index, i32 client_id.
inline constexpr std::size_t kBroadcastHeaderBytes =
    2 * sizeof(std::uint64_t) + sizeof(std::int32_t);

bool KnownType(std::uint16_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kModelBroadcast:
    case MessageType::kClientUpdate:
    case MessageType::kAck:
    case MessageType::kShutdown:
    case MessageType::kHello:
      return true;
  }
  return false;
}

// Either a raw AFPM block (codec null or identity) or an AFCZ container;
// peers sniff the magic on decode.
void AppendParams(std::vector<std::uint8_t>& out,
                  std::span<const float> values, const compress::Codec* codec,
                  compress::FeedbackState* feedback = nullptr) {
  if (codec == nullptr || compress::IsIdentity(*codec)) {
    nn::AppendFlatParams(out, values);
    return;
  }
  compress::AppendEncodedParams(out, *codec, values, feedback);
}

// Parses one parameter block as a view. transport.bytes_copied counts the
// server's copies of received updates, so only an uplink decode (`uplink`)
// charges a materialization to it; the zero-copy path charges nothing, and
// a broadcast decode (the client side, which may share the server's
// process) never does.
UpdateView ReadParamsView(std::span<const std::uint8_t> payload,
                          std::size_t* offset, bool uplink) {
  compress::ParsedParamsView parsed =
      compress::ParseAnyParamsView(payload, offset);
  if (uplink && parsed.copied_bytes > 0) {
    static obs::Counter& copied =
        obs::DefaultRegistry().GetCounter("transport.bytes_copied");
    copied.Increment(parsed.copied_bytes);
  }
  return UpdateView(parsed.values, std::move(parsed.keepalive));
}

void CheckType(const FrameView& frame, MessageType expected) {
  AF_CHECK(frame.type == expected)
      << "expected " << MessageTypeName(expected) << " frame, got "
      << MessageTypeName(frame.type);
}

void CheckFullyConsumed(const FrameView& frame, std::size_t offset) {
  AF_CHECK_EQ(offset, frame.payload.size())
      << "trailing bytes in " << MessageTypeName(frame.type) << " payload";
}

// In-place frame framing: writes the header with a zero length, lets the
// caller append the payload, then patches the length. This is how payloads
// serialize straight into a connection's write buffer with no intermediate
// vector.
std::size_t BeginFrame(std::vector<std::uint8_t>& out, MessageType type) {
  AppendRaw(out, kFrameMagic);
  AppendRaw(out, kFrameVersion);
  AppendRaw(out, static_cast<std::uint16_t>(type));
  const std::size_t length_pos = out.size();
  AppendRaw(out, std::uint64_t{0});
  return length_pos;
}

void EndFrame(std::vector<std::uint8_t>& out, std::size_t length_pos) {
  const std::uint64_t length = static_cast<std::uint64_t>(
      out.size() - length_pos - sizeof(std::uint64_t));
  AF_CHECK_LE(length, kMaxFramePayload) << "payload too large";
  std::memcpy(out.data() + length_pos, &length, sizeof(length));
}

void AppendModelBroadcastPayload(std::vector<std::uint8_t>& out,
                                 const ModelBroadcastMsg& msg,
                                 const compress::Codec* codec) {
  AF_CHECK_GE(msg.client_id, 0) << "negative broadcast client id";
  AppendRaw(out, msg.round);
  AppendRaw(out, msg.job_index);
  AppendRaw(out, msg.client_id);
  AppendParams(out, msg.params, codec);
}

void AppendClientUpdatePayload(std::vector<std::uint8_t>& out,
                               const ClientUpdateMsg& msg,
                               const compress::Codec* codec,
                               compress::FeedbackState* feedback) {
  AppendRaw(out, msg.client_id);
  AppendRaw(out, msg.job_index);
  AppendRaw(out, msg.base_round);
  AppendRaw(out, msg.num_samples);
  AppendParams(out, msg.delta, codec, feedback);
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kModelBroadcast:
      return "ModelBroadcast";
    case MessageType::kClientUpdate:
      return "ClientUpdate";
    case MessageType::kAck:
      return "Ack";
    case MessageType::kShutdown:
      return "Shutdown";
    case MessageType::kHello:
      return "Hello";
  }
  return "?";
}

std::vector<std::uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  AppendFrameBytes(out, frame);
  return out;
}

void AppendFrameBytes(std::vector<std::uint8_t>& out, const Frame& frame) {
  AF_TRACE_SPAN("net.frame.encode");
  AF_CHECK_LE(frame.payload.size(), kMaxFramePayload) << "payload too large";
  const std::size_t length_pos = BeginFrame(out, frame.type);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  EndFrame(out, length_pos);
}

std::size_t DecodeFrameView(std::span<const std::uint8_t> buffer,
                            FrameView* out) {
  AF_CHECK(out != nullptr);
  if (buffer.size() < kFrameHeaderBytes) {
    return 0;
  }
  AF_TRACE_SPAN("net.frame.decode");
  std::size_t offset = 0;
  const auto magic = ReadRaw<std::uint32_t>(buffer, &offset);
  AF_CHECK_EQ(magic, kFrameMagic) << "bad frame magic";
  const auto version = ReadRaw<std::uint16_t>(buffer, &offset);
  AF_CHECK_EQ(version, kFrameVersion) << "unsupported frame version";
  const auto type = ReadRaw<std::uint16_t>(buffer, &offset);
  AF_CHECK(KnownType(type)) << "unknown frame type " << type;
  const auto length = ReadRaw<std::uint64_t>(buffer, &offset);
  AF_CHECK_LE(length, kMaxFramePayload)
      << "frame length " << length << " exceeds limit";
  if (buffer.size() - kFrameHeaderBytes < length) {
    return 0;  // whole header but partial payload: wait for more bytes
  }
  out->type = static_cast<MessageType>(type);
  out->payload =
      buffer.subspan(kFrameHeaderBytes, static_cast<std::size_t>(length));
  return kFrameHeaderBytes + static_cast<std::size_t>(length);
}

std::size_t DecodeFrame(std::span<const std::uint8_t> buffer, Frame* out) {
  AF_CHECK(out != nullptr);
  FrameView view;
  const std::size_t consumed = DecodeFrameView(buffer, &view);
  if (consumed == 0) {
    return 0;
  }
  out->type = view.type;
  out->payload.assign(view.payload.begin(), view.payload.end());
  return consumed;
}

Frame EncodeModelBroadcast(const ModelBroadcastMsg& msg,
                           const compress::Codec* codec) {
  Frame frame;
  frame.type = MessageType::kModelBroadcast;
  frame.payload.reserve(kBroadcastHeaderBytes +
                        nn::FlatParamsWireSize(msg.params.size()));
  AppendModelBroadcastPayload(frame.payload, msg, codec);
  return frame;
}

void AppendModelBroadcastFrame(std::vector<std::uint8_t>& out,
                               const ModelBroadcastMsg& msg,
                               const compress::Codec* codec) {
  out.reserve(out.size() + kFrameHeaderBytes + kBroadcastHeaderBytes +
              nn::FlatParamsWireSize(msg.params.size()));
  const std::size_t length_pos =
      BeginFrame(out, MessageType::kModelBroadcast);
  AppendModelBroadcastPayload(out, msg, codec);
  EndFrame(out, length_pos);
}

ModelBroadcastMsg DecodeModelBroadcast(const FrameView& frame) {
  CheckType(frame, MessageType::kModelBroadcast);
  ModelBroadcastMsg msg;
  std::size_t offset = 0;
  msg.round = ReadRaw<std::uint64_t>(frame.payload, &offset);
  msg.job_index = ReadRaw<std::uint64_t>(frame.payload, &offset);
  msg.client_id = ReadRaw<std::int32_t>(frame.payload, &offset);
  AF_CHECK_GE(msg.client_id, 0) << "negative broadcast client id";
  msg.params = ReadParamsView(frame.payload, &offset, /*uplink=*/false);
  CheckFullyConsumed(frame, offset);
  return msg;
}

Frame EncodeClientUpdate(const ClientUpdateMsg& msg,
                         const compress::Codec* codec,
                         compress::FeedbackState* feedback) {
  Frame frame;
  frame.type = MessageType::kClientUpdate;
  frame.payload.reserve(sizeof(std::int32_t) + 3 * sizeof(std::uint64_t) +
                        nn::FlatParamsWireSize(msg.delta.size()));
  AppendClientUpdatePayload(frame.payload, msg, codec, feedback);
  return frame;
}

void AppendClientUpdateFrame(std::vector<std::uint8_t>& out,
                             const ClientUpdateMsg& msg,
                             const compress::Codec* codec,
                             compress::FeedbackState* feedback) {
  out.reserve(out.size() + kFrameHeaderBytes + sizeof(std::int32_t) +
              3 * sizeof(std::uint64_t) +
              nn::FlatParamsWireSize(msg.delta.size()));
  const std::size_t length_pos = BeginFrame(out, MessageType::kClientUpdate);
  AppendClientUpdatePayload(out, msg, codec, feedback);
  EndFrame(out, length_pos);
}

ClientUpdateMsg DecodeClientUpdate(const FrameView& frame) {
  CheckType(frame, MessageType::kClientUpdate);
  ClientUpdateMsg msg;
  std::size_t offset = 0;
  msg.client_id = ReadRaw<std::int32_t>(frame.payload, &offset);
  msg.job_index = ReadRaw<std::uint64_t>(frame.payload, &offset);
  msg.base_round = ReadRaw<std::uint64_t>(frame.payload, &offset);
  msg.num_samples = ReadRaw<std::uint64_t>(frame.payload, &offset);
  msg.delta = ReadParamsView(frame.payload, &offset, /*uplink=*/true);
  CheckFullyConsumed(frame, offset);
  msg.wire_bytes = frame.payload.size();
  return msg;
}

Frame EncodeAck(const AckMsg& msg) {
  Frame frame;
  frame.type = MessageType::kAck;
  AppendRaw(frame.payload, msg.client_id);
  AppendRaw(frame.payload, msg.job_index);
  return frame;
}

AckMsg DecodeAck(const FrameView& frame) {
  CheckType(frame, MessageType::kAck);
  AckMsg msg;
  std::size_t offset = 0;
  msg.client_id = ReadRaw<std::int32_t>(frame.payload, &offset);
  msg.job_index = ReadRaw<std::uint64_t>(frame.payload, &offset);
  CheckFullyConsumed(frame, offset);
  return msg;
}

Frame EncodeHello(const HelloMsg& msg) {
  Frame frame;
  frame.type = MessageType::kHello;
  AF_CHECK_LE(msg.client_ids.size(), 1u << 20) << "too many hello client ids";
  AppendRaw(frame.payload, static_cast<std::uint32_t>(msg.client_ids.size()));
  for (const std::int32_t id : msg.client_ids) {
    AF_CHECK_GE(id, 0) << "negative hello client id";
    AppendRaw(frame.payload, id);
  }
  return frame;
}

HelloMsg DecodeHello(const FrameView& frame) {
  CheckType(frame, MessageType::kHello);
  HelloMsg msg;
  std::size_t offset = 0;
  const auto count = ReadRaw<std::uint32_t>(frame.payload, &offset);
  AF_CHECK_LE(count, 1u << 20) << "hello client-id count " << count
                               << " exceeds limit";
  // Bounds before reserve so a hostile count can't balloon the allocation.
  AF_CHECK_LE(offset + std::size_t{count} * sizeof(std::int32_t),
              frame.payload.size())
      << "truncated hello payload";
  msg.client_ids.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    msg.client_ids.push_back(ReadRaw<std::int32_t>(frame.payload, &offset));
  }
  CheckFullyConsumed(frame, offset);
  return msg;
}

Frame MakeShutdownFrame() {
  Frame frame;
  frame.type = MessageType::kShutdown;
  return frame;
}

}  // namespace net
