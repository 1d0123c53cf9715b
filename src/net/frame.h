// Wire protocol for the distributed run mode.
//
// Every message is one frame: a fixed 16-byte little-endian header
//
//   u32 magic   "AFNT"
//   u16 version (currently 1)
//   u16 type    MessageType
//   u64 length  payload bytes that follow
//
// followed by `length` payload bytes. Parameter payloads reuse the AFPM
// block from nn/serialize — or, when the run uses a compression codec, an
// AFCZ container from compress/ — so model bytes are identical on disk and
// on the wire. Decoders sniff the leading magic, so either form is always
// accepted. Decoding is incremental (stream-friendly): DecodeFrameView
// reports how many bytes it consumed, or 0 when the buffer does not yet
// hold a whole frame. Malformed input — bad magic, unknown version, absurd
// length — throws util::CheckError; it never reads past the buffer.
//
// Zero-copy decode path: DecodeFrameView yields a FrameView whose payload
// aliases the caller's buffer, and the typed decoders return messages whose
// parameter fields are UpdateViews that alias that same buffer whenever the
// float payload is 4-byte aligned (it is, at every offset this protocol
// emits). Such a message is valid only as long as the buffer it was decoded
// from — consumers either finish with it inside the read callback or
// materialize it once into an arena. The owning Frame/DecodeFrame pair
// serves the blocking helpers in net/socket.h and tests.
//
// Both data messages have a fixed layout: a fixed header naming the client
// and job, then exactly one parameter block, then nothing. There is no
// negotiation — both ends of a connection are built from the same spec, so
// each already knows the codec, and trace ids are derived on both sides
// from (seed, client, job) (fl/trace_context.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/update_view.h"

namespace compress {
class Codec;
struct FeedbackState;
}  // namespace compress

namespace net {

enum class MessageType : std::uint16_t {
  kModelBroadcast = 1,  // server → client: base params for one training job
  kClientUpdate = 2,    // client → server: the resulting delta
  kAck = 3,             // server → client: update receipt
  kShutdown = 4,        // server → client: run over, close cleanly
  // 5–8 (the CodecOffer/CodecSelect/TraceOffer/TraceSelect negotiation)
  // and 9–10 are retired and must not be reused: a stale peer may still
  // send them, and decode rejects them as unknown types.
  kHello = 11,          // client → server: connection hello (its client ids)
};

const char* MessageTypeName(MessageType type);

inline constexpr std::uint32_t kFrameMagic = 0x544E4641u;  // "AFNT" (LE)
inline constexpr std::uint16_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 16;
// Upper bound on a payload; anything larger is a corrupt or hostile length
// field (the biggest legitimate payload is one model, well under this).
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

struct Frame {
  MessageType type = MessageType::kAck;
  std::vector<std::uint8_t> payload;
};

// Non-owning frame: the payload aliases whatever buffer it was decoded
// from. Implicitly constructible from a Frame so every typed decoder
// accepts both forms.
struct FrameView {
  MessageType type = MessageType::kAck;
  std::span<const std::uint8_t> payload;

  FrameView() = default;
  FrameView(MessageType t, std::span<const std::uint8_t> p)
      : type(t), payload(p) {}
  FrameView(const Frame& frame)  // NOLINT: adapter by design
      : type(frame.type), payload(frame.payload) {}
};

// Header + payload as one contiguous byte vector.
std::vector<std::uint8_t> EncodeFrame(const Frame& frame);

// Appends the encoded frame to `out` — the in-place form QueueFrame-style
// call sites use so no intermediate byte vector is built.
void AppendFrameBytes(std::vector<std::uint8_t>& out, const Frame& frame);

// Attempts to decode one frame from the start of `buffer` without copying:
// `out->payload` aliases `buffer`. Returns the number of bytes consumed
// (header + payload), or 0 when the buffer holds only a frame prefix.
// Throws util::CheckError on bad magic, unsupported version, unknown type,
// or an oversized length field.
std::size_t DecodeFrameView(std::span<const std::uint8_t> buffer,
                            FrameView* out);

// Owning form of DecodeFrameView (copies the payload into `out`).
std::size_t DecodeFrame(std::span<const std::uint8_t> buffer, Frame* out);

// --- Typed payloads ---------------------------------------------------
// Decoders validate the frame type and payload framing; truncated or
// trailing bytes throw util::CheckError. Decoded parameter fields
// (ModelBroadcastMsg::params, ClientUpdateMsg::delta) alias the frame
// buffer on the zero-copy path — see the header comment for the lifetime
// rule.

// One training job: "train from these base params". Payload: u64 round,
// u64 job_index, i32 client_id, then the parameter block. `round` is the
// server round the job was dispatched in, `job_index` the per-client job
// counter that keys the client's deterministic RNG stream, and `client_id`
// the target client, so a connection carrying many clients can demux its
// jobs. Encode and decode both reject a negative client_id.
struct ModelBroadcastMsg {
  std::uint64_t round = 0;
  std::uint64_t job_index = 0;
  std::int32_t client_id = 0;
  UpdateView params;
};

// The client's report for one job. Payload: i32 client_id, u64 job_index,
// u64 base_round, u64 num_samples, then the parameter block.
struct ClientUpdateMsg {
  std::int32_t client_id = -1;
  std::uint64_t job_index = 0;
  std::uint64_t base_round = 0;
  std::uint64_t num_samples = 0;
  UpdateView delta;
  // Decode-side only: frame payload size in bytes, filled by
  // DecodeClientUpdate so the server can audit per-update wire cost.
  // Ignored by the encoder.
  std::uint64_t wire_bytes = 0;
};

// Update receipt. Job indices are per client and one connection carries
// many clients, so the receipt names both halves of the dedup key.
struct AckMsg {
  std::int32_t client_id = -1;
  std::uint64_t job_index = 0;
};

// Client → server: the first frame on every connection. It announces every
// client id the connection will carry; the server binds them all to this
// session.
struct HelloMsg {
  std::vector<std::int32_t> client_ids;
};

// Parameter-bearing encoders take an optional codec: nullptr (or the
// identity codec) emits a raw AFPM block, anything else an AFCZ container. The update
// encoder additionally threads the client's error-feedback state for codecs
// that use it. Decoders sniff the magic, so they need no codec argument.
//
// The Append*Frame forms serialize header + payload straight into `out`
// (typically a connection's write buffer) with no intermediate Frame or
// payload vector — the zero-copy write path.
Frame EncodeModelBroadcast(const ModelBroadcastMsg& msg,
                           const compress::Codec* codec = nullptr);
void AppendModelBroadcastFrame(std::vector<std::uint8_t>& out,
                               const ModelBroadcastMsg& msg,
                               const compress::Codec* codec = nullptr);
ModelBroadcastMsg DecodeModelBroadcast(const FrameView& frame);
// The decoded params/delta view may alias the frame's payload bytes, so the
// frame must outlive the message. A temporary Frame can't: these overloads
// are deleted to make `DecodeX(EncodeX(...))` a compile error instead of a
// use-after-free (bind the frame to a local first).
ModelBroadcastMsg DecodeModelBroadcast(Frame&&) = delete;

Frame EncodeClientUpdate(const ClientUpdateMsg& msg,
                         const compress::Codec* codec = nullptr,
                         compress::FeedbackState* feedback = nullptr);
void AppendClientUpdateFrame(std::vector<std::uint8_t>& out,
                             const ClientUpdateMsg& msg,
                             const compress::Codec* codec = nullptr,
                             compress::FeedbackState* feedback = nullptr);
ClientUpdateMsg DecodeClientUpdate(const FrameView& frame);
ClientUpdateMsg DecodeClientUpdate(Frame&&) = delete;  // see above

Frame EncodeAck(const AckMsg& msg);
AckMsg DecodeAck(const FrameView& frame);

Frame EncodeHello(const HelloMsg& msg);
HelloMsg DecodeHello(const FrameView& frame);

Frame MakeShutdownFrame();

}  // namespace net
