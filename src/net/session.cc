#include "net/session.h"

#include "compress/codec.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/registry.h"

namespace net {

Session::Session(Host* host, Options options)
    : host_(host), options_(std::move(options)) {
  AF_CHECK(host_ != nullptr);
}

bool Session::HandleFrame(const FrameView& frame) {
  if (!identified()) {
    if (frame.type == MessageType::kHello) {
      return HandleHello(frame);
    }
    AF_LOG(kWarn) << "net: connection sent " << MessageTypeName(frame.type)
                  << " before handshake; closing";
    return false;
  }
  if (!handshake_complete_) {
    return HandleNegotiation(frame);
  }
  switch (frame.type) {
    case MessageType::kClientUpdate:
      return HandleClientUpdate(frame);
    case MessageType::kAck:
      return true;  // stray receipt; harmless
    case MessageType::kShutdown:
      return false;  // client says goodbye
    case MessageType::kCodecSelect:
    case MessageType::kTraceSelect:
      return true;  // repeated select after negotiation; harmless
    case MessageType::kHello:
      AF_LOG(kWarn) << "net: client " << primary_id()
                    << " sent a second hello; closing";
      return false;
    case MessageType::kModelBroadcast:
    case MessageType::kCodecOffer:
    case MessageType::kTraceOffer:
      AF_LOG(kWarn) << "net: client " << primary_id()
                    << " sent a server-only frame; closing";
      return false;
  }
  return false;
}

bool Session::HandleHello(const FrameView& frame) {
  const HelloMsg hello = DecodeHello(frame);
  if (hello.client_ids.empty()) {
    AF_LOG(kWarn) << "net: hello with no client ids; closing";
    return false;
  }
  for (const std::int32_t id : hello.client_ids) {
    if (id < 0) {
      AF_LOG(kWarn) << "net: hello declared negative client id "
                    << id << "; closing";
      return false;
    }
    // Bind incrementally so a mid-hello failure still leaves client_ids_
    // an accurate record of what the owner must unbind on close.
    if (!host_->BindClient(static_cast<int>(id))) {
      return false;
    }
    client_ids_.push_back(static_cast<int>(id));
    owned_ids_.insert(static_cast<int>(id));
  }
  BeginNegotiation();
  return true;
}

void Session::BeginNegotiation() {
  // Negotiation rounds: the handshake completes (and the host's connect
  // notification fires) only once every offered extension's select arrives,
  // so the driver never broadcasts before it knows the downlink codec or
  // whether the peer understands trace context.
  if (!options_.advertised_codecs.empty()) {
    host_->SendFrame(EncodeCodecOffer({options_.advertised_codecs}));
    awaiting_codec_select_ = true;
  }
  if (options_.offer_trace_context) {
    host_->SendFrame(EncodeTraceOffer({}));
    awaiting_trace_select_ = true;
  }
  MaybeCompleteHandshake();
}

bool Session::HandleNegotiation(const FrameView& frame) {
  // Negotiation in flight: only the selects we are waiting on are
  // acceptable (in any order).
  if (frame.type == MessageType::kCodecSelect && awaiting_codec_select_) {
    const CodecSelectMsg select = DecodeCodecSelect(frame);
    const std::string key = util::CanonicalName(select.codec);
    bool offered = key == "identity";
    for (const std::string& name : options_.advertised_codecs) {
      offered = offered || util::CanonicalName(name) == key;
    }
    if (!offered || !compress::Has(select.codec)) {
      AF_LOG(kWarn) << "net: client " << primary_id()
                    << " selected unavailable codec '" << select.codec
                    << "'; closing";
      return false;
    }
    const compress::Codec& codec = compress::Get(select.codec);
    codec_ = compress::IsIdentity(codec) ? nullptr : &codec;
    awaiting_codec_select_ = false;
    MaybeCompleteHandshake();
    return true;
  }
  if (frame.type == MessageType::kTraceSelect && awaiting_trace_select_) {
    trace_context_ = DecodeTraceSelect(frame).enabled;
    awaiting_trace_select_ = false;
    MaybeCompleteHandshake();
    return true;
  }
  AF_LOG(kWarn) << "net: client " << primary_id() << " sent "
                << MessageTypeName(frame.type)
                << " before negotiation finished; closing";
  return false;
}

bool Session::HandleClientUpdate(const FrameView& frame) {
  ClientUpdateMsg msg = DecodeClientUpdate(frame);
  if (!Owns(msg.client_id)) {
    AF_LOG(kWarn) << "net: session for client " << primary_id()
                  << " sent update claiming id " << msg.client_id
                  << "; closing";
    return false;
  }
  // Ack every copy so the sender stops retrying; deliver only the first.
  // Queue-only (no immediate flush): a flush failure here would destroy
  // the session while its owner is still feeding it frames.
  host_->SendFrame(EncodeAck({msg.client_id, msg.job_index}));
  if (!delivered_.emplace(msg.client_id, msg.job_index).second) {
    host_->OnDuplicateUpdate(msg.client_id, msg.job_index);
    return true;
  }
  host_->OnUpdate(msg.client_id, std::move(msg));
  return true;
}

void Session::MaybeCompleteHandshake() {
  if (awaiting_codec_select_ || awaiting_trace_select_) {
    return;
  }
  handshake_complete_ = true;
  host_->OnHandshakeComplete();
}

}  // namespace net
