#include "net/session.h"

#include "util/check.h"
#include "util/logging.h"

namespace net {

Session::Session(Host* host) : host_(host) { AF_CHECK(host_ != nullptr); }

bool Session::HandleFrame(const FrameView& frame) {
  if (!handshake_complete_) {
    if (frame.type == MessageType::kHello) {
      return HandleHello(frame);
    }
    AF_LOG(kWarn) << "net: connection sent " << MessageTypeName(frame.type)
                  << " before handshake; closing";
    return false;
  }
  switch (frame.type) {
    case MessageType::kClientUpdate:
      return HandleClientUpdate(frame);
    case MessageType::kAck:
      return true;  // stray receipt; harmless
    case MessageType::kShutdown:
      return false;  // client says goodbye
    case MessageType::kHello:
      AF_LOG(kWarn) << "net: client " << primary_id()
                    << " sent a second hello; closing";
      return false;
    case MessageType::kModelBroadcast:
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
  handshake_complete_ = true;
  host_->OnHandshakeComplete();
  return true;
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

}  // namespace net
