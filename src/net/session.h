// Transport-agnostic protocol session: the half of the server that cares
// about the protocol — handshake, codec/trace negotiation, update dedup,
// eviction policy — split out from fd readiness (which lives in
// net/reactor.h). A Session never touches a socket: its owner (the Host)
// feeds it decoded frames and carries out the side effects it requests.
//
// Per-session state machine:
//
//   accepted ──Ack{client_id}──────▶ identified (single client)
//        │  └─Hello{ids…}──────────▶ identified (multiplexed)
//        │                              │ offered selects, any order
//        │                              ▼
//        │                          handshake complete ──ClientUpdate*──▶ …
//        └─ anything else / malformed ──▶ closed (HandleFrame → false)
//
// Multiplexed sessions carry many client ids over one connection (the
// virtual-client pool's hello). Negotiation is identical. Update dedup is
// keyed (client_id, job_index) so id streams on a shared session cannot
// collide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.h"

namespace compress {
class Codec;
}  // namespace compress

namespace net {

class Session {
 public:
  struct Options {
    // Codec names offered after the hello (preference order). Empty → no
    // CodecOffer, legacy two-step handshake.
    std::vector<std::string> advertised_codecs;
    // Offer trace-context propagation (TraceOffer after the hello).
    bool offer_trace_context = false;
  };

  // The transport owning this session. All calls arrive synchronously from
  // inside HandleFrame on the owner thread.
  class Host {
   public:
    virtual ~Host() = default;
    // Queues a protocol frame toward the peer (no flush requirement).
    virtual void SendFrame(const Frame& frame) = 0;
    // Registers `client_id` as reachable through this session. false →
    // the id is already bound elsewhere; the session closes.
    virtual bool BindClient(int client_id) = 0;
    // The handshake (hello + every offered select) just finished.
    virtual void OnHandshakeComplete() = 0;
    // First delivery of an update (duplicates are acked but suppressed).
    virtual void OnUpdate(int client_id, ClientUpdateMsg msg) = 0;
    virtual void OnDuplicateUpdate(int client_id,
                                   std::uint64_t job_index) = 0;
  };

  Session(Host* host, Options options);

  // Feeds one decoded frame through the state machine. Returns false when
  // the session must close (protocol violation, peer goodbye). Malformed
  // typed payloads throw util::CheckError — the caller contains that the
  // same way it contains malformed framing.
  bool HandleFrame(const FrameView& frame);

  bool identified() const { return !client_ids_.empty(); }
  bool handshake_complete() const { return handshake_complete_; }
  bool multiplexed() const { return multiplexed_; }
  // Bound ids in hello order (one entry for single-client sessions).
  const std::vector<int>& client_ids() const { return client_ids_; }
  int primary_id() const {
    return client_ids_.empty() ? -1 : client_ids_.front();
  }
  // Negotiated codec; nullptr = identity / legacy handshake.
  const compress::Codec* codec() const { return codec_; }
  bool trace_context() const { return trace_context_; }

 private:
  bool HandleHelloAck(const FrameView& frame);
  bool HandleHello(const FrameView& frame);
  bool HandleNegotiation(const FrameView& frame);
  bool HandleClientUpdate(const FrameView& frame);
  // Sends the offers this session's options call for; completes the
  // handshake immediately when there are none.
  void BeginNegotiation();
  void MaybeCompleteHandshake();
  bool Owns(int client_id) const { return owned_ids_.count(client_id) > 0; }

  Host* host_;
  Options options_;
  std::vector<int> client_ids_;
  std::set<int> owned_ids_;
  bool multiplexed_ = false;
  bool handshake_complete_ = false;
  bool awaiting_codec_select_ = false;
  bool awaiting_trace_select_ = false;
  bool trace_context_ = false;
  const compress::Codec* codec_ = nullptr;
  // Dedup of resent updates, keyed (client_id, job_index) so multiplexed
  // id streams cannot collide.
  std::set<std::pair<int, std::uint64_t>> delivered_;
};

}  // namespace net
