// Transport-agnostic protocol session: the half of the server that cares
// about the protocol — handshake, codec/trace negotiation, update dedup,
// eviction policy — split out from fd readiness (which lives in
// net/reactor.h). A Session never touches a socket: its owner (the Host)
// feeds it decoded frames and carries out the side effects it requests.
//
// Per-session state machine:
//
//   accepted ──Hello{ids…}──▶ identified
//        │                       │ offered selects, any order
//        │                       ▼
//        │                   handshake complete ──ClientUpdate*──▶ …
//        └─ anything else / malformed ──▶ closed (HandleFrame → false)
//
// One session may carry many client ids (the client pool multiplexes its
// fleet over a few connections). Every update is acked with its
// (client_id, job_index) and delivered once: dedup is keyed on the same
// pair, so the id streams sharing a session cannot collide.
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
  // Bound ids in hello order.
  const std::vector<int>& client_ids() const { return client_ids_; }
  int primary_id() const {
    return client_ids_.empty() ? -1 : client_ids_.front();
  }
  // Negotiated codec; nullptr = identity / legacy handshake.
  const compress::Codec* codec() const { return codec_; }
  bool trace_context() const { return trace_context_; }

 private:
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
  bool handshake_complete_ = false;
  bool awaiting_codec_select_ = false;
  bool awaiting_trace_select_ = false;
  bool trace_context_ = false;
  const compress::Codec* codec_ = nullptr;
  // Dedup of resent updates, keyed (client_id, job_index).
  std::set<std::pair<int, std::uint64_t>> delivered_;
};

}  // namespace net
