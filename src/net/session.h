// Transport-agnostic protocol session: the half of the server that cares
// about the protocol — handshake, update dedup, eviction policy — split out
// from fd readiness (which lives in net/reactor.h). A Session never touches
// a socket: its owner (the Host) feeds it decoded frames and carries out
// the side effects it requests.
//
// Per-session state machine:
//
//   accepted ──Hello{ids…}──▶ established ──ClientUpdate*──▶ …
//        └─ anything else / malformed ──▶ closed (HandleFrame → false)
//
// There is nothing to negotiate: the peer is built from the same spec as
// the server, so the codec is known on both ends and trace ids are derived
// on both sides (fl/trace_context.h).
//
// One session may carry many client ids (the client pool multiplexes its
// fleet over a few connections). Every update is acked with its
// (client_id, job_index) and delivered once: dedup is keyed on the same
// pair, so the id streams sharing a session cannot collide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "net/frame.h"

namespace net {

class Session {
 public:
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
    // The hello just bound every id the session carries.
    virtual void OnHandshakeComplete() = 0;
    // First delivery of an update (duplicates are acked but suppressed).
    virtual void OnUpdate(int client_id, ClientUpdateMsg msg) = 0;
    virtual void OnDuplicateUpdate(int client_id,
                                   std::uint64_t job_index) = 0;
  };

  explicit Session(Host* host);

  // Feeds one decoded frame through the state machine. Returns false when
  // the session must close (protocol violation, peer goodbye). Malformed
  // typed payloads throw util::CheckError — the caller contains that the
  // same way it contains malformed framing.
  bool HandleFrame(const FrameView& frame);

  bool handshake_complete() const { return handshake_complete_; }
  // Bound ids in hello order.
  const std::vector<int>& client_ids() const { return client_ids_; }
  int primary_id() const {
    return client_ids_.empty() ? -1 : client_ids_.front();
  }

 private:
  bool HandleHello(const FrameView& frame);
  bool HandleClientUpdate(const FrameView& frame);
  bool Owns(int client_id) const { return owned_ids_.count(client_id) > 0; }

  Host* host_;
  std::vector<int> client_ids_;
  std::set<int> owned_ids_;
  // Set once the hello bound every id; a hello that fails part-way leaves
  // some ids bound (client_ids_ records them for the owner to unbind) but
  // never establishes the session.
  bool handshake_complete_ = false;
  // Dedup of resent updates, keyed (client_id, job_index).
  std::set<std::pair<int, std::uint64_t>> delivered_;
};

}  // namespace net
