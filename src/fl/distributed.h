// Distributed run mode: the same FedBuff + Defense server loop, but with
// every local-training job round-tripped over a real TCP connection.
//
// Topology (all loopback, one process):
//
//   driver thread                         client fleet (fl/client_pool.h)
//   ─────────────                         ──────────────────────────────
//   net::Server (epoll reactor) ◀─ TCP ─▶ VirtualClientPool: clients
//   Simulation + TcpBackend               multiplexed over a few
//   delta slots → defense                 connections, a worker crew
//
// Training jobs carry the same (client_id, job_index)-keyed RNG streams as
// the in-process simulator, so with a quiet wire a tcp run is
// bit-identical to an inproc run of the same config. The wire is allowed
// to be hostile: a net::FaultInjector on each client's uplink can drop,
// delay, duplicate, or truncate frames and kill connections outright. The
// pool resends until acked, so drops, delays and duplicates leave the
// result unchanged; truncate and kill close the client's connection, and
// the server evicts the dead and keeps aggregating from the survivors.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "attacks/attack.h"
#include "defense/defense.h"
#include "fl/client.h"
#include "fl/client_pool.h"
#include "fl/simulation.h"
#include "net/fault_injector.h"
#include "net/socket.h"

namespace fl {

struct TransportOptions {
  std::uint16_t port = 0;      // 0 → ephemeral loopback port
  int io_timeout_ms = 10000;   // per-connection stalled-I/O guard
  int job_timeout_ms = 120000; // evict a client that never answers a job
  int ack_timeout_ms = 250;    // client resend timer for unacked updates
  int handshake_timeout_ms = 10000;
  net::RetryConfig retry;      // connect retry + update resend backoff
  net::FaultConfig faults;     // wire fault injection (off by default)
  // Update-compression codec name (compress/codec.h); empty → identity.
  // Server and pool both read it from this spec: clients encode uplink
  // deltas with it, and broadcast-safe codecs also compress the downlink.
  // Delta-only codecs (int8, topk-delta) fall back to identity for
  // broadcasts.
  std::string codec;
};

// Everything a distributed run needs, in one bag — the mirror of
// ExperimentSpec for the over-the-wire mode. `pool` shapes the client
// fleet (ClientPoolSpec in fl/client_pool.h).
struct DistributedSpec {
  SimulationConfig sim;
  nn::ModelSpec model;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<int> malicious_ids;
  std::unique_ptr<attacks::Attack> attack;
  std::unique_ptr<defense::Defense> defense;
  const data::Dataset* test_set = nullptr;
  data::Dataset server_root;
  TransportOptions transport;
  ClientPoolSpec pool;
};

class DistributedDriver {
 public:
  explicit DistributedDriver(DistributedSpec spec);

  ~DistributedDriver();

  DistributedDriver(const DistributedDriver&) = delete;
  DistributedDriver& operator=(const DistributedDriver&) = delete;

  // Brings the fleet up, runs the full simulation over the wire, shuts the
  // fleet down. Throws util::CheckError when the fleet cannot start (e.g.
  // not every client completes the handshake).
  SimulationResult Run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fl
