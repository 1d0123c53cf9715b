// The client fleet of the distributed run mode. A VirtualClientPool
// multiplexes N simulated clients over a small set of TCP connections (each
// announcing its id slice with one kHello frame) and runs their training
// jobs on a shared work queue drained by a fixed crew of worker threads —
// 100k–1M-client populations cost connections + workers, not threads.
//
//   pump thread (client-side net::Reactor)     engine workers
//   ───────────────────────────────────────    ─────────────────────────
//   reads sockets, demuxes ModelBroadcasts     pop job → optional latency
//   by the client id in their header, submits  sleep → train fn → encode
//   jobs; sends each finished update through   ClientUpdate → hand back to
//   its client's fault injector, holds it      the pump (Reactor::Wakeup)
//   until acked, resends on timeout
//
// Uplink protocol, per client: an update's encoded bytes are held until the
// server acks (client_id, job_index) and resent on the retry/ack-timeout
// schedule; the client's next job starts only once the previous update is
// acked. A per-client net::FaultInjector may drop, delay, duplicate or
// truncate each send or kill the client; a quiet one always delivers.
// Drops, delays and duplicates are recovered at any connection count;
// truncate and kill close the connection that carries the client, so every
// client on it is evicted (fault runs default to one connection per
// client). Fault draws are a pure function of (seed, client, frame
// sequence), and training draws from the same (client_id, job_index)-keyed
// RNG streams as the in-process backend, so a recoverable-fault run is
// bit-identical to an inproc run of the same config — across any worker or
// connection count, since the server assigns results by job position, not
// arrival order.
//
// The pool is built from the same spec as the server, so nothing is
// negotiated: it encodes updates with `VirtualPoolOptions::codec` and
// derives each job's trace id from (seed, client, job), as the server does
// (fl/trace_context.h).
//
// Bad input from the server (malformed frames, a broadcast for a client
// the connection does not carry, a job whose training throws) closes only
// the connection it arrived on; the other connections keep running.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_injector.h"
#include "net/socket.h"

namespace fl {

// Per-client artificial latency: client i sleeps base_ms / (i+1)^zipf_s
// before training (client 0 is the slowest). base_ms == 0 → no sleeps.
// Purely a timing model — results are unaffected.
struct LatencyModelSpec {
  double base_ms = 0.0;
  double zipf_s = 0.0;
};

// Shape of the distributed run's client fleet. Part of the public
// experiment surface (ExperimentConfig::pool / DistributedSpec::pool).
struct ClientPoolSpec {
  // Single-valued: the virtual pool is the only fleet. The field stays
  // because the round benchmark (roundbench/src/workload.cc) still assigns
  // it; drop both together.
  enum class Mode {
    kVirtual,
  };
  Mode mode = Mode::kVirtual;
  // TCP connections carrying the fleet; 0 → ResolvePoolConnections default.
  int connections = 0;
  // Training worker threads; 0 → one per CPU in the affinity mask.
  int workers = 0;
  LatencyModelSpec latency;
};

// Resolved defaults for ClientPoolSpec's zero values. Connections: one per
// 64 clients, clamped to [1, 256] — or one per client when fault injection
// is armed, so a killed or truncated connection takes down only its own
// client. An explicit request wins but never exceeds the population.
// Workers: one per CPU in the affinity mask (util::ThreadPool's default).
int ResolvePoolConnections(int requested, int num_clients,
                           bool faults_armed = false);
int ResolvePoolWorkers(int requested);

// One training job demuxed off a connection. `base` is an owned copy of
// the broadcast parameters (the wire buffer is recycled immediately).
struct VirtualJob {
  int client_id = -1;
  std::uint64_t job_index = 0;
  std::uint64_t round = 0;
  std::vector<float> base;
};

// Shared work queue + fixed worker crew. Tasks are opaque thunks so the
// engine is reusable outside the pool (benchmarks submit synthetic work).
class VirtualClientEngine {
 public:
  explicit VirtualClientEngine(int workers);
  ~VirtualClientEngine();  // drains nothing: stops after in-flight tasks

  VirtualClientEngine(const VirtualClientEngine&) = delete;
  VirtualClientEngine& operator=(const VirtualClientEngine&) = delete;

  void Submit(std::function<void()> task);
  // Blocks until the queue is empty and every popped task has returned.
  void Drain();
  int worker_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct VirtualPoolOptions {
  std::uint16_t port = 0;
  int num_clients = 0;  // clients get ids 0 .. num_clients-1
  int connections = 0;  // 0 → ResolvePoolConnections default
  int workers = 0;      // 0 → ResolvePoolWorkers default
  int io_timeout_ms = 10000;
  std::string codec;           // uplink codec name; empty → identity
  net::RetryConfig retry;      // connect retry + update resend backoff
  int ack_timeout_ms = 250;    // resend an update unacked this long
  net::FaultConfig faults;     // uplink fault injection (off by default)
  std::uint64_t seed = 0;
  LatencyModelSpec latency;
};

class VirtualClientPool {
 public:
  // Produces the flat delta for one job. Called concurrently from engine
  // workers, at most once per (client_id, job_index), and never
  // concurrently for the same client: the pool serializes a client's jobs
  // in arrival order (FedBuff may dispatch several to one client), each
  // starting once the previous update is acked. May throw; the pool then
  // closes the client's connection.
  using TrainFn = std::function<std::vector<float>(const VirtualJob&)>;
  using NumSamplesFn = std::function<std::uint64_t(int client_id)>;

  VirtualClientPool(VirtualPoolOptions options, TrainFn train,
                    NumSamplesFn num_samples);
  ~VirtualClientPool();  // implies Stop()

  VirtualClientPool(const VirtualClientPool&) = delete;
  VirtualClientPool& operator=(const VirtualClientPool&) = delete;

  // Connects every pool connection (kHello handshake sent) and starts the
  // pump + engine. Throws util::CheckError when a connection cannot be
  // established.
  void Start();

  // Joins the pump and drains the engine. Safe to call twice; called by
  // the destructor. Returns once no pool thread can touch a socket again.
  void Stop();

  int connection_count() const;
  int worker_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fl
