#include "fl/distributed.h"

#include <chrono>
#include <map>
#include <utility>

#include "compress/codec.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fl {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------
// TcpBackend: executes the simulator's training batches over the wire.

class TcpBackend : public TrainBackend {
 public:
  TcpBackend(net::Server* server, std::vector<std::size_t> num_samples,
             const TransportOptions& options)
      : server_(server),
        num_samples_(std::move(num_samples)),
        alive_(num_samples_.size(), true),
        alive_count_(num_samples_.size()),
        options_(options),
        codec_(compress::Resolve(options.codec)),
        broadcast_codec_(codec_ != nullptr && codec_->broadcast_safe()
                             ? codec_
                             : nullptr),
        rtt_us_(obs::DefaultRegistry().GetHistogram("net.job_rtt_us")) {
    server_->SetUpdateHandler(
        [this](int client_id, net::ClientUpdateMsg msg) {
          OnUpdate(client_id, std::move(msg));
        });
    server_->SetDisconnectHandler(
        [this](int client_id) { OnDisconnect(client_id); });
  }

  // The server outlives the backend (the driver polls it again during
  // shutdown); the handlers must not.
  ~TcpBackend() override {
    server_->SetUpdateHandler(nullptr);
    server_->SetDisconnectHandler(nullptr);
  }

  std::vector<net::UpdateView> Train(
      const std::vector<TrainJob>& jobs) override {
    AF_TRACE_SPAN("net.backend.train");
    std::vector<net::UpdateView> deltas(jobs.size());
    current_deltas_ = &deltas;
    outstanding_.clear();
    // The simulator reads each update's wire stats right after the Train()
    // that produced it, so only this batch's entries need to live.
    wire_stats_.clear();

    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const TrainJob& job = jobs[j];
      if (!alive_[static_cast<std::size_t>(job.client_id)]) {
        continue;  // lost between scheduling and training
      }
      net::ModelBroadcastMsg msg;
      msg.round = job.dispatch_round;
      msg.job_index = job.job_index;
      // Names the client, so a connection carrying many can demux the job.
      msg.client_id = job.client_id;
      // Borrowed view over the shared base — the encoder reads it in place,
      // no per-job copy of the model.
      msg.params = net::UpdateView(std::span<const float>(*job.base),
                                   job.base);
      if (!server_->SendTo(job.client_id,
                           net::EncodeModelBroadcast(msg, broadcast_codec_))) {
        MarkDead(job.client_id);
        continue;
      }
      outstanding_[{job.client_id, job.job_index}] = {j, NowNs()};
    }

    const auto deadline =
        Clock::now() + std::chrono::milliseconds(options_.job_timeout_ms);
    while (!outstanding_.empty() && Clock::now() < deadline) {
      server_->PollOnce(20);
    }
    // Anyone still silent blew the job deadline: cut them loose.
    std::vector<int> laggards;
    for (const auto& [key, value] : outstanding_) {
      laggards.push_back(key.first);
    }
    for (int client_id : laggards) {
      server_->Evict(client_id, "job deadline exceeded");
    }
    // Push out any still-queued acks so clients stop resending while the
    // driver is busy aggregating/evaluating.
    server_->Flush(options_.io_timeout_ms);
    current_deltas_ = nullptr;
    return deltas;
  }

  std::size_t ClientCount() const override { return num_samples_.size(); }
  std::size_t NumSamples(int client_id) const override {
    return num_samples_[static_cast<std::size_t>(client_id)];
  }
  bool IsAlive(int client_id) const override {
    return alive_[static_cast<std::size_t>(client_id)];
  }
  std::size_t AliveCount() const override { return alive_count_; }

  WireStats UpdateWireStats(int client_id,
                            std::uint64_t job_index) const override {
    auto it = wire_stats_.find({client_id, job_index});
    return it == wire_stats_.end() ? WireStats{} : it->second;
  }

 private:
  struct Pending {
    std::size_t position = 0;
    std::uint64_t sent_ns = 0;
  };

  void MarkDead(int client_id) {
    const auto idx = static_cast<std::size_t>(client_id);
    if (alive_[idx]) {
      alive_[idx] = false;
      --alive_count_;
    }
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
      it = it->first.first == client_id ? outstanding_.erase(it)
                                        : std::next(it);
    }
  }

  void OnUpdate(int client_id, net::ClientUpdateMsg msg) {
    auto it = outstanding_.find({client_id, msg.job_index});
    if (it == outstanding_.end()) {
      return;  // late copy of an already-settled job
    }
    AF_CHECK_EQ(msg.num_samples, NumSamples(client_id))
        << "client " << client_id << " reported inconsistent sample count";
    rtt_us_.Record(static_cast<double>(NowNs() - it->second.sent_ns) / 1e3);
    AF_CHECK(current_deltas_ != nullptr);
    wire_stats_[{client_id, msg.job_index}] = {
        codec_ != nullptr ? codec_->name() : "identity", msg.wire_bytes};
    // Each job position is unique, so the update goes straight into its
    // slot. The delta either owns its floats already (lossy decode
    // materialized them) or aliases the connection's read buffer, which
    // dies when this callback returns — that one gets the single counted
    // uplink copy, into the arena.
    net::UpdateView& slot = (*current_deltas_)[it->second.position];
    if (msg.delta.has_keepalive()) {
      slot = std::move(msg.delta);
    } else {
      obs::DefaultRegistry()
          .GetCounter("transport.bytes_copied")
          .Increment(static_cast<std::uint64_t>(msg.delta.size()) *
                     sizeof(float));
      slot = net::UpdateView::CopyToArena(arena_, msg.delta);
    }
    outstanding_.erase(it);
  }

  void OnDisconnect(int client_id) { MarkDead(client_id); }

  net::Server* server_;
  std::vector<std::size_t> num_samples_;
  std::vector<bool> alive_;
  std::size_t alive_count_ = 0;
  TransportOptions options_;
  // The run's codec (null = identity) and the subset of it the downlink
  // can carry: delta-only codecs broadcast raw AFPM.
  const compress::Codec* codec_;
  const compress::Codec* broadcast_codec_;
  obs::Histogram& rtt_us_;
  std::map<std::pair<int, std::uint64_t>, Pending> outstanding_;
  std::map<std::pair<int, std::uint64_t>, WireStats> wire_stats_;
  // Uplink deltas materialize here; blocks free themselves once the last
  // view into them dies (end of the aggregation round, typically).
  util::Arena arena_;
  std::vector<net::UpdateView>* current_deltas_ = nullptr;
};

}  // namespace

// ---------------------------------------------------------------------
// Driver

struct DistributedDriver::Impl {
  DistributedSpec spec;

  std::unique_ptr<net::Server> server;
  std::unique_ptr<VirtualClientPool> pool;

  void ShutdownFleet() {
    if (server != nullptr) {
      server->BroadcastShutdown();
      server->Flush(1000);
    }
    if (pool != nullptr) {
      pool->Stop();
      pool.reset();
    }
    // Fleet sockets are closed now; drop the server so a second call (the
    // destructor's) cannot re-broadcast shutdown into dead connections.
    server.reset();
  }
};

DistributedDriver::DistributedDriver(DistributedSpec spec)
    : impl_(std::make_unique<Impl>()) {
  impl_->spec = std::move(spec);
  AF_CHECK(!impl_->spec.clients.empty());
}

DistributedDriver::~DistributedDriver() {
  try {
    impl_->ShutdownFleet();
  } catch (...) {
    // Destructor must not throw.
  }
}

SimulationResult DistributedDriver::Run() {
  AF_TRACE_SPAN("net.driver.run");
  Impl& impl = *impl_;
  DistributedSpec& spec = impl.spec;

  // Resolve AF_LOG_LEVEL before any pool thread exists so every thread sees
  // the same level from its first line, and tag the driver's own lines.
  util::GetLogLevel();
  util::SetThreadLogPrefix("server");

  net::ServerOptions server_options;
  server_options.port = spec.transport.port;
  server_options.io_timeout_ms = spec.transport.io_timeout_ms;
  // Validate the codec name up front (throws with the known-codec list)
  // before any socket or pool thread exists.
  compress::Resolve(spec.transport.codec);
  impl.server = std::make_unique<net::Server>(server_options);
  AF_LOG(kInfo) << "net: server listening on 127.0.0.1:"
                << impl.server->port();

  std::vector<std::size_t> num_samples;
  num_samples.reserve(spec.clients.size());
  for (const auto& client : spec.clients) {
    num_samples.push_back(client->num_samples());
  }

  // The pool trains with the same (client_id, job_index)-keyed streams as
  // the in-process backend; Stream() is const, so the shared factory is
  // safe across the engine's worker crew.
  std::vector<Client*> fleet;
  fleet.reserve(spec.clients.size());
  for (const auto& client : spec.clients) {
    fleet.push_back(client.get());
  }
  auto rngs = std::make_shared<util::RngFactory>(spec.sim.seed);
  const LocalTrainConfig local = spec.sim.local;

  VirtualPoolOptions pool_options;
  pool_options.port = impl.server->port();
  pool_options.num_clients = static_cast<int>(spec.clients.size());
  pool_options.connections = spec.pool.connections;
  pool_options.workers = spec.pool.workers;
  pool_options.io_timeout_ms = spec.transport.io_timeout_ms;
  pool_options.codec = spec.transport.codec;
  pool_options.retry = spec.transport.retry;
  pool_options.ack_timeout_ms = spec.transport.ack_timeout_ms;
  pool_options.faults = spec.transport.faults;
  pool_options.seed = spec.sim.seed;
  pool_options.latency = spec.pool.latency;
  impl.pool = std::make_unique<VirtualClientPool>(
      pool_options,
      [fleet, rngs, local](const VirtualJob& job) {
        const std::uint64_t stream_index =
            (static_cast<std::uint64_t>(job.client_id) << 32) | job.job_index;
        auto rng = rngs->Stream("client-train", stream_index);
        return fleet[static_cast<std::size_t>(job.client_id)]->TrainOnce(
            std::span<const float>(job.base), local, rng);
      },
      [fleet](int client_id) {
        return static_cast<std::uint64_t>(
            fleet[static_cast<std::size_t>(client_id)]->num_samples());
      });

  SimulationResult result;
  try {
    impl.pool->Start();
    AF_LOG(kInfo) << "net: client pool up — " << spec.clients.size()
                  << " clients over " << impl.pool->connection_count()
                  << " connection(s), " << impl.pool->worker_count()
                  << " worker(s)";
    AF_CHECK(impl.server->WaitForClients(
        spec.clients.size(), spec.transport.handshake_timeout_ms))
        << "only " << impl.server->ConnectedCount() << " of "
        << spec.clients.size() << " clients completed the handshake";

    TcpBackend backend(impl.server.get(), std::move(num_samples),
                       spec.transport);
    ExperimentSpec sim_spec;
    sim_spec.sim = spec.sim;
    sim_spec.model = spec.model;
    sim_spec.backend = &backend;
    sim_spec.malicious_ids = spec.malicious_ids;
    sim_spec.attack = std::move(spec.attack);
    sim_spec.defense = std::move(spec.defense);
    sim_spec.test_set = spec.test_set;
    sim_spec.server_root = std::move(spec.server_root);
    Simulation simulation(std::move(sim_spec));
    result = simulation.Run();
  } catch (...) {
    impl.ShutdownFleet();
    util::SetThreadLogPrefix("");
    throw;
  }
  impl.ShutdownFleet();
  util::SetThreadLogPrefix("");
  return result;
}

}  // namespace fl
