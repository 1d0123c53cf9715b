// Tests for the client pool (fl/client_pool.h): the engine's drain
// semantics, the spec's default resolution, the determinism gate — a
// 5k-client run against a real net::Server that must be bit-identical
// whether one worker thread or eight drain the job queue — the resend path
// under injected uplink faults, and containment of bad server input.
#include "fl/client_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fl {
namespace {

TEST(ClientPoolSpecTest, ConnectionDefaultsScaleWithPopulation) {
  // 0 → one connection per 64 clients, clamped to [1, 256].
  EXPECT_EQ(ResolvePoolConnections(0, 1), 1);
  EXPECT_EQ(ResolvePoolConnections(0, 64), 1);
  EXPECT_EQ(ResolvePoolConnections(0, 65), 2);
  EXPECT_EQ(ResolvePoolConnections(0, 5000), 79);
  EXPECT_EQ(ResolvePoolConnections(0, 100000), 256);   // clamp high
  EXPECT_EQ(ResolvePoolConnections(0, 1000000), 256);  // 1M stays at 256
  // An explicit request wins but never exceeds the population.
  EXPECT_EQ(ResolvePoolConnections(8, 5000), 8);
  EXPECT_EQ(ResolvePoolConnections(64, 10), 10);
  // Armed faults default to one connection per client, so a truncate or
  // kill takes down only its own client; an explicit request still wins.
  EXPECT_EQ(ResolvePoolConnections(0, 20, /*faults_armed=*/true), 20);
  EXPECT_EQ(ResolvePoolConnections(0, 1, /*faults_armed=*/true), 1);
  EXPECT_EQ(ResolvePoolConnections(4, 20, /*faults_armed=*/true), 4);
}

TEST(ClientPoolSpecTest, WorkerDefaultsFollowHardware) {
  EXPECT_EQ(ResolvePoolWorkers(3), 3);
  const int resolved = ResolvePoolWorkers(0);
  EXPECT_GE(resolved, 1);
  EXPECT_EQ(static_cast<std::size_t>(resolved),
            util::ThreadPool::AvailableCpus());
}

TEST(VirtualClientEngineTest, DrainWaitsForQueuedAndInFlightTasks) {
  VirtualClientEngine engine(4);
  EXPECT_EQ(engine.worker_count(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    engine.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      done.fetch_add(1);
    });
  }
  engine.Drain();
  EXPECT_EQ(done.load(), 64);

  // Drain is reusable: a second batch after the first drain still runs.
  for (int i = 0; i < 16; ++i) {
    engine.Submit([&done] { done.fetch_add(1); });
  }
  engine.Drain();
  EXPECT_EQ(done.load(), 80);
}

TEST(VirtualClientEngineTest, TasksSubmittedFromWorkersStillDrain) {
  // A task may enqueue follow-up work (the pump does this when a broadcast
  // arrives while workers run); Drain must cover the transitive closure.
  VirtualClientEngine engine(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    engine.Submit([&engine, &done] {
      engine.Submit([&done] { done.fetch_add(1); });
      done.fetch_add(1);
    });
  }
  engine.Drain();
  EXPECT_EQ(done.load(), 16);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: a 5k-client virtual pool against a real server.
// ---------------------------------------------------------------------------

// Drives `kClients` virtual clients through `waves` broadcast waves (every
// client gets one job per wave) and returns the per-job deltas, indexed by
// job_index. The training function mirrors the production driver: a delta
// drawn from the (client_id, job_index)-keyed RNG stream, so any change in
// which worker/connection handled a job would show up as a bit difference.
std::vector<std::vector<float>> RunVirtualFleet(
    int kClients, int waves, int connections, int workers,
    const net::FaultConfig& faults = {}) {
  net::ServerOptions server_options;
  server_options.port = 0;
  server_options.io_timeout_ms = 30000;
  net::Server server(server_options);

  const std::size_t total_jobs =
      static_cast<std::size_t>(kClients) * static_cast<std::size_t>(waves);
  std::vector<std::vector<float>> results(total_jobs);
  std::atomic<std::size_t> completed{0};
  server.SetUpdateHandler([&](int client_id, net::ClientUpdateMsg msg) {
    ASSERT_LT(msg.job_index, total_jobs);
    ASSERT_EQ(static_cast<int>(msg.job_index) % kClients, client_id);
    results[msg.job_index] = msg.delta.ToVector();
    completed.fetch_add(1);
  });

  util::RngFactory rngs(/*seed=*/17);
  VirtualPoolOptions options;
  options.port = server.port();
  options.num_clients = kClients;
  options.connections = connections;
  options.workers = workers;
  options.seed = 99;
  options.faults = faults;
  if (faults.Any()) {
    options.ack_timeout_ms = 50;  // drops recover in a fraction of a second
  }
  VirtualClientPool pool(
      options,
      [&rngs](const VirtualJob& job) {
        const std::uint64_t stream =
            (static_cast<std::uint64_t>(job.client_id) << 32) | job.job_index;
        auto rng = rngs.Stream("client-train", stream);
        std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
        std::vector<float> delta(job.base.size());
        for (std::size_t i = 0; i < delta.size(); ++i) {
          delta[i] = job.base[i] + dist(rng);
        }
        return delta;
      },
      [](int client_id) {
        return static_cast<std::uint64_t>(10 + client_id % 7);
      });
  pool.Start();
  EXPECT_EQ(pool.connection_count(), connections);
  EXPECT_EQ(pool.worker_count(), workers);

  EXPECT_TRUE(server.WaitForClients(static_cast<std::size_t>(kClients), 30000))
      << "pool handshake stalled at " << server.ConnectedCount();

  const std::vector<float> base = {0.5f, -0.25f, 1.0f, 2.0f};
  for (int wave = 0; wave < waves; ++wave) {
    for (int c = 0; c < kClients; ++c) {
      net::ModelBroadcastMsg msg;
      msg.round = static_cast<std::uint64_t>(wave);
      msg.job_index =
          static_cast<std::uint64_t>(wave) * static_cast<std::uint64_t>(kClients) +
          static_cast<std::uint64_t>(c);
      msg.params = base;
      msg.client_id = c;  // mux sessions demux broadcasts by this id
      EXPECT_TRUE(server.SendTo(c, net::EncodeModelBroadcast(msg)));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    const std::size_t wave_goal =
        static_cast<std::size_t>(wave + 1) * static_cast<std::size_t>(kClients);
    while (completed.load() < wave_goal &&
           std::chrono::steady_clock::now() < deadline) {
      server.PollOnce(1);
    }
    EXPECT_EQ(completed.load(), wave_goal) << "wave " << wave << " stalled";
    if (completed.load() < wave_goal) {
      break;
    }
  }

  pool.Stop();
  return results;
}

TEST(VirtualClientPoolTest, FiveThousandClientsBitIdenticalAcrossWorkerCounts) {
  // The determinism gate: same fleet, same jobs, 1 worker vs 8 workers over
  // differing connection fan-in — every per-job delta must match bit for
  // bit, because the RNG streams are keyed by (client, job), not by which
  // thread or socket carried the work.
  const int kClients = 5000;
  const auto serial = RunVirtualFleet(kClients, /*waves=*/2,
                                      /*connections=*/16, /*workers=*/1);
  const auto parallel = RunVirtualFleet(kClients, /*waves=*/2,
                                        /*connections=*/64, /*workers=*/8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t job = 0; job < serial.size(); ++job) {
    ASSERT_FALSE(serial[job].empty()) << "job " << job << " never completed";
    ASSERT_EQ(serial[job], parallel[job]) << "job " << job << " diverged";
  }
}

TEST(VirtualClientPoolTest, SmallPoolRoundTripsJobs) {
  // Quick smoke at toy scale so failures here localize the plumbing before
  // the 5k gate runs.
  const auto results = RunVirtualFleet(/*kClients=*/9, /*waves=*/3,
                                       /*connections=*/2, /*workers=*/2);
  ASSERT_EQ(results.size(), 27u);
  for (const auto& delta : results) {
    ASSERT_EQ(delta.size(), 4u);
  }
}

TEST(VirtualClientPoolTest, RecoversDroppedDelayedAndDuplicatedUpdates) {
  // Multiplexed connections with every recoverable fault armed: drops are
  // resent after the ack timeout, duplicates are deduped by the server on
  // (client_id, job_index), delays are absorbed — every job still lands
  // exactly once with the quiet run's bytes.
  net::FaultConfig faults;
  faults.drop_prob = 0.2;
  faults.duplicate_prob = 0.2;
  faults.delay_prob = 0.2;
  faults.delay_ms = 2.0;
  faults.seed = 5;
  const std::uint64_t resends_before =
      obs::DefaultRegistry().GetCounter("net.update_resends").Value();
  const auto quiet = RunVirtualFleet(/*kClients=*/40, /*waves=*/3,
                                     /*connections=*/4, /*workers=*/2);
  const auto faulty = RunVirtualFleet(/*kClients=*/40, /*waves=*/3,
                                      /*connections=*/4, /*workers=*/2,
                                      faults);
  ASSERT_EQ(quiet.size(), faulty.size());
  for (std::size_t job = 0; job < quiet.size(); ++job) {
    ASSERT_FALSE(faulty[job].empty()) << "job " << job << " never completed";
    ASSERT_EQ(quiet[job], faulty[job]) << "job " << job << " diverged";
  }
  EXPECT_GT(obs::DefaultRegistry().GetCounter("net.update_resends").Value(),
            resends_before);
}

TEST(VirtualClientPoolTest, BadServerInputClosesOnlyItsConnection) {
  // A hand-rolled server sends three broadcasts the pool cannot serve, one
  // per connection. Each must close just its own connection — never
  // terminate the process — and the fourth connection must still train.
  net::Listener listener(0);
  VirtualPoolOptions options;
  options.port = listener.port();
  options.num_clients = 4;
  options.connections = 4;
  options.workers = 2;
  VirtualClientPool pool(
      options,
      [](const VirtualJob& job) {
        // Mirrors Client::TrainOnce's check on the length of the params.
        AF_CHECK_EQ(job.base.size(), 4u) << "params length mismatch";
        return job.base;
      },
      [](int) { return std::uint64_t{1}; });
  pool.Start();

  std::map<int, net::Connection> by_client;
  for (int i = 0; i < 4; ++i) {
    net::Connection conn(listener.Accept());
    net::Frame hello;
    ASSERT_TRUE(conn.RecvFrame(&hello, 5000));
    const std::vector<std::int32_t> ids = net::DecodeHello(hello).client_ids;
    ASSERT_EQ(ids.size(), 1u);
    by_client.emplace(ids[0], std::move(conn));
  }
  const std::vector<float> params = {0.5f, -0.25f, 1.0f, 2.0f};
  auto broadcast = [](std::int32_t client_id, std::vector<float> values) {
    net::ModelBroadcastMsg msg;
    msg.job_index = 3;
    msg.params = std::move(values);
    msg.client_id = client_id;
    return net::EncodeModelBroadcast(msg);
  };
  // The encoder refuses a negative id, so that broadcast is patched by
  // hand: the client id follows u64 round and u64 job_index.
  net::Frame negative = broadcast(0, params);
  const std::int32_t minus_one = -1;
  std::memcpy(negative.payload.data() + 2 * sizeof(std::uint64_t),
              &minus_one, sizeof(minus_one));
  by_client.at(0).SendFrame(negative, 2000);               // negative id
  by_client.at(1).SendFrame(broadcast(99, params), 2000);  // unknown client
  by_client.at(2).SendFrame(broadcast(2, {1.0f}), 2000);   // wrong length
  for (int c = 0; c < 3; ++c) {
    net::Frame frame;
    EXPECT_EQ(by_client.at(c).TryRecvFrame(&frame, 10000),
              net::Connection::RecvStatus::kEof)
        << "connection of client " << c << " stayed open";
  }

  by_client.at(3).SendFrame(broadcast(3, params), 2000);
  net::Frame frame;
  ASSERT_TRUE(by_client.at(3).RecvFrame(&frame, 10000));
  const net::ClientUpdateMsg update = net::DecodeClientUpdate(frame);
  EXPECT_EQ(update.client_id, 3);
  EXPECT_EQ(update.job_index, 3u);
  EXPECT_EQ(update.delta, params);
  by_client.at(3).SendFrame(net::EncodeAck({3, 3}), 2000);
  pool.Stop();
}

TEST(VirtualClientPoolTest, StopIsIdempotentAndStartRejectsReuse) {
  net::ServerOptions server_options;
  server_options.port = 0;
  net::Server server(server_options);

  VirtualPoolOptions options;
  options.port = server.port();
  options.num_clients = 4;
  options.connections = 1;
  options.workers = 1;
  VirtualClientPool pool(
      options, [](const VirtualJob& job) { return job.base; },
      [](int) { return std::uint64_t{1}; });
  pool.Start();
  EXPECT_TRUE(server.WaitForClients(4, 10000));
  pool.Stop();
  pool.Stop();  // second stop is a no-op, not a crash
}

}  // namespace
}  // namespace fl
