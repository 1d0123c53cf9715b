#include "workload.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "data/partition.h"
#include "fl/backend.h"
#include "fl/distributed.h"
#include "fl/experiment.h"
#include "fl/simulation.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace roundbench {
namespace {

double MsSince(std::uint64_t begin_ns) {
  return static_cast<double>(NowNs() - begin_ns) / 1e6;
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Serves real LeNet deltas recorded once during set-up, so the server path
// runs at a deployed server's scale without paying for training. The delta
// a (client, job) gets is a fixed hash of the pair; each is handed out as a
// borrowed view over the recorded vector, never copied.
class ReplayBackend : public fl::TrainBackend {
 public:
  ReplayBackend(std::vector<std::shared_ptr<const std::vector<float>>> deltas,
                std::size_t clients, std::size_t samples)
      : deltas_(std::move(deltas)), clients_(clients), samples_(samples) {
    AF_CHECK(!deltas_.empty());
  }

  std::vector<net::UpdateView> Train(
      const std::vector<fl::TrainJob>& jobs) override {
    std::vector<net::UpdateView> out;
    out.reserve(jobs.size());
    for (const fl::TrainJob& job : jobs) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(job.client_id) << 32) | job.job_index;
      const auto& delta = deltas_[Mix64(key) % deltas_.size()];
      out.emplace_back(std::span<const float>(*delta), delta);
    }
    return out;
  }
  std::size_t ClientCount() const override { return clients_; }
  std::size_t NumSamples(int /*client_id*/) const override { return samples_; }

 private:
  std::vector<std::shared_ptr<const std::vector<float>>> deltas_;
  std::size_t clients_;
  std::size_t samples_;
};

// FNV-1a over the bytes of the final model.
std::uint64_t Digest(const std::vector<float>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Workload FindWorkload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "fmnist-lenet-inproc") {
    w.profile = data::Profile::kFashionMnist;
    w.exec = Exec::kInproc;
    w.clients = 50;
    w.malicious = 10;
    w.attack = attacks::AttackKind::kGd;
    w.buffer = 20;
    w.rounds = 30;
    w.distinct_seeds = 6;
    if (tiny) {
      w.clients = 12, w.malicious = 2, w.buffer = 6, w.rounds = 3;
    }
  } else if (name == "server-replay-1k") {
    w.profile = data::Profile::kFashionMnist;
    w.exec = Exec::kReplay;
    w.clients = 1000;
    w.malicious = 200;
    w.attack = attacks::AttackKind::kGd;
    w.buffer = 400;
    w.rounds = 200;
    w.replay_deltas = 400;
    w.distinct_seeds = 12;
    if (tiny) {
      w.clients = 60, w.malicious = 12, w.buffer = 24, w.rounds = 4;
      w.replay_deltas = 24;
    }
    w.eval_every = w.rounds + 1;
  } else if (name == "cifar-vgg-tcp") {
    w.profile = data::Profile::kCifar10;
    w.exec = Exec::kTcp;
    w.clients = 50;
    w.malicious = 10;
    w.attack = attacks::AttackKind::kLie;
    w.buffer = 20;
    w.rounds = 20;
    w.connections = 4;
    w.distinct_seeds = 5;
    if (tiny) {
      w.clients = 12, w.malicious = 2, w.buffer = 6, w.rounds = 3;
      w.connections = 2;
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

RunResult RunOnce(const Workload& w, const RunSpec& spec) {
  RunResult out;
  const std::uint64_t setup_begin = NowNs();
  const Exec exec =
      spec.force_inproc && w.exec == Exec::kTcp ? Exec::kInproc : w.exec;

  // Profile defaults (model family, optimizer, batch, partition size), with
  // the workload's population, buffer and round count on top.
  fl::ExperimentConfig config = fl::MakeDefaultConfig(w.profile, spec.seed);
  config.sim.buffer_goal = w.buffer;
  config.sim.rounds = w.rounds;
  config.sim.eval_every = w.eval_every;
  if (exec == Exec::kReplay) {
    // Replayed deltas were recorded at the initial model. A 1/rounds server
    // step keeps the global model near it: the final model is the initial
    // one plus the mean accepted aggregate, poison included. The defense
    // never reads the global model.
    config.sim.server_learning_rate = 1.0 / static_cast<double>(w.rounds);
  }
  util::RngFactory rngs(spec.seed);

  std::uint64_t t = NowNs();
  data::SyntheticGenerator generator(
      data::MakeProfileSpec(w.profile, config.image_side), spec.seed);
  data::Dataset train = generator.Generate(config.train_pool, "train");
  data::Dataset test = generator.Generate(config.test_samples, "test");
  out.synth_ms = MsSince(t);

  // Replay records deltas from its own population of recording clients.
  const std::size_t trained_clients =
      exec == Exec::kReplay ? w.replay_deltas : w.clients;
  t = NowNs();
  auto partition_rng = rngs.Stream("partition");
  data::Partition partition =
      data::DirichletPartition(train, trained_clients, config.partition_size,
                               config.dirichlet_alpha, partition_rng);
  out.partition_ms = MsSince(t);

  const bool vgg = w.profile == data::Profile::kCifar10;
  nn::ModelSpec model = spec.traced
                            ? MakeTimedModel(vgg, config.image_side)
                            : fl::ModelForProfile(w.profile, config.image_side);

  std::vector<int> ids(w.clients);
  std::iota(ids.begin(), ids.end(), 0);
  auto malicious_rng = rngs.Stream("malicious");
  std::shuffle(ids.begin(), ids.end(), malicious_rng);
  std::vector<int> malicious_ids(ids.begin(), ids.begin() + w.malicious);

  t = NowNs();
  std::vector<std::unique_ptr<fl::Client>> clients;
  clients.reserve(trained_clients);
  for (std::size_t c = 0; c < trained_clients; ++c) {
    clients.push_back(std::make_unique<fl::Client>(
        static_cast<int>(c), &train, std::move(partition[c]), model,
        spec.seed));
  }
  out.client_build_ms = MsSince(t);

  Probe probe(spec.traced, exec != Exec::kTcp);
  attacks::AttackParams attack_params;
  attack_params.total_clients = w.clients;
  attack_params.malicious_clients = std::max<std::size_t>(w.malicious, 1);
  attack_params.gd_scale = config.gd_scale;
  auto attack = std::make_unique<TimedAttack>(
      attacks::MakeAttack(w.attack, attack_params), &probe);
  auto defense = std::make_unique<TimedDefense>(
      fl::MakeDefense(fl::DefenseKind::kAsyncFilter), &probe);

  // Runnable-thread budget: the in-process pool gets every core (the
  // simulation thread sleeps while it trains); over tcp the server loop and
  // the client pool's pump thread take two of them.
  out.train_threads =
      exec == Exec::kTcp ? std::max(1, spec.threads - 2) : spec.threads;
  std::unique_ptr<util::ThreadPool> pool;
  if (exec != Exec::kTcp) {
    pool = std::make_unique<util::ThreadPool>(out.train_threads);
  }

  std::unique_ptr<fl::TrainBackend> inner;
  if (exec == Exec::kReplay) {
    t = NowNs();
    const std::vector<float> init = model.factory(spec.seed)->GetFlatParams();
    std::vector<std::shared_ptr<const std::vector<float>>> deltas(
        clients.size());
    pool->ParallelFor(clients.size(), [&](std::size_t i) {
      auto rng = rngs.Stream("replay-record", i);
      deltas[i] = std::make_shared<const std::vector<float>>(
          clients[i]->TrainOnce(init, config.sim.local, rng));
      clients[i].reset();  // a trained client holds ~1 MB of layer arenas
    });
    out.record_ms = MsSince(t);
    inner = std::make_unique<ReplayBackend>(std::move(deltas), w.clients,
                                            config.partition_size);
  } else if (exec == Exec::kInproc) {
    inner = std::make_unique<fl::InprocBackend>(
        std::move(clients), pool.get(), spec.seed, config.sim.local);
  }

  if (exec == Exec::kTcp) {
    fl::DistributedSpec dist;
    dist.sim = config.sim;
    dist.model = model;
    dist.clients = std::move(clients);
    dist.malicious_ids = malicious_ids;
    dist.attack = std::move(attack);
    dist.defense = std::move(defense);
    dist.test_set = &test;
    dist.pool.mode = fl::ClientPoolSpec::Mode::kVirtual;
    dist.pool.connections = w.connections;
    dist.pool.workers = out.train_threads;
    fl::DistributedDriver distributed(std::move(dist));
    out.setup_s = static_cast<double>(NowNs() - setup_begin) / 1e9;
    out.registry.Begin();
    probe.RunBegin();
    out.sim = distributed.Run();
    probe.RunEnd();
    out.registry.End();
    out.jobs = out.registry.Counter("pool.jobs");
    out.lost_jobs = out.jobs - out.registry.HistogramCount("net.job_rtt_us");
  } else {
    TimedBackend timed(inner.get(), &probe);
    fl::ExperimentSpec sim_spec;
    sim_spec.sim = config.sim;
    sim_spec.model = model;
    sim_spec.backend = &timed;
    sim_spec.malicious_ids = malicious_ids;
    sim_spec.attack = std::move(attack);
    sim_spec.defense = std::move(defense);
    sim_spec.test_set = &test;
    auto simulation = fl::BuildSimulation(std::move(sim_spec));
    out.setup_s = static_cast<double>(NowNs() - setup_begin) / 1e9;
    out.registry.Begin();
    probe.RunBegin();
    out.sim = simulation->Run();
    probe.RunEnd();
    out.registry.End();
    out.jobs = probe.jobs();
    out.lost_jobs = probe.lost_jobs();
  }

  out.rounds = probe.rounds();
  out.window = probe.train_window();
  out.run_wall_s = probe.run_wall_s();
  out.digest = Digest(out.sim.final_model);
  out.params = out.sim.final_model.size();
  if (spec.traced) {
    // Over tcp the eval after the last aggregation falls in a round that
    // never closes; its spans are not part of any timed round.
    for (const Span& span : SpanLog::Global().Drain()) {
      if (span.round < out.rounds.size()) {
        out.spans.push_back(span);
      }
    }
  }
  return out;
}

}  // namespace roundbench
