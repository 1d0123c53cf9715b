#include "fl/simulation.h"

#include <gtest/gtest.h>

#include <numeric>

#include "data/partition.h"
#include "attacks/registry.h"
#include "data/synthetic.h"
#include "util/check.h"
#include "util/rng.h"

namespace fl {
namespace {

// Shared fixture building a tiny but complete simulation.
class SimulationTest : public ::testing::Test {
 protected:
  struct Parts {
    data::Dataset train;
    data::Dataset test;
    nn::ModelSpec spec;
    std::vector<std::unique_ptr<Client>> clients;
  };

  // Fills the fixture-owned Parts so the clients' dataset pointers stay
  // valid for the test's lifetime.
  Parts& MakeParts(std::size_t num_clients, std::uint64_t seed) {
    Parts& parts = parts_;
    parts = Parts{};
    data::SyntheticGenerator gen(
        data::MakeProfileSpec(data::Profile::kMnist, 8), seed);
    parts.train = gen.Generate(600, "train");
    parts.test = gen.Generate(150, "test");
    parts.train.sample_shape = {parts.train.sample_dim()};
    parts.test.sample_shape = {parts.test.sample_dim()};
    parts.spec = nn::MakeMlp(parts.train.sample_dim(), {12});
    auto rng = util::RngFactory(seed).Stream("partition");
    auto partition =
        data::DirichletPartition(parts.train, num_clients, 40, 0.5, rng);
    for (std::size_t c = 0; c < num_clients; ++c) {
      parts.clients.push_back(std::make_unique<Client>(
          static_cast<int>(c), &parts.train, std::move(partition[c]),
          parts.spec, seed));
    }
    return parts;
  }

  Parts parts_;

  SimulationConfig SmallConfig(std::uint64_t seed) {
    SimulationConfig config;
    config.buffer_goal = 6;
    config.staleness_limit = 10;
    config.rounds = 5;
    config.seed = seed;
    config.local.epochs = 1;
    config.local.batch_size = 20;
    config.local.optimizer = {nn::OptimizerKind::kSgd, 0.05, 0.9, 0.0};
    return config;
  }

  // Consumes parts.clients; NoDefense unless the caller overrides it.
  std::unique_ptr<Simulation> BuildSim(
      Parts& parts, SimulationConfig config, util::ThreadPool* pool,
      std::vector<int> malicious = {},
      attacks::AttackKind attack = attacks::AttackKind::kNone) {
    attacks::AttackParams params;
    params.total_clients = parts.clients.size();
    params.malicious_clients = std::max<std::size_t>(malicious.size(), 1);
    ExperimentSpec spec;
    spec.sim = config;
    spec.model = parts.spec;
    spec.clients = std::move(parts.clients);
    spec.pool = pool;
    spec.malicious_ids = std::move(malicious);
    spec.attack = attacks::MakeAttack(attack, params);
    spec.defense = std::make_unique<defense::NoDefense>();
    spec.test_set = &parts.test;
    return BuildSimulation(std::move(spec));
  }

  SimulationResult RunOnce(std::uint64_t seed,
                           std::vector<int> malicious = {},
                           attacks::AttackKind attack = attacks::AttackKind::kNone,
                           std::size_t rounds = 5) {
    Parts& parts = MakeParts(12, seed);
    SimulationConfig config = SmallConfig(seed);
    config.rounds = rounds;
    util::ThreadPool pool(2);
    return BuildSim(parts, config, &pool, std::move(malicious), attack)->Run();
  }
};

TEST_F(SimulationTest, RunsRequestedRounds) {
  SimulationResult result = RunOnce(1);
  EXPECT_EQ(result.rounds.size(), 5u);
  EXPECT_FALSE(result.final_model.empty());
}

TEST_F(SimulationTest, EveryRoundAggregatesAtLeastBufferGoal) {
  SimulationResult result = RunOnce(2);
  for (const auto& record : result.rounds) {
    EXPECT_GE(record.buffered, 6u);
    EXPECT_EQ(record.accepted + record.deferred, record.buffered - record.rejected);
  }
}

TEST_F(SimulationTest, SimulatedClockIsMonotonic) {
  SimulationResult result = RunOnce(3);
  double prev = -1.0;
  for (const auto& record : result.rounds) {
    EXPECT_GE(record.sim_time, prev);
    prev = record.sim_time;
  }
}

TEST_F(SimulationTest, BitDeterministicAcrossRuns) {
  SimulationResult a = RunOnce(4);
  SimulationResult b = RunOnce(4);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  EXPECT_EQ(a.final_model, b.final_model);
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].test_accuracy, b.rounds[i].test_accuracy);
    EXPECT_EQ(a.rounds[i].buffered, b.rounds[i].buffered);
  }
}

TEST_F(SimulationTest, DifferentSeedsDiverge) {
  SimulationResult a = RunOnce(5);
  SimulationResult b = RunOnce(6);
  EXPECT_NE(a.final_model, b.final_model);
}

TEST_F(SimulationTest, LearningMakesProgressOverRounds) {
  SimulationResult result = RunOnce(7, {}, attacks::AttackKind::kNone, 12);
  double first = result.rounds.front().test_accuracy;
  EXPECT_GT(result.final_accuracy, first + 0.2);
}

TEST_F(SimulationTest, GroundTruthConfusionTracksMaliciousClients) {
  SimulationResult result =
      RunOnce(8, {0, 1, 2}, attacks::AttackKind::kGd, 6);
  const auto& total = result.total_confusion;
  // NoDefense rejects nothing: all malicious arrivals are false negatives.
  EXPECT_EQ(total.true_positive + total.false_positive, 0u);
  EXPECT_GT(total.false_negative, 0u);
  EXPECT_GT(total.true_negative, 0u);
}

TEST_F(SimulationTest, StalenessNeverExceedsLimit) {
  Parts& parts = MakeParts(12, 9);
  SimulationConfig config = SmallConfig(9);
  config.staleness_limit = 2;
  config.rounds = 8;
  util::ThreadPool pool(2);
  std::size_t max_staleness_seen = 0;
  auto sim = BuildSim(parts, config, &pool);
  sim->SetBufferObserver([&](std::size_t, const std::vector<ModelUpdate>& buf) {
    for (const auto& u : buf) {
      max_staleness_seen = std::max(max_staleness_seen, u.staleness);
    }
  });
  sim->Run();
  EXPECT_LE(max_staleness_seen, 2u);
}

TEST_F(SimulationTest, ObserverSeesEveryAggregation) {
  Parts& parts = MakeParts(12, 10);
  SimulationConfig config = SmallConfig(10);
  util::ThreadPool pool(2);
  auto sim = BuildSim(parts, config, &pool);
  std::size_t calls = 0;
  sim->SetBufferObserver(
      [&](std::size_t, const std::vector<ModelUpdate>&) { ++calls; });
  sim->Run();
  EXPECT_EQ(calls, config.rounds);
}

TEST_F(SimulationTest, ZipfSpeedsProduceStaleness) {
  Parts& parts = MakeParts(12, 11);
  SimulationConfig config = SmallConfig(11);
  config.rounds = 10;
  config.zipf_s = 1.2;
  util::ThreadPool pool(2);
  auto sim = BuildSim(parts, config, &pool);
  bool saw_stale_update = false;
  sim->SetBufferObserver([&](std::size_t, const std::vector<ModelUpdate>& buf) {
    for (const auto& u : buf) {
      saw_stale_update |= (u.staleness > 0);
    }
  });
  sim->Run();
  EXPECT_TRUE(saw_stale_update);
}

TEST_F(SimulationTest, ServerLearningRateScalesTheStep) {
  Parts& parts = MakeParts(12, 12);
  SimulationConfig config = SmallConfig(12);
  config.rounds = 1;
  util::ThreadPool pool(2);
  SimulationResult full = BuildSim(parts, config, &pool)->Run();

  Parts& parts2 = MakeParts(12, 12);
  config.server_learning_rate = 0.5;
  SimulationResult half = BuildSim(parts2, config, &pool)->Run();

  // Same seed → same aggregate; the applied step is exactly halved.
  auto init = parts2.spec.factory(config.seed)->GetFlatParams();
  ASSERT_EQ(full.final_model.size(), half.final_model.size());
  for (std::size_t i = 0; i < init.size(); i += 97) {
    const float full_step = full.final_model[i] - init[i];
    const float half_step = half.final_model[i] - init[i];
    EXPECT_NEAR(half_step, 0.5f * full_step, 5e-3f);
  }
}

TEST_F(SimulationTest, PartialParticipationSlowsTheClock) {
  Parts& parts = MakeParts(12, 13);
  SimulationConfig config = SmallConfig(13);
  config.rounds = 4;
  util::ThreadPool pool(2);
  SimulationResult always = BuildSim(parts, config, &pool)->Run();

  Parts& parts2 = MakeParts(12, 13);
  config.participation = 0.5;
  SimulationResult sometimes = BuildSim(parts2, config, &pool)->Run();

  // Resting clients make every aggregation arrive later in simulated time.
  EXPECT_GT(sometimes.rounds.back().sim_time, always.rounds.back().sim_time);
}

TEST_F(SimulationTest, DefenseOverheadIsRecorded) {
  SimulationResult result = RunOnce(14);
  for (const auto& record : result.rounds) {
    EXPECT_GE(record.defense_micros, 0);
  }
}

// The spec form is the only constructor (the deprecated positional shims
// completed their one-release grace period and were removed).
TEST_F(SimulationTest, SpecConstructorRuns) {
  Parts& parts = MakeParts(12, 15);
  SimulationConfig config = SmallConfig(15);
  config.rounds = 2;
  util::ThreadPool pool(2);
  attacks::AttackParams params;
  params.total_clients = 12;
  ExperimentSpec spec;
  spec.sim = config;
  spec.model = parts.spec;
  spec.clients = std::move(parts.clients);
  spec.pool = &pool;
  spec.attack = attacks::MakeAttack(attacks::AttackKind::kNone, params);
  spec.defense = std::make_unique<defense::NoDefense>();
  spec.test_set = &parts.test;
  Simulation sim(std::move(spec));
  SimulationResult result = sim.Run();
  EXPECT_EQ(result.rounds.size(), 2u);
}

// eval_every is a divisor of the round counter: zero is refused at
// construction, not left to fault at the first aggregation.
TEST_F(SimulationTest, ZeroEvalEveryIsRejected) {
  Parts& parts = MakeParts(12, 16);
  SimulationConfig config = SmallConfig(16);
  config.eval_every = 0;
  util::ThreadPool pool(2);
  EXPECT_THROW(BuildSim(parts, config, &pool), util::CheckError);
}

}  // namespace
}  // namespace fl
