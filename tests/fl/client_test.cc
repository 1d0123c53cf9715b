#include "fl/client.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "data/synthetic.h"
#include "fl/experiment.h"
#include "stats/vec_ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace fl {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticGenerator gen(
        data::MakeProfileSpec(data::Profile::kMnist, 8), 3);
    train_ = gen.Generate(400, "train");
    test_ = gen.Generate(200, "test");
    spec_ = nn::MakeMlp(train_.sample_dim(), {16});
    // MLP expects flat samples.
    train_.sample_shape = {train_.sample_dim()};
    test_.sample_shape = {test_.sample_dim()};
  }

  LocalTrainConfig Config() {
    LocalTrainConfig config;
    config.epochs = 2;
    config.batch_size = 32;
    config.optimizer = {nn::OptimizerKind::kSgd, 0.05, 0.9, 0.0};
    return config;
  }

  std::vector<std::size_t> Partition(std::size_t n) {
    std::vector<std::size_t> p(n);
    std::iota(p.begin(), p.end(), 0u);
    return p;
  }

  data::Dataset train_;
  data::Dataset test_;
  nn::ModelSpec spec_;
};

TEST_F(ClientTest, DeltaHasModelDimension) {
  Client client(0, &train_, Partition(100), spec_, 1);
  auto model = spec_.factory(1);
  auto base = model->GetFlatParams();
  auto rng = util::RngFactory(2).Stream("train");
  auto delta = client.TrainOnce(base, Config(), rng);
  EXPECT_EQ(delta.size(), base.size());
  EXPECT_GT(stats::L2Norm(delta), 0.0);
}

TEST_F(ClientTest, TrainingIsRngDeterministic) {
  Client a(0, &train_, Partition(100), spec_, 1);
  Client b(0, &train_, Partition(100), spec_, 1);
  auto base = spec_.factory(1)->GetFlatParams();
  auto r1 = util::RngFactory(9).Stream("train");
  auto r2 = util::RngFactory(9).Stream("train");
  EXPECT_EQ(a.TrainOnce(base, Config(), r1), b.TrainOnce(base, Config(), r2));
}

TEST_F(ClientTest, RepeatedJobsFromSameBaseAreIndependent) {
  // The optimizer is rebuilt per job: training twice from the same base with
  // the same rng stream yields the same delta (no state leakage).
  Client client(0, &train_, Partition(100), spec_, 1);
  auto base = spec_.factory(1)->GetFlatParams();
  auto r1 = util::RngFactory(10).Stream("t");
  auto delta1 = client.TrainOnce(base, Config(), r1);
  auto r2 = util::RngFactory(10).Stream("t");
  auto delta2 = client.TrainOnce(base, Config(), r2);
  EXPECT_EQ(delta1, delta2);
}

TEST_F(ClientTest, TrainingReducesLocalLoss) {
  Client client(0, &train_, Partition(200), spec_, 1);
  auto model = spec_.factory(1);
  auto base = model->GetFlatParams();
  auto rng = util::RngFactory(3).Stream("train");
  auto delta = client.TrainOnce(base, Config(), rng);

  // Accuracy on the client's own data should improve after applying delta.
  auto trained = base;
  for (std::size_t i = 0; i < trained.size(); ++i) {
    trained[i] += delta[i];
  }
  double before = EvaluateAccuracy(spec_, *model, base, train_);
  double after = EvaluateAccuracy(spec_, *model, trained, train_);
  EXPECT_GT(after, before + 0.1);
}

TEST_F(ClientTest, EmptyPartitionThrows) {
  EXPECT_THROW(Client(0, &train_, {}, spec_, 1), util::CheckError);
}

TEST_F(ClientTest, NumSamplesReflectsPartition) {
  Client client(4, &train_, Partition(37), spec_, 1);
  EXPECT_EQ(client.num_samples(), 37u);
  EXPECT_EQ(client.id(), 4);
}

TEST_F(ClientTest, EvaluateAccuracyBoundsAndDeterminism) {
  auto model = spec_.factory(1);
  auto params = model->GetFlatParams();
  double acc1 = EvaluateAccuracy(spec_, *model, params, test_);
  double acc2 = EvaluateAccuracy(spec_, *model, params, test_);
  EXPECT_GE(acc1, 0.0);
  EXPECT_LE(acc1, 1.0);
  EXPECT_DOUBLE_EQ(acc1, acc2);
}

// Each sample's logits are computed independently of the rest of its batch
// (every GEMM output element reads only its own row and column), so the
// eval batch size is a pure speed knob. Checked on both conv models, with
// lightly trained parameters so predictions are not all one class.
TEST(EvaluateAccuracyTest, IndependentOfBatchSize) {
  struct Case {
    data::Profile profile;
    std::size_t side;
  };
  for (const Case& c : {Case{data::Profile::kFashionMnist, 12},
                        Case{data::Profile::kCifar10, 8}}) {
    data::SyntheticGenerator gen(data::MakeProfileSpec(c.profile, c.side), 5);
    const data::Dataset train = gen.Generate(96, "train");
    const data::Dataset test = gen.Generate(300, "test");
    const nn::ModelSpec spec = ModelForProfile(c.profile, c.side);
    std::vector<std::size_t> partition(train.size());
    std::iota(partition.begin(), partition.end(), 0u);
    Client client(0, &train, partition, spec, 1);
    std::vector<float> params = spec.factory(1)->GetFlatParams();
    LocalTrainConfig config;
    config.epochs = 1;
    auto rng = util::RngFactory(2).Stream("train");
    const std::vector<float> delta = client.TrainOnce(params, config, rng);
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] += delta[i];
    }

    auto model = spec.factory(1);
    const double reference = EvaluateAccuracy(spec, *model, params, test, 1);
    EXPECT_GT(reference, 0.0);
    for (std::size_t batch : {7u, 32u, 256u}) {
      EXPECT_EQ(EvaluateAccuracy(spec, *model, params, test, batch), reference)
          << spec.name << " batch " << batch;
    }
    EXPECT_EQ(EvaluateAccuracy(spec, *model, params, test), reference)
        << spec.name << " default batch";

    // Stronger: the logits themselves are bit-identical.
    std::vector<std::size_t> all(test.size());
    std::iota(all.begin(), all.end(), 0u);
    const tensor::Tensor batched =
        model->Forward(data::MakeBatch(test, all).features);
    const std::size_t classes = spec.num_classes;
    for (std::size_t i = 0; i < test.size(); i += 37) {
      const std::size_t one[] = {i};
      const tensor::Tensor single =
          model->Forward(data::MakeBatch(test, one).features);
      ASSERT_EQ(std::memcmp(single.data().data(),
                            batched.data().data() + i * classes,
                            classes * sizeof(float)),
                0)
          << spec.name << " sample " << i;
    }
  }
}

// Batches shared out over replicas on a pool must give exactly the serial
// single-model result: correct-counts are integers, and no sample's logits
// depend on which replica or batch computed them. Both test-set sizes
// leave a ragged last batch; 77 samples give fewer batches than some
// worker counts have replicas.
TEST(EvaluateAccuracyTest, ParallelReplicasMatchSerial) {
  struct Case {
    data::Profile profile;
    std::size_t side;
  };
  for (const Case& c : {Case{data::Profile::kFashionMnist, 12},
                        Case{data::Profile::kCifar10, 8}}) {
    data::SyntheticGenerator gen(data::MakeProfileSpec(c.profile, c.side), 7);
    const data::Dataset train = gen.Generate(96, "train");
    const nn::ModelSpec spec = ModelForProfile(c.profile, c.side);
    std::vector<std::size_t> partition(train.size());
    std::iota(partition.begin(), partition.end(), 0u);
    Client client(0, &train, partition, spec, 1);
    std::vector<float> params = spec.factory(1)->GetFlatParams();
    LocalTrainConfig config;
    config.epochs = 1;
    auto rng = util::RngFactory(3).Stream("train");
    const std::vector<float> delta = client.TrainOnce(params, config, rng);
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] += delta[i];
    }

    for (std::size_t samples : {1000u, 77u}) {
      const data::Dataset test = gen.Generate(samples, "test");
      auto serial_model = spec.factory(1);
      const double serial = EvaluateAccuracy(spec, *serial_model, params, test);
      EXPECT_GT(serial, 0.0);
      for (std::size_t workers = 1; workers <= 5; ++workers) {
        util::ThreadPool pool(workers);
        std::vector<std::unique_ptr<nn::Sequential>> models;
        std::vector<nn::Sequential*> replicas;
        for (std::size_t w = 0; w < workers; ++w) {
          models.push_back(spec.factory(1));
          replicas.push_back(models.back().get());
        }
        EXPECT_EQ(EvaluateAccuracy(spec, replicas, params, test, &pool),
                  serial)
            << spec.name << " samples " << samples << " workers " << workers;
        // A second call reuses the replicas' warm arenas.
        EXPECT_EQ(EvaluateAccuracy(spec, replicas, params, test, &pool, 7),
                  serial)
            << spec.name << " samples " << samples << " workers " << workers
            << " batch 7";
      }
    }
  }
}

TEST(EvaluateAccuracyTest, ZeroBatchSizeThrows) {
  data::SyntheticGenerator gen(
      data::MakeProfileSpec(data::Profile::kFashionMnist, 12), 7);
  const data::Dataset test = gen.Generate(10, "test");
  const nn::ModelSpec spec = ModelForProfile(data::Profile::kFashionMnist, 12);
  auto model = spec.factory(1);
  const std::vector<float> params = model->GetFlatParams();
  EXPECT_THROW(EvaluateAccuracy(spec, *model, params, test, 0),
               util::CheckError);
}

}  // namespace
}  // namespace fl
