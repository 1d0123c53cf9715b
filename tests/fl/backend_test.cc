#include "fl/backend.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "data/partition.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace fl {
namespace {

// Clients over a fixed partition: two builds with the same seed are
// identical, so one backend can replay what another computed.
std::vector<std::unique_ptr<Client>> MakeClients(const data::Dataset& train,
                                                 const nn::ModelSpec& spec,
                                                 std::size_t count) {
  auto rng = util::RngFactory(4).Stream("partition");
  auto partition = data::DirichletPartition(train, count, 40, 0.5, rng);
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < count; ++c) {
    clients.push_back(std::make_unique<Client>(
        static_cast<int>(c), &train, std::move(partition[c]), spec, 4));
  }
  return clients;
}

bool BitwiseEqual(const net::UpdateView& a, const net::UpdateView& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// One batch where client 1 reports three times and client 3 twice runs as
// per-client chains in parallel. Each delta must be bitwise the one the
// job gives when every job runs alone, in job order, on a backend of its
// own — with a lossy delta codec too, whose per-client error feedback
// carries from one job of a chain to the next.
TEST(InprocBackendTest, ClientChainsMatchJobsRunAloneInOrder) {
  data::SyntheticGenerator gen(
      data::MakeProfileSpec(data::Profile::kFashionMnist, 12), 4);
  const data::Dataset train = gen.Generate(400, "train");
  const nn::ModelSpec spec = nn::MakeLeNet5Surrogate(12);
  LocalTrainConfig local;
  local.epochs = 1;
  local.optimizer = {nn::OptimizerKind::kSgd, 0.05, 0.9, 0.0};

  // Two bases, as in a round whose arrivals were dispatched before and
  // after an aggregation.
  auto base0 =
      std::make_shared<const std::vector<float>>(spec.factory(4)->GetFlatParams());
  std::vector<float> shifted = *base0;
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    shifted[i] += 0.01f * static_cast<float>(i % 7) - 0.03f;
  }
  auto base1 = std::make_shared<const std::vector<float>>(std::move(shifted));
  const std::vector<TrainJob> jobs = {
      {1, 0, 0, base0}, {3, 0, 0, base0}, {0, 0, 0, base0}, {1, 1, 0, base0},
      {2, 0, 1, base1}, {3, 1, 1, base1}, {1, 2, 1, base1},
  };

  for (const char* codec_name : {"identity", "topk-delta"}) {
    const compress::Codec* codec = &compress::Get(codec_name);
    util::ThreadPool pool(3);
    InprocBackend batched(MakeClients(train, spec, 4), &pool, 9, local, codec);
    const std::vector<net::UpdateView> deltas = batched.Train(jobs);
    ASSERT_EQ(deltas.size(), jobs.size());

    InprocBackend alone(MakeClients(train, spec, 4), &pool, 9, local, codec);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::vector<net::UpdateView> one = alone.Train({jobs[j]});
      ASSERT_EQ(one.size(), 1u);
      ASSERT_FALSE(one[0].empty());
      EXPECT_TRUE(BitwiseEqual(deltas[j], one[0]))
          << codec_name << " job " << j << " (client " << jobs[j].client_id
          << ", job index " << jobs[j].job_index << ")";
    }
  }
}

}  // namespace
}  // namespace fl
