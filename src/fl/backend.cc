#include "fl/backend.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fl {

InprocBackend::InprocBackend(std::vector<std::unique_ptr<Client>> clients,
                             util::ThreadPool* pool, std::uint64_t seed,
                             LocalTrainConfig local,
                             const compress::Codec* codec)
    : clients_(std::move(clients)),
      pool_(pool),
      rngs_(seed),
      local_(local),
      codec_(codec != nullptr && !compress::IsIdentity(*codec) ? codec
                                                               : nullptr),
      feedback_(codec_ != nullptr ? clients_.size() : 0) {
  AF_CHECK(!clients_.empty());
  AF_CHECK(pool_ != nullptr);
}

std::size_t InprocBackend::NumSamples(int client_id) const {
  return clients_[static_cast<std::size_t>(client_id)]->num_samples();
}

std::vector<net::UpdateView> InprocBackend::Train(
    const std::vector<TrainJob>& jobs) {
  // Same-client jobs share a model instance (and, with a codec, an
  // error-feedback stream), so each client's jobs form one chain that runs
  // in job order on one thread. Chains run longest-first in one ParallelFor
  // (its shards take indices in order), so a client that reports several
  // times in a buffer window starts first and single jobs fill in around it.
  std::vector<std::vector<std::size_t>> chains;
  std::vector<std::size_t> chain_of(clients_.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t cid = static_cast<std::size_t>(jobs[j].client_id);
    if (chain_of[cid] == jobs.size()) {
      chain_of[cid] = chains.size();
      chains.emplace_back();
    }
    chains[chain_of[cid]].push_back(j);
  }
  std::stable_sort(chains.begin(), chains.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });

  std::vector<net::UpdateView> honest(jobs.size());
  obs::Histogram& job_us =
      obs::DefaultRegistry().GetHistogram("train.job_us");
  // Mirror of the wire's downlink policy: broadcast-safe codecs compress
  // full params, delta-only codecs fall back to identity for the base.
  const bool lossy_downlink = codec_ != nullptr && codec_->broadcast_safe();
  auto run_job = [&](std::size_t j) {
    AF_TRACE_SPAN("train.job");
    const auto start = std::chrono::steady_clock::now();
    const TrainJob& job = jobs[j];
    const std::size_t cid = static_cast<std::size_t>(job.client_id);
    const std::uint64_t stream_index =
        (static_cast<std::uint64_t>(cid) << 32) | job.job_index;
    auto rng = rngs_.Stream("client-train", stream_index);
    if (codec_ == nullptr) {
      honest[j] = clients_[cid]->TrainOnce(*job.base, local_, rng);
    } else {
      // Feedback stays per-client: the chain runs this client's jobs in
      // job_index order, matching the tcp worker's sequential encode order.
      const std::vector<float> base =
          lossy_downlink ? compress::RoundTrip(*codec_, *job.base) : *job.base;
      std::vector<float> delta = clients_[cid]->TrainOnce(base, local_, rng);
      honest[j] = compress::RoundTrip(*codec_, delta, &feedback_[cid]);
    }
    job_us.Record(std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - start)
                      .count());
  };
  {
    AF_TRACE_SPAN("train.batch");
    pool_->ParallelFor(chains.size(), [&](std::size_t c) {
      for (std::size_t j : chains[c]) {
        run_job(j);
      }
    });
  }
  // Inproc jobs never serialize: every delta view takes ownership of the
  // trained vector directly, zero copies per update.
  obs::DefaultRegistry()
      .GetCounter("transport.updates")
      .Increment(static_cast<std::uint64_t>(jobs.size()));
  return honest;
}

}  // namespace fl
