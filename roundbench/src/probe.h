// Outside-in instrumentation for the round benchmark.
//
// Nothing here reaches inside the simulator: every clock read happens in a
// decorator around one of its public seams (fl::TrainBackend,
// defense::Defense, attacks::Attack, nn::Layer) or in a before/after
// snapshot of obs::DefaultRegistry().
//
// A Probe follows one simulation run on the thread that drives it and
// turns the calls it sees into rounds:
//
//   round r:  [collect | fl.train | attacks.craft ...] defense.process
//             [fl.eval_step]
//
// With a visible backend (the in-process workloads) round r ends at the
// first Train call after its Process returns, so the eval step and the
// bookkeeping after aggregation belong to the round that caused them. Over
// tcp training is invisible and round r ends when its Process returns.
// In traced mode the probe also records spans (name, start, end, parent;
// all spans of one round carry the round index) into an in-memory log.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "attacks/attack.h"
#include "defense/defense.h"
#include "fl/backend.h"
#include "nn/models.h"
#include "obs/metrics.h"

namespace roundbench {

std::uint64_t NowNs();
// CPU time of the whole process (all threads), in seconds.
double ProcessCpuSeconds();

struct Span {
  const char* name = nullptr;  // static storage
  std::uint32_t round = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // kNoParent for round spans
  std::uint32_t thread = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};
inline constexpr std::uint32_t kNoParent = 0xffffffffu;

// Span sink shared by every thread. Each thread appends to its own buffer;
// Drain() must only run while no thread records (between simulation runs).
class SpanLog {
 public:
  static SpanLog& Global();
  void Record(const Span& span);
  std::vector<Span> Drain();

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& Local();

  std::mutex mu_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

// Per-round measurements, all from the benchmark's own clocks.
struct RoundSample {
  double wall_ms = 0.0;
  double train_ms = 0.0;      // wall inside TrainBackend::Train
  double attack_ms = 0.0;     // wall inside Attack::Craft
  double defense_ms = 0.0;    // wall inside Defense::Process
  double eval_step_ms = 0.0;  // Process return → next Train call
  double collect_ms = 0.0;    // last Process return → Process call − attack
  std::uint64_t crafts = 0;
  std::uint64_t defense_updates = 0;
};

// Process CPU and GEMM counters accumulated over training windows: the
// Train calls when the backend is visible, the whole Run() otherwise.
struct TrainWindow {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t gemm_calls = 0;
  std::uint64_t gemm_flops = 0;
  std::uint64_t gemm_bytes_packed = 0;
};

class Probe {
 public:
  Probe(bool traced, bool backend_visible);
  ~Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  // The probe timing layers report to: the traced probe between its
  // RunBegin and RunEnd, null otherwise.
  static Probe* Active();

  void RunBegin();
  void RunEnd();
  void TrainBegin();
  void TrainEnd(std::size_t jobs, std::size_t lost);
  std::uint64_t CraftBegin();
  void CraftEnd(std::uint64_t begin_ns);
  void ProcessBegin();
  void ProcessEnd(std::size_t updates);

  // Worker-thread side: the round and the span a layer call belongs to.
  std::uint32_t current_round() const {
    return round_index_.load(std::memory_order_relaxed);
  }
  std::uint32_t current_parent() const {
    return parent_.load(std::memory_order_relaxed);
  }
  static std::uint32_t NextSpanId();

  const std::vector<RoundSample>& rounds() const { return rounds_; }
  const TrainWindow& train_window() const { return window_; }
  double run_wall_s() const { return run_wall_s_; }
  std::uint64_t jobs() const { return jobs_; }
  std::uint64_t lost_jobs() const { return lost_; }

 private:
  void OpenRound(std::uint64_t now);
  void CloseRound(std::uint64_t now);
  void WindowBegin();
  void WindowEnd();
  void Emit(const char* name, std::uint32_t id, std::uint32_t parent,
            std::uint64_t begin, std::uint64_t end);

  const bool traced_;
  const bool backend_visible_;
  std::atomic<std::uint32_t> round_index_{0};
  std::atomic<std::uint32_t> parent_{kNoParent};

  std::vector<RoundSample> rounds_;
  RoundSample open_;
  std::uint32_t round_span_ = 0;
  std::uint64_t round_begin_ns_ = 0;
  std::uint64_t run_begin_ns_ = 0;
  double run_wall_s_ = 0.0;
  bool processed_ = false;  // the open round's Process has returned
  std::uint64_t last_process_end_ns_ = 0;
  std::uint64_t train_begin_ns_ = 0;
  std::uint64_t process_begin_ns_ = 0;
  std::uint32_t eval_span_ = 0;
  double attack_since_process_ms_ = 0.0;

  TrainWindow window_;
  double window_cpu0_ = 0.0;
  std::uint64_t window_wall0_ = 0;
  std::uint64_t gemm0_[3] = {0, 0, 0};

  std::uint64_t jobs_ = 0;
  std::uint64_t lost_ = 0;
};

// Decorators over the simulator's public seams. Each forwards everything
// and reports to the probe it was built with.
class TimedBackend : public fl::TrainBackend {
 public:
  TimedBackend(fl::TrainBackend* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}
  std::vector<net::UpdateView> Train(
      const std::vector<fl::TrainJob>& jobs) override;
  std::size_t ClientCount() const override { return inner_->ClientCount(); }
  std::size_t NumSamples(int client_id) const override {
    return inner_->NumSamples(client_id);
  }
  bool IsAlive(int client_id) const override {
    return inner_->IsAlive(client_id);
  }
  std::size_t AliveCount() const override { return inner_->AliveCount(); }
  WireStats UpdateWireStats(int client_id,
                            std::uint64_t job_index) const override {
    return inner_->UpdateWireStats(client_id, job_index);
  }

 private:
  fl::TrainBackend* inner_;
  Probe* probe_;
};

class TimedDefense : public defense::Defense {
 public:
  TimedDefense(std::unique_ptr<defense::Defense> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}
  defense::AggregationResult Process(
      const defense::FilterContext& context,
      const std::vector<fl::ModelUpdate>& updates) override;
  std::string Name() const override { return inner_->Name(); }
  void Reset() override { inner_->Reset(); }
  void SaveState(util::serial::Writer& w) const override {
    inner_->SaveState(w);
  }
  void LoadState(util::serial::Reader& r) override { inner_->LoadState(r); }
  bool RequiresServerReference() const override {
    return inner_->RequiresServerReference();
  }

 private:
  std::unique_ptr<defense::Defense> inner_;
  Probe* probe_;
};

class TimedAttack : public attacks::Attack {
 public:
  TimedAttack(std::unique_ptr<attacks::Attack> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}
  std::vector<float> Craft(const attacks::AttackContext& context) override;
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<attacks::Attack> inner_;
  Probe* probe_;
};

// The LeNet or VGG surrogate rebuilt from the public nn:: layer classes
// (same layers, same init stream as nn::MakeLeNet5Surrogate /
// nn::MakeVggSurrogate) with every layer wrapped in a timing layer that
// records nn.<type>.fwd / .bwd spans into Probe::Active().
nn::ModelSpec MakeTimedModel(bool vgg, std::size_t side);

// Before/after view of obs::DefaultRegistry(): counters summed over labels,
// histograms as per-bucket deltas.
class RegistryDelta {
 public:
  void Begin();
  void End();
  std::uint64_t Counter(const std::string& name) const;
  std::uint64_t HistogramCount(const std::string& name) const;
  // Linear interpolation inside the winning bucket; 0 when empty.
  double HistogramPercentile(const std::string& name, double p) const;

 private:
  struct Hist {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
  };
  static void Collect(std::map<std::string, std::uint64_t>& counters,
                      std::map<std::string, Hist>& hists);

  std::map<std::string, std::uint64_t> counters0_, counters_;
  std::map<std::string, Hist> hists0_, hists_;
};

}  // namespace roundbench
