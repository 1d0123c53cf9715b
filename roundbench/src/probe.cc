#include "probe.h"

#include <time.h>

#include <chrono>
#include <cmath>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/maxpool2d.h"
#include "nn/relu.h"
#include "util/check.h"
#include "util/rng.h"

namespace roundbench {
namespace {

double MsBetween(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

std::atomic<Probe*> g_active{nullptr};
std::atomic<std::uint32_t> g_next_span{0};

}  // namespace

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---------------------------------------------------------------- SpanLog

SpanLog& SpanLog::Global() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::Local() {
  // The log co-owns every buffer, so spans of a thread that has exited
  // (a pool torn down after its run) survive until the next Drain().
  thread_local std::shared_ptr<Buffer> local;
  if (!local) {
    local = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    local->thread = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(local);
  }
  return *local;
}

void SpanLog::Record(const Span& span) {
  Buffer& buffer = Local();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

std::vector<Span> SpanLog::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
  return all;
}

// ------------------------------------------------------------------ Probe

Probe::Probe(bool traced, bool backend_visible)
    : traced_(traced), backend_visible_(backend_visible) {}

Probe::~Probe() {
  Probe* self = this;
  g_active.compare_exchange_strong(self, nullptr);
}

Probe* Probe::Active() { return g_active.load(std::memory_order_relaxed); }

std::uint32_t Probe::NextSpanId() {
  return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

void Probe::Emit(const char* name, std::uint32_t id, std::uint32_t parent,
                 std::uint64_t begin, std::uint64_t end) {
  if (!traced_) {
    return;
  }
  Span span;
  span.name = name;
  span.round = static_cast<std::uint32_t>(rounds_.size());
  span.id = id;
  span.parent = parent;
  span.begin_ns = begin;
  span.end_ns = end;
  SpanLog::Global().Record(span);
}

void Probe::OpenRound(std::uint64_t now) {
  open_ = RoundSample{};
  round_begin_ns_ = now;
  round_span_ = NextSpanId();
  processed_ = false;
  round_index_.store(static_cast<std::uint32_t>(rounds_.size()),
                     std::memory_order_relaxed);
  parent_.store(round_span_, std::memory_order_relaxed);
}

void Probe::CloseRound(std::uint64_t now) {
  if (backend_visible_) {
    open_.eval_step_ms = MsBetween(last_process_end_ns_, now);
    Emit("fl.eval_step", eval_span_, round_span_, last_process_end_ns_, now);
  }
  open_.wall_ms = MsBetween(round_begin_ns_, now);
  Emit("round", round_span_, kNoParent, round_begin_ns_, now);
  rounds_.push_back(open_);
}

void Probe::WindowBegin() {
  if (!traced_) {
    return;
  }
  obs::MetricsRegistry& reg = obs::DefaultRegistry();
  window_cpu0_ = ProcessCpuSeconds();
  window_wall0_ = NowNs();
  gemm0_[0] = reg.GetCounter("gemm.calls").Value();
  gemm0_[1] = reg.GetCounter("gemm.flops").Value();
  gemm0_[2] = reg.GetCounter("gemm.bytes_packed").Value();
}

void Probe::WindowEnd() {
  if (!traced_) {
    return;
  }
  obs::MetricsRegistry& reg = obs::DefaultRegistry();
  window_.cpu_s += ProcessCpuSeconds() - window_cpu0_;
  window_.wall_s += static_cast<double>(NowNs() - window_wall0_) / 1e9;
  window_.gemm_calls += reg.GetCounter("gemm.calls").Value() - gemm0_[0];
  window_.gemm_flops += reg.GetCounter("gemm.flops").Value() - gemm0_[1];
  window_.gemm_bytes_packed +=
      reg.GetCounter("gemm.bytes_packed").Value() - gemm0_[2];
}

void Probe::RunBegin() {
  if (traced_) {
    // Layers report only inside Run(), so set-up work (replay recording)
    // stays out of the rounds.
    Probe* expected = nullptr;
    AF_CHECK(g_active.compare_exchange_strong(expected, this))
        << "only one traced probe at a time";
  }
  run_begin_ns_ = NowNs();
  last_process_end_ns_ = run_begin_ns_;
  OpenRound(run_begin_ns_);
  if (!backend_visible_) {
    WindowBegin();
  }
}

void Probe::RunEnd() {
  const std::uint64_t now = NowNs();
  if (processed_) {
    CloseRound(now);
  }
  if (!backend_visible_) {
    WindowEnd();
  }
  run_wall_s_ = static_cast<double>(now - run_begin_ns_) / 1e9;
  Probe* self = this;
  g_active.compare_exchange_strong(self, nullptr);
}

void Probe::TrainBegin() {
  const std::uint64_t now = NowNs();
  if (processed_) {
    CloseRound(now);
    OpenRound(now);
  }
  train_begin_ns_ = now;
  parent_.store(NextSpanId(), std::memory_order_relaxed);
  WindowBegin();
}

void Probe::TrainEnd(std::size_t jobs, std::size_t lost) {
  WindowEnd();
  const std::uint64_t now = NowNs();
  open_.train_ms += MsBetween(train_begin_ns_, now);
  Emit("fl.train", parent_.load(std::memory_order_relaxed), round_span_,
       train_begin_ns_, now);
  parent_.store(round_span_, std::memory_order_relaxed);
  jobs_ += jobs;
  lost_ += lost;
}

std::uint64_t Probe::CraftBegin() { return NowNs(); }

void Probe::CraftEnd(std::uint64_t begin_ns) {
  const std::uint64_t now = NowNs();
  const double ms = MsBetween(begin_ns, now);
  open_.attack_ms += ms;
  open_.crafts += 1;
  attack_since_process_ms_ += ms;
  Emit("attacks.craft", NextSpanId(), round_span_, begin_ns, now);
}

void Probe::ProcessBegin() {
  process_begin_ns_ = NowNs();
  open_.collect_ms += MsBetween(last_process_end_ns_, process_begin_ns_) -
                      attack_since_process_ms_;
  attack_since_process_ms_ = 0.0;
}

void Probe::ProcessEnd(std::size_t updates) {
  const std::uint64_t now = NowNs();
  open_.defense_ms += MsBetween(process_begin_ns_, now);
  open_.defense_updates += updates;
  Emit("defense.process", NextSpanId(), round_span_, process_begin_ns_, now);
  last_process_end_ns_ = now;
  processed_ = true;
  if (backend_visible_) {
    eval_span_ = NextSpanId();
    parent_.store(eval_span_, std::memory_order_relaxed);
  } else {
    CloseRound(now);
    OpenRound(now);
  }
}

// ------------------------------------------------------------- Decorators

std::vector<net::UpdateView> TimedBackend::Train(
    const std::vector<fl::TrainJob>& jobs) {
  probe_->TrainBegin();
  std::vector<net::UpdateView> deltas = inner_->Train(jobs);
  std::size_t lost = 0;
  for (const auto& delta : deltas) {
    lost += delta.empty() ? 1 : 0;
  }
  probe_->TrainEnd(jobs.size(), lost);
  return deltas;
}

defense::AggregationResult TimedDefense::Process(
    const defense::FilterContext& context,
    const std::vector<fl::ModelUpdate>& updates) {
  probe_->ProcessBegin();
  defense::AggregationResult result = inner_->Process(context, updates);
  probe_->ProcessEnd(updates.size());
  return result;
}

std::vector<float> TimedAttack::Craft(const attacks::AttackContext& context) {
  const std::uint64_t begin = probe_->CraftBegin();
  std::vector<float> crafted = inner_->Craft(context);
  probe_->CraftEnd(begin);
  return crafted;
}

// ------------------------------------------------------------ Timed model

namespace {

class TimedLayer : public nn::Layer {
 public:
  TimedLayer(std::unique_ptr<nn::Layer> inner, const char* fwd,
             const char* bwd)
      : inner_(std::move(inner)), fwd_(fwd), bwd_(bwd) {}

  tensor::Tensor Forward(const tensor::Tensor& input) override {
    const std::uint64_t begin = NowNs();
    tensor::Tensor out = inner_->Forward(input);
    Report(fwd_, begin);
    return out;
  }
  tensor::Tensor Backward(const tensor::Tensor& grad_output) override {
    const std::uint64_t begin = NowNs();
    tensor::Tensor out = inner_->Backward(grad_output);
    Report(bwd_, begin);
    return out;
  }
  std::vector<tensor::Tensor*> Params() override { return inner_->Params(); }
  std::vector<tensor::Tensor*> Grads() override { return inner_->Grads(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  static void Report(const char* name, std::uint64_t begin) {
    const std::uint64_t end = NowNs();
    Probe* probe = Probe::Active();
    if (probe == nullptr) {
      return;
    }
    Span span;
    span.name = name;
    span.round = probe->current_round();
    span.id = Probe::NextSpanId();
    span.parent = probe->current_parent();
    span.begin_ns = begin;
    span.end_ns = end;
    SpanLog::Global().Record(span);
  }

  std::unique_ptr<nn::Layer> inner_;
  const char* fwd_;
  const char* bwd_;
};

// Appends `layer` wrapped in a timing layer named after its type.
void AddTimed(nn::Sequential& model, std::unique_ptr<nn::Layer> layer) {
  const std::string type = layer->Name();
  const char* fwd = "nn.other.fwd";
  const char* bwd = "nn.other.bwd";
  if (type == "Conv2d") {
    fwd = "nn.conv2d.fwd", bwd = "nn.conv2d.bwd";
  } else if (type == "ReLU") {
    fwd = "nn.relu.fwd", bwd = "nn.relu.bwd";
  } else if (type == "MaxPool2d") {
    fwd = "nn.maxpool2d.fwd", bwd = "nn.maxpool2d.bwd";
  } else if (type == "Dense") {
    fwd = "nn.dense.fwd", bwd = "nn.dense.bwd";
  } else if (type == "Flatten") {
    fwd = "nn.flatten.fwd", bwd = "nn.flatten.bwd";
  }
  model.Add(std::make_unique<TimedLayer>(std::move(layer), fwd, bwd));
}

}  // namespace

nn::ModelSpec MakeTimedModel(bool vgg, std::size_t side) {
  // Starts from the stock spec so name and shapes stay the library's; only
  // the factory is replaced, with the same layer order and init stream.
  nn::ModelSpec spec =
      vgg ? nn::MakeVggSurrogate(side) : nn::MakeLeNet5Surrogate(side);
  const std::size_t classes = spec.num_classes;
  spec.factory = [vgg, side, classes](std::uint64_t seed) {
    util::RngFactory rngs(seed);
    auto rng = rngs.Stream("model-init");
    auto model = std::make_unique<nn::Sequential>();
    const std::size_t in = vgg ? 3 : 1;
    AddTimed(*model, std::make_unique<nn::Conv2d>(in, 6, 3, 1, rng));
    AddTimed(*model, std::make_unique<nn::ReLU>());
    if (vgg) {
      AddTimed(*model, std::make_unique<nn::Conv2d>(6, 6, 3, 1, rng));
      AddTimed(*model, std::make_unique<nn::ReLU>());
    }
    AddTimed(*model, std::make_unique<nn::MaxPool2d>(2));
    AddTimed(*model, std::make_unique<nn::Conv2d>(6, 12, 3, 1, rng));
    AddTimed(*model, std::make_unique<nn::ReLU>());
    AddTimed(*model, std::make_unique<nn::MaxPool2d>(2));
    const std::size_t feat = 12 * (side / 4) * (side / 4);
    AddTimed(*model, std::make_unique<nn::Flatten>());
    AddTimed(*model, std::make_unique<nn::Dense>(feat, 32, rng));
    AddTimed(*model, std::make_unique<nn::ReLU>());
    AddTimed(*model, std::make_unique<nn::Dense>(32, classes, rng));
    return model;
  };
  return spec;
}

// ---------------------------------------------------------- RegistryDelta

void RegistryDelta::Collect(std::map<std::string, std::uint64_t>& counters,
                            std::map<std::string, Hist>& hists) {
  counters.clear();
  hists.clear();
  for (const obs::MetricSnapshot& m : obs::DefaultRegistry().Snapshot()) {
    if (m.kind == obs::MetricSnapshot::Kind::kCounter) {
      counters[m.name] += m.counter_value;
    } else if (m.kind == obs::MetricSnapshot::Kind::kHistogram) {
      Hist& h = hists[m.name];
      if (h.bounds.empty()) {
        h.bounds = m.bucket_bounds;
        h.counts.assign(m.bucket_counts.size(), 0);
      }
      AF_CHECK_EQ(h.counts.size(), m.bucket_counts.size())
          << "histogram " << m.name << " changes buckets across labels";
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        h.counts[i] += m.bucket_counts[i];
      }
    }
  }
}

void RegistryDelta::Begin() { Collect(counters0_, hists0_); }

void RegistryDelta::End() {
  Collect(counters_, hists_);
  for (auto& [name, value] : counters_) {
    auto it = counters0_.find(name);
    value -= it == counters0_.end() ? 0 : it->second;
  }
  for (auto& [name, hist] : hists_) {
    auto it = hists0_.find(name);
    if (it == hists0_.end()) {
      continue;
    }
    for (std::size_t i = 0; i < hist.counts.size(); ++i) {
      hist.counts[i] -= it->second.counts[i];
    }
  }
}

std::uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t RegistryDelta::HistogramCount(const std::string& name) const {
  auto it = hists_.find(name);
  if (it == hists_.end()) {
    return 0;
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : it->second.counts) {
    total += c;
  }
  return total;
}

double RegistryDelta::HistogramPercentile(const std::string& name,
                                          double p) const {
  const std::uint64_t total = HistogramCount(name);
  if (total == 0) {
    return 0.0;
  }
  const Hist& h = hists_.at(name);
  const double target = p * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double c = static_cast<double>(h.counts[i]);
    if (c == 0.0 || seen + c < target) {
      seen += c;
      continue;
    }
    const double lower = i == 0 ? 0.0 : h.bounds[i - 1];
    const double upper = std::isinf(h.bounds[i]) ? lower : h.bounds[i];
    return lower + (upper - lower) * (target - seen) / c;
  }
  return h.bounds.size() > 1 ? h.bounds[h.bounds.size() - 2] : 0.0;
}

}  // namespace roundbench
