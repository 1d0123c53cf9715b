// roundbench: round-level benchmark of the AsyncFilter simulator.
//
//   roundbench --workload NAME --seed N --seconds S --trace 0|1
//              [--tiny] [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// alternates untraced and traced runs of one seed and reports the
// per-layer metrics. Either way the correctness gate runs and the last
// stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// `attempted` counts training jobs dispatched, `failed` the jobs whose
// update never came back (lost or evicted). See README.md.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "fl/experiment.h"
#include "nn/models.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "workload.h"

namespace roundbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value) != 0;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  return args;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return std::max(1, CPU_COUNT(&set));
}

// Starts a new peak-RSS window (Linux: "5" to clear_refs resets VmHWM).
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MB
    }
  }
  return 0.0;
}

// Linear interpolation between closest ranks (numpy's default).
double Quantile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Highest of p95/p90/p75 that leaves at least ten of `count` samples
// beyond it. p99 is left out: over the replay's 4 ms rounds it is set by
// host scheduling bursts and moved 0.20 (quartile spread over median)
// between runs on a 4-vCPU VM, against 0.06 for the median.
double TailPercentile(std::size_t count) {
  for (double p : {0.95, 0.9, 0.75}) {
    if (static_cast<double>(count) * (1.0 - p) >= 10.0) {
      return p;
    }
  }
  return 0.5;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ----------------------------------------------------- correctness gate

struct Gate {
  std::vector<std::string> failures;
  void Require(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
      std::fprintf(stderr, "roundbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
};

void CheckRun(const Workload& w, const RunResult& r, Gate& gate) {
  const std::string tag = w.name + ": ";
  gate.Require(r.sim.rounds.size() == w.rounds && !r.sim.interrupted,
               tag + "completed " + std::to_string(r.sim.rounds.size()) +
                   " of " + std::to_string(w.rounds) + " rounds");
  gate.Require(r.rounds.size() == w.rounds,
               tag + "probe saw " + std::to_string(r.rounds.size()) +
                   " rounds");
  std::size_t buffered = 0;
  for (const fl::RoundRecord& rec : r.sim.rounds) {
    const auto& c = rec.confusion;
    gate.Require(rec.accepted + rec.rejected + rec.deferred == rec.buffered &&
                     c.true_positive + c.false_positive + c.true_negative +
                             c.false_negative ==
                         rec.buffered,
                 tag + "verdicts of round " + std::to_string(rec.round) +
                     " do not sum to its buffered updates");
    buffered += rec.buffered;
  }
  std::size_t processed = 0;
  for (const RoundSample& s : r.rounds) {
    processed += s.defense_updates;
  }
  gate.Require(processed == buffered,
               tag + "defense saw " + std::to_string(processed) +
                   " updates, rounds buffered " + std::to_string(buffered));
  bool finite = !r.sim.final_model.empty();
  for (float v : r.sim.final_model) {
    finite = finite && std::isfinite(v);
  }
  gate.Require(finite, tag + "final model is empty or not finite");
}

// The timing-layer model must start from the library model's exact bits.
void CheckTimedModel(const Workload& w, std::uint64_t seed, Gate& gate) {
  const bool vgg = w.profile == data::Profile::kCifar10;
  const std::size_t side = fl::MakeDefaultConfig(w.profile, seed).image_side;
  const nn::ModelSpec stock = fl::ModelForProfile(w.profile, side);
  const std::vector<float> a = stock.factory(seed)->GetFlatParams();
  const std::vector<float> b =
      MakeTimedModel(vgg, side).factory(seed)->GetFlatParams();
  gate.Require(a.size() == b.size() &&
                   std::memcmp(a.data(), b.data(),
                               a.size() * sizeof(float)) == 0,
               w.name + ": timed-layer model's initial params differ from " +
                   stock.name);
}

void PrintDigest(const Workload& w, std::uint64_t seed, const char* mode,
                 const RunResult& r) {
  const fl::ConfusionCounts& c = r.sim.total_confusion;
  std::printf(
      "digest %s seed=%llu %s rounds=%zu %s acc=%.4f tp=%zu fp=%zu tn=%zu "
      "fn=%zu setup_s=%.3f run_s=%.3f\n",
      w.name.c_str(), static_cast<unsigned long long>(seed), mode,
      r.sim.rounds.size(), Hex(r.digest).c_str(), r.sim.final_accuracy,
      c.true_positive, c.false_positive, c.true_negative, c.false_negative,
      r.setup_s, r.run_wall_s);
  std::fflush(stdout);
}

// tcp ≡ inproc: the same config run in process must land on the same model.
void CheckTcpMatchesInproc(const Workload& w, std::uint64_t seed,
                           std::uint64_t tcp_digest, int nproc, Gate& gate) {
  RunSpec spec;
  spec.seed = seed;
  spec.force_inproc = true;
  spec.threads = nproc;
  const RunResult ref = RunOnce(w, spec);
  PrintDigest(w, seed, "inproc-reference", ref);
  gate.Require(ref.digest == tcp_digest,
               w.name + ": tcp digest " + Hex(tcp_digest) +
                   " differs from inproc " + Hex(ref.digest));
}

// ------------------------------------------------------------- metrics

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

double RoundsPerSecond(const RunResult& r) {
  double wall_ms = 0.0;
  for (const RoundSample& s : r.rounds) {
    wall_ms += s.wall_ms;
  }
  return Ratio(static_cast<double>(r.rounds.size()), wall_ms / 1e3);
}

Metrics EndToEnd(const Workload& w, const std::vector<RunResult>& runs,
                 double peak_rss_mb, std::size_t min_rounds) {
  std::vector<double> rates, walls, setups;
  for (const RunResult& r : runs) {
    rates.push_back(RoundsPerSecond(r));
    setups.push_back(r.setup_s);
    for (const RoundSample& s : r.rounds) {
      walls.push_back(s.wall_ms);
    }
  }
  // Detection and accuracy pool over the distinct seeds (the first runs).
  double acc = 0.0;
  fl::ConfusionCounts c;
  const std::size_t distinct = std::min(w.distinct_seeds, runs.size());
  for (std::size_t i = 0; i < distinct; ++i) {
    acc += runs[i].sim.final_accuracy;
    c.Add(runs[i].sim.total_confusion);
  }
  const double tail = TailPercentile(min_rounds);
  std::fprintf(stderr,
               "roundbench: round_tail_ms is p%g of %zu timed rounds "
               "(%zu runs)\n",
               tail * 100.0, walls.size(), runs.size());
  Metrics m;
  m["rounds_per_s"] = {Median(rates), "1/s"};
  m["round_p50_ms"] = {Median(walls), "ms"};
  m["round_tail_ms"] = {Quantile(walls, tail), "ms"};
  m["setup_s"] = {Median(setups), "s"};
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};
  m["final_acc_pct"] = {100.0 * acc / static_cast<double>(distinct), "%"};
  // Detection as the balanced accuracy of the verdicts and the benign
  // accept share. The reject shares read 0 on some workloads (LIE on
  // cifar-vgg-tcp rejects no attacker, replay almost no benign update), and
  // the attacker share alone swings with the seed; both are printed.
  const double tp = static_cast<double>(c.true_positive);
  const double fp = static_cast<double>(c.false_positive);
  const double tn = static_cast<double>(c.true_negative);
  const double fn = static_cast<double>(c.false_negative);
  const double attack_reject = Ratio(tp, tp + fn);
  const double benign_accept = Ratio(tn, fp + tn);
  m["detection_bal_acc_pct"] = {50.0 * (attack_reject + benign_accept), "%"};
  m["benign_accept_pct"] = {100.0 * benign_accept, "%"};
  std::fprintf(stderr,
               "roundbench: attack_reject_pct=%.4f benign_reject_pct=%.4f "
               "over %zu seeds\n",
               100.0 * attack_reject, 100.0 * (1.0 - benign_accept), distinct);
  return m;
}

// Per-layer metrics of one traced run; per-round figures divide by the
// rounds it timed.
Metrics PerLayer(const Workload& w, const RunResult& r) {
  const double rounds =
      static_cast<double>(std::max<std::size_t>(r.rounds.size(), 1));
  const bool visible = w.exec != Exec::kTcp;

  std::unordered_map<std::uint32_t, const char*> names;
  for (const Span& s : r.spans) {
    names[s.id] = s.name;
  }
  std::map<std::string, double> layer_ms;
  double layer_in_window_ms = 0.0;
  for (const Span& s : r.spans) {
    if (std::strncmp(s.name, "nn.", 3) != 0) {
      continue;
    }
    const double ms = static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
    layer_ms[s.name] += ms;
    auto parent = names.find(s.parent);
    if (!visible || (parent != names.end() &&
                     std::strcmp(parent->second, "fl.train") == 0)) {
      layer_in_window_ms += ms;
    }
  }

  double train = 0, attack = 0, defense = 0, eval = 0, collect = 0, wall = 0;
  std::uint64_t crafts = 0, updates = 0;
  std::vector<double> defense_each;
  for (const RoundSample& s : r.rounds) {
    train += s.train_ms, attack += s.attack_ms, defense += s.defense_ms;
    eval += s.eval_step_ms, collect += s.collect_ms, wall += s.wall_ms;
    crafts += s.crafts, updates += s.defense_updates;
    defense_each.push_back(s.defense_ms);
  }
  const TrainWindow& tw = r.window;
  const RegistryDelta& reg = r.registry;
  auto counter = [&](const char* name) {
    return static_cast<double>(reg.Counter(name));
  };
  auto pct = [&](const char* histogram, double p) {
    return reg.HistogramPercentile(histogram, p);
  };
  const double net_updates =
      static_cast<double>(reg.HistogramCount("net.job_rtt_us"));
  const double cached = counter("score.ref_dist_cached");
  const double computed = counter("score.ref_dist_computed");
  const double flops = static_cast<double>(tw.gemm_flops);
  const double update_bytes = static_cast<double>(r.params * sizeof(float));

  Metrics m;
  for (const char* layer : {"conv2d", "relu", "maxpool2d", "dense"}) {
    for (const char* dir : {"fwd", "bwd"}) {
      const std::string span = std::string("nn.") + layer + "." + dir;
      m[span + "_ms"] = {layer_ms[span] / rounds, "ms"};
    }
  }
  m["nn.other_ms"] = {
      std::max(0.0, tw.cpu_s * 1e3 - layer_in_window_ms) / rounds, "ms"};
  m["tensor.gemm_gflops"] = {Ratio(flops, tw.cpu_s) / 1e9, "GFLOP/s"};
  m["tensor.gemm_calls_per_round"] = {
      static_cast<double>(tw.gemm_calls) / rounds, "count"};
  m["tensor.packed_bytes_per_flop"] = {
      Ratio(static_cast<double>(tw.gemm_bytes_packed), flops), "B/flop"};
  m["fl.train_ms"] = {train / rounds, "ms"};
  m["fl.train_cpu_ms"] = {visible ? tw.cpu_s * 1e3 / rounds : 0.0, "ms"};
  m["fl.train_parallel_eff"] = {
      visible ? Ratio(tw.cpu_s, r.train_threads * tw.wall_s) : 0.0, "ratio"};
  m["fl.eval_step_ms"] = {eval / rounds, "ms"};
  m["fl.loop_ms"] = {(wall - train - attack - defense - eval) / rounds, "ms"};
  m["fl.collect_ms"] = {collect / rounds, "ms"};
  m["util.pool_queue_wait_us_p50"] = {pct("threadpool.queue_wait_us", 0.5),
                                      "us"};
  m["util.pool_queue_wait_us_p95"] = {pct("threadpool.queue_wait_us", 0.95),
                                      "us"};
  m["defense.process_ms_p50"] = {Median(defense_each), "ms"};
  m["defense.process_us_per_update"] = {
      Ratio(defense * 1e3, static_cast<double>(updates)), "us"};
  m["score.ref_dist_hit_pct"] = {100.0 * Ratio(cached, cached + computed),
                                 "%"};
  m["defense.degenerate_rounds"] = {counter("defense.degenerate_rounds"),
                                    "count"};
  m["attacks.craft_ms"] = {attack / rounds, "ms"};
  m["attacks.craft_us_per_update"] = {
      Ratio(attack * 1e3, static_cast<double>(crafts)), "us"};
  m["net.job_rtt_ms_p50"] = {pct("net.job_rtt_us", 0.5) / 1e3, "ms"};
  m["net.job_rtt_ms_p95"] = {pct("net.job_rtt_us", 0.95) / 1e3, "ms"};
  m["net.server_tick_ms_p50"] = {pct("net.server.tick_us", 0.5) / 1e3, "ms"};
  m["net.bytes_per_update"] = {
      Ratio(counter("net.server.bytes_in") + counter("net.server.bytes_out"),
            net_updates),
      "B"};
  m["net.frames_per_update"] = {
      Ratio(counter("net.server.frames_received") +
                counter("net.server.frames_sent"),
            net_updates),
      "count"};
  m["transport.copies_per_update"] = {
      Ratio(counter("transport.bytes_copied"),
            counter("transport.updates") * update_bytes),
      "count"};
  m["reactor.events_per_round"] = {counter("reactor.events") / rounds,
                                   "count"};
  m["net.evictions"] = {counter("net.server.evictions"), "count"};
  m["data.synth_ms"] = {r.synth_ms, "ms"};
  m["data.partition_ms"] = {r.partition_ms, "ms"};
  m["fl.client_build_ms"] = {r.client_build_ms, "ms"};
  m["replay.record_ms"] = {r.record_ms, "ms"};
  return m;
}

Metrics MedianOf(const std::vector<Metrics>& each) {
  Metrics out;
  for (const auto& [name, metric] : each.front()) {
    std::vector<double> values;
    for (const Metrics& m : each) {
      values.push_back(m.at(name).value);
    }
    out[name] = {Median(values), metric.unit};
  }
  return out;
}

// --------------------------------------------------------- span report

bool IsPhase(const char* name) {
  for (const char* phase :
       {"fl.train", "attacks.craft", "defense.process", "fl.eval_step"}) {
    if (std::strcmp(name, phase) == 0) {
      return true;
    }
  }
  return false;
}

// Checks the span tree of one traced run, prints each span name's self time
// (duration minus the union of its children's intervals) and writes the
// spans out. A round's phase spans run one after another on the simulation
// thread and inside the round, so they and the loop remainder add up to
// the round's wall time exactly.
void ReportSpans(const Workload& w, const RunResult& r, Gate& gate,
                 const std::string& path) {
  std::unordered_map<std::uint32_t, const Span*> by_id;
  for (const Span& s : r.spans) {
    by_id[s.id] = &s;
  }
  std::unordered_map<std::uint32_t, std::vector<const Span*>> children;
  std::size_t orphans = 0;
  for (const Span& s : r.spans) {
    if (s.parent == kNoParent) {
      continue;
    }
    auto it = by_id.find(s.parent);
    if (it == by_id.end() || it->second->round != s.round) {
      ++orphans;
      continue;
    }
    children[s.parent].push_back(&s);
  }
  gate.Require(orphans == 0, w.name + ": " + std::to_string(orphans) +
                                 " spans without a parent in their round");

  std::map<std::string, double> self_ms, phase_ms;
  double wall_ms = 0.0, loop_ms = 0.0;
  bool nested = true;
  for (const Span& s : r.spans) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const Span* c : children[s.id]) {
      iv.emplace_back(std::max(c->begin_ns, s.begin_ns),
                      std::min(c->end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, reach = s.begin_ns;
    for (const auto& [b, e] : iv) {
      const std::uint64_t from = std::max(b, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    self_ms[s.name] +=
        static_cast<double>(s.end_ns - s.begin_ns - covered) / 1e6;
    if (s.parent != kNoParent) {
      continue;
    }
    std::vector<const Span*> phases;
    for (const Span* c : children[s.id]) {
      if (IsPhase(c->name)) {
        phases.push_back(c);
      }
    }
    std::sort(phases.begin(), phases.end(), [](const Span* x, const Span* y) {
      return x->begin_ns < y->begin_ns;
    });
    std::uint64_t last_end = s.begin_ns;
    double round_phase_ms = 0.0;
    for (const Span* c : phases) {
      nested = nested && c->begin_ns >= last_end && c->end_ns <= s.end_ns;
      last_end = c->end_ns;
      const double ms = static_cast<double>(c->end_ns - c->begin_ns) / 1e6;
      phase_ms[c->name] += ms;
      round_phase_ms += ms;
    }
    const double round_ms = static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
    wall_ms += round_ms;
    loop_ms += round_ms - round_phase_ms;
  }
  gate.Require(nested, w.name + ": phase spans overlap or leave their round");

  std::fprintf(stderr, "roundbench: %zu traced rounds, wall %.3f ms\n",
               r.rounds.size(), wall_ms);
  std::fprintf(stderr, "  %-22s %12s %12s\n", "top level of a round",
               "total ms", "% of wall");
  for (const auto& [name, ms] : phase_ms) {
    std::fprintf(stderr, "  %-22s %12.3f %11.2f%%\n", name.c_str(), ms,
                 100.0 * Ratio(ms, wall_ms));
  }
  std::fprintf(stderr, "  %-22s %12.3f %11.2f%%\n", "loop remainder", loop_ms,
               100.0 * Ratio(loop_ms, wall_ms));
  std::fprintf(stderr, "  %-22s %12s  (summed over threads)\n",
               "self time per span", "ms");
  for (const auto& [name, ms] : self_ms) {
    std::fprintf(stderr, "  %-22s %12.3f\n", name.c_str(), ms);
  }

  if (!path.empty()) {
    std::ofstream out(path);
    out << "round\tid\tparent\tthread\tname\tbegin_ns\tend_ns\n";
    for (const Span& s : r.spans) {
      out << s.round << '\t' << s.id << '\t'
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
          << '\t' << s.thread << '\t' << s.name << '\t' << s.begin_ns
          << '\t' << s.end_ns << '\n';
    }
    gate.Require(static_cast<bool>(out), "could not write spans to " + path);
  }
}

// --------------------------------------------------------------- modes

std::uint64_t SubSeed(std::uint64_t seed, std::size_t i) {
  return seed * 100 + i;
}

struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Outcome RunUntraced(const Workload& w, const Args& args, int nproc,
                    Gate& gate) {
  // Cycle through the distinct seeds until the time is spent, and at least
  // once past the last so the first seed repeats.
  const std::size_t min_runs = w.distinct_seeds + 1;
  std::vector<RunResult> runs;
  std::map<std::uint64_t, std::uint64_t> digests;
  std::vector<double> rss;
  const std::uint64_t begin = NowNs();
  while (runs.size() < min_runs ||
         static_cast<double>(NowNs() - begin) / 1e9 < args.seconds) {
    RunSpec spec;
    spec.seed = SubSeed(args.seed, runs.size() % w.distinct_seeds);
    spec.threads = nproc;
    ResetPeakRss();
    RunResult r = RunOnce(w, spec);
    rss.push_back(PeakRssMb());
    PrintDigest(w, spec.seed, "untraced", r);
    CheckRun(w, r, gate);
    auto [it, fresh] = digests.emplace(spec.seed, r.digest);
    gate.Require(fresh || it->second == r.digest,
                 w.name + ": seed " + std::to_string(spec.seed) +
                     " gave two different final models");
    r.sim.final_model.clear();
    runs.push_back(std::move(r));
  }
  if (w.exec == Exec::kTcp) {
    const std::uint64_t seed = SubSeed(args.seed, 0);
    CheckTcpMatchesInproc(w, seed, digests.at(seed), nproc, gate);
  }
  Outcome out;
  out.metrics = EndToEnd(w, runs, Median(rss), min_runs * w.rounds);
  for (const RunResult& r : runs) {
    out.attempted += r.jobs;
    out.failed += r.lost_jobs;
  }
  return out;
}

Outcome RunTraced(const Workload& w, const Args& args, int nproc, Gate& gate) {
  const std::uint64_t seed = SubSeed(args.seed, 0);
  CheckTimedModel(w, seed, gate);
  std::vector<double> untraced_rate, traced_rate;
  std::vector<Metrics> layers;
  std::optional<std::uint64_t> digest;
  Outcome out;
  const std::uint64_t begin = NowNs();
  while (traced_rate.empty() ||
         static_cast<double>(NowNs() - begin) / 1e9 < args.seconds) {
    for (const bool traced : {false, true}) {
      RunSpec spec;
      spec.seed = seed;
      spec.traced = traced;
      spec.threads = nproc;
      // The in-program recorder is what feeds threadpool.queue_wait_us.
      obs::TraceRecorder::Global().SetEnabled(traced);
      RunResult r = RunOnce(w, spec);
      obs::TraceRecorder::Global().SetEnabled(false);
      obs::TraceRecorder::Global().Clear();
      PrintDigest(w, seed, traced ? "traced" : "untraced", r);
      CheckRun(w, r, gate);
      if (!digest) {
        digest = r.digest;
      }
      gate.Require(r.digest == *digest,
                   w.name + ": traced and untraced runs gave different models");
      out.attempted += r.jobs;
      out.failed += r.lost_jobs;
      (traced ? traced_rate : untraced_rate).push_back(RoundsPerSecond(r));
      if (traced) {
        layers.push_back(PerLayer(w, r));
        ReportSpans(w, r, gate, args.spans_out);
      }
    }
  }
  if (w.exec == Exec::kTcp) {
    CheckTcpMatchesInproc(w, seed, *digest, nproc, gate);
  }
  out.metrics = MedianOf(layers);
  out.metrics["obs.trace_overhead_pct"] = {
      100.0 * (Ratio(Median(untraced_rate), Median(traced_rate)) - 1.0), "%"};
  return out;
}

void PrintResult(const Outcome& out, bool correct) {
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << (std::isfinite(metric.value) ? metric.value : 0.0)
         << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
}

}  // namespace
}  // namespace roundbench

int main(int argc, char** argv) {
  using namespace roundbench;
  try {
    const Args args = ParseArgs(argc, argv);
    const Workload w = FindWorkload(args.workload, args.tiny);
    util::SetLogLevel(util::LogLevel::kWarn);
    const int nproc = Nproc();
    std::fprintf(stderr,
                 "roundbench: %s seed=%llu seconds=%g trace=%d nproc=%d%s\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 args.seconds, args.trace ? 1 : 0, nproc,
                 args.tiny ? " tiny" : "");
    Gate gate;
    const Outcome out = args.trace ? RunTraced(w, args, nproc, gate)
                                   : RunUntraced(w, args, nproc, gate);
    for (const auto& [name, metric] : out.metrics) {
      gate.Require(std::isfinite(metric.value), name + " is not finite");
    }
    std::fprintf(stderr, "roundbench: failed_pct=%.4f (%llu of %llu jobs)\n",
                 100.0 * Ratio(static_cast<double>(out.failed),
                               static_cast<double>(out.attempted)),
                 static_cast<unsigned long long>(out.failed),
                 static_cast<unsigned long long>(out.attempted));
    PrintResult(out, gate.failures.empty());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roundbench: error: %s\n", e.what());
    return 1;
  }
}
