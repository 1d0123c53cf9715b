// The benchmark's workloads and the code that sets up and runs one
// simulation of a workload through the public library API. README.md
// beside this directory says why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/registry.h"
#include "data/synthetic.h"
#include "fl/metrics.h"
#include "probe.h"

namespace roundbench {

enum class Exec {
  kInproc,  // fl::InprocBackend on a thread pool
  kReplay,  // recorded LeNet deltas served by a replay backend
  kTcp,     // fl::DistributedDriver, virtual client pool over loopback tcp
};

struct Workload {
  std::string name;
  data::Profile profile = data::Profile::kFashionMnist;
  Exec exec = Exec::kInproc;
  std::size_t clients = 0;
  std::size_t malicious = 0;
  attacks::AttackKind attack = attacks::AttackKind::kGd;
  std::size_t buffer = 0;
  std::size_t rounds = 0;
  std::size_t eval_every = 1;  // > rounds: evaluate after the last round only
  std::size_t replay_deltas = 0;
  int connections = 0;  // tcp only
  // Distinct seeds one measured run cycles through; detection and accuracy
  // figures pool over them.
  std::size_t distinct_seeds = 1;
};

// `tiny` shrinks every size for the self-test; throws on unknown names.
Workload FindWorkload(const std::string& name, bool tiny);

struct RunSpec {
  std::uint64_t seed = 1;
  bool traced = false;
  bool force_inproc = false;  // run a tcp workload in process (digest check)
  int threads = 1;            // runnable-thread budget (nproc)
};

struct RunResult {
  double setup_s = 0.0;
  double synth_ms = 0.0;
  double partition_ms = 0.0;
  double client_build_ms = 0.0;
  double record_ms = 0.0;
  fl::SimulationResult sim;
  std::uint64_t digest = 0;
  std::size_t params = 0;
  int train_threads = 0;
  std::vector<RoundSample> rounds;
  TrainWindow window;
  double run_wall_s = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t lost_jobs = 0;
  RegistryDelta registry;
  std::vector<Span> spans;
};

RunResult RunOnce(const Workload& workload, const RunSpec& spec);

}  // namespace roundbench
