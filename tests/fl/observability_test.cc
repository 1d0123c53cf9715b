// The live observability plane's correctness contracts: the audit trail
// reconciles exactly with SimulationResult, the /metrics exporter is
// observation-only (bit-identical results on or off), and trace ids are
// deterministic pure functions.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "fl/experiment.h"
#include "fl/trace_context.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace fl {
namespace {

ExperimentConfig TinyConfig(std::uint64_t seed) {
  ExperimentConfig config =
      MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  config.num_clients = 12;
  config.num_malicious = 3;
  config.train_pool = 600;
  config.test_samples = 200;
  config.partition_size = 40;
  config.sim.buffer_goal = 6;
  config.sim.rounds = 6;
  config.sim.local.epochs = 1;
  config.threads = 2;
  return config;
}

// Close and clear the global audit trail around each test: it is
// process-wide state shared with every other simulation-running test.
class ObservabilityTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::AuditTrail::Global().Close(); }
};

TEST_F(ObservabilityTest, AuditCountsReconcileExactlyWithSimulationResult) {
  const std::string path = ::testing::TempDir() + "obs_audit_run.jsonl";
  ExperimentConfig config = TinyConfig(71);
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;

  obs::AuditTrail& audit = obs::AuditTrail::Global();
  audit.Open(path);
  const SimulationResult result = RunExperiment(config);
  audit.Close();

  // The audit trail and RoundRecord are tallied in the same loop; their
  // totals must agree exactly, per verdict.
  std::size_t accepted = 0, rejected = 0, deferred = 0, buffered = 0;
  for (const RoundRecord& round : result.rounds) {
    accepted += round.accepted;
    rejected += round.rejected;
    deferred += round.deferred;
    buffered += round.buffered;
  }
  std::uint64_t kept_total = 0, filtered_total = 0, deferred_total = 0;
  for (const auto& [client, counts] : audit.CountsByClient()) {
    EXPECT_GE(client, 0);
    EXPECT_LT(client, static_cast<int>(config.num_clients));
    kept_total += counts.kept;
    filtered_total += counts.filtered;
    deferred_total += counts.deferred;
  }
  EXPECT_EQ(kept_total, accepted);
  EXPECT_EQ(filtered_total, rejected);
  EXPECT_EQ(deferred_total, deferred);
  EXPECT_EQ(audit.RecordCount(), buffered);

  // Every line is one valid JSON object carrying a legal verdict, and the
  // file has exactly one line per update the defense saw.
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    std::string error;
    ASSERT_TRUE(obs::JsonLint(line, &error)) << error << "\n" << line;
    const bool legal = line.find("\"verdict\":\"kept\"") != std::string::npos ||
                       line.find("\"verdict\":\"filtered\"") !=
                           std::string::npos ||
                       line.find("\"verdict\":\"deferred\"") !=
                           std::string::npos;
    EXPECT_TRUE(legal) << line;
    ++lines;
  }
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(lines, buffered);
}

TEST_F(ObservabilityTest, AuditOnLeavesResultsBitIdentical) {
  const std::string path = ::testing::TempDir() + "obs_audit_identical.jsonl";
  ExperimentConfig config = TinyConfig(72);
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;

  const SimulationResult plain = RunExperiment(config);
  obs::AuditTrail::Global().Open(path);
  const SimulationResult audited = RunExperiment(config);
  obs::AuditTrail::Global().Close();
  std::remove(path.c_str());

  EXPECT_EQ(audited.final_model, plain.final_model);  // bit-exact
  EXPECT_EQ(audited.final_accuracy, plain.final_accuracy);
}

TEST_F(ObservabilityTest, TcpAuditRecordsCarryNegotiatedCodecAndWireBytes) {
  // Over tcp every audited update must report the codec it crossed the wire
  // with and its encoded size, including on rounds long after the first.
  const std::string path = ::testing::TempDir() + "obs_audit_tcp.jsonl";
  ExperimentConfig config = TinyConfig(74);
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;
  config.transport = TransportKind::kTcp;
  config.compress = "fp16";

  obs::AuditTrail::Global().Open(path);
  const SimulationResult result = RunExperiment(config);
  obs::AuditTrail::Global().Close();
  EXPECT_EQ(result.evicted_clients, 0u);

  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  const std::string wire_key = "\"wire_bytes\":";
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"codec\":\"fp16\""), std::string::npos) << line;
    const std::size_t at = line.find(wire_key);
    ASSERT_NE(at, std::string::npos) << line;
    const std::string value = line.substr(at + wire_key.size());
    ASSERT_FALSE(value.empty()) << line;
    ASSERT_TRUE(value[0] >= '1' && value[0] <= '9')
        << "wire_bytes not a positive count: " << line;
    ++lines;
  }
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(lines, obs::AuditTrail::Global().RecordCount());
  EXPECT_GT(lines, 0u);
}

TEST_F(ObservabilityTest, ExporterOnLeavesResultsBitIdentical) {
  ExperimentConfig config = TinyConfig(73);
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;

  const SimulationResult off = RunExperiment(config);
  SimulationResult on;
  {
    obs::MetricsExporter exporter;  // live on an ephemeral port for the run
    ASSERT_NE(exporter.port(), 0);
    on = RunExperiment(config);
  }
  EXPECT_EQ(on.final_model, off.final_model);  // bit-exact
  EXPECT_EQ(on.final_accuracy, off.final_accuracy);
  EXPECT_EQ(on.rounds.size(), off.rounds.size());
}

// Phase histograms are always on: one eval.us and one round.wall_us
// sample per round with eval_every = 1, and one train.job_us sample per
// in-process job (every job enters transport.updates too).
TEST_F(ObservabilityTest, PhaseHistogramsRecordEveryRoundAndJob) {
  ExperimentConfig config = TinyConfig(73);
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;
  config.sim.rounds = 3;
  config.sim.eval_every = 1;

  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  const obs::Labels labels{{"defense", "AsyncFilter"}};
  obs::Histogram& eval_us = registry.GetHistogram("eval.us", labels);
  obs::Histogram& round_us = registry.GetHistogram("round.wall_us", labels);
  obs::Histogram& job_us = registry.GetHistogram("train.job_us");
  obs::Counter& updates = registry.GetCounter("transport.updates");
  const std::uint64_t eval0 = eval_us.Count();
  const std::uint64_t round0 = round_us.Count();
  const std::uint64_t job0 = job_us.Count();
  const std::uint64_t updates0 = updates.Value();
  const double eval_sum0 = eval_us.Sum();
  const double round_sum0 = round_us.Sum();

  const SimulationResult result = RunExperiment(config);
  ASSERT_EQ(result.rounds.size(), 3u);
  EXPECT_EQ(eval_us.Count() - eval0, 3u);
  EXPECT_EQ(round_us.Count() - round0, 3u);
  EXPECT_GT(job_us.Count() - job0, 0u);
  EXPECT_EQ(job_us.Count() - job0, updates.Value() - updates0);
  // Each evaluation happens inside its round.
  EXPECT_GE(round_us.Sum() - round_sum0, eval_us.Sum() - eval_sum0);
}

TEST(TraceContextTest, TraceIdsAreDeterministicNonZeroAndDistinct) {
  // Same (seed, client, job) → same id on server and client; trace-plane
  // zero ("no context") can never be produced.
  EXPECT_EQ(TraceIdFor(42, 3, 7), TraceIdFor(42, 3, 7));
  std::set<std::uint64_t> ids;
  for (int client = 0; client < 8; ++client) {
    for (std::uint64_t job = 0; job < 8; ++job) {
      const std::uint64_t id = TraceIdFor(42, client, job);
      EXPECT_NE(id, 0u);
      ids.insert(id);
    }
  }
  EXPECT_EQ(ids.size(), 64u);  // no collisions across a small grid
  EXPECT_NE(TraceIdFor(42, 3, 7), TraceIdFor(43, 3, 7));  // seed matters

  // Span ids within a trace are distinct from each other and the trace id.
  const std::uint64_t trace = TraceIdFor(42, 3, 7);
  const std::set<std::uint64_t> span_ids{trace, DispatchSpanId(trace),
                                         TrainSpanId(trace),
                                         DefenseSpanId(trace)};
  EXPECT_EQ(span_ids.size(), 4u);
}

}  // namespace
}  // namespace fl
